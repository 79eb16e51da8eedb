// Signature-keyed what-if cost cache equivalence: caching must be
// invisible in every observable output — per-query and workload costs,
// used-candidate sets, evaluation counts, and full recommendations are
// required to be bit-identical with the cache on and off, at any thread
// count — while the hit/miss/bypass counters themselves stay
// deterministic. Also pins the memo-key canonicalization contract
// (CanonicalKey is the single normalization point for Evaluate and
// EvaluateMany) and the relevance predicate's consistency with the
// matcher.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/cost_cache.h"
#include "advisor/whatif.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "index/index_matcher.h"
#include "optimizer/explain.h"
#include "workload/tpox_queries.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class CostCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");

    candidates_.push_back(
        Cand("/site/regions/namerica/item/quantity", ValueType::kDouble));
    candidates_.push_back(
        Cand("/site/regions/*/item/quantity", ValueType::kDouble));
    candidates_.push_back(Cand("/site/regions/*/item/*", ValueType::kDouble));
    candidates_.push_back(Cand("/site/regions/*/item/*", ValueType::kVarchar));
    candidates_.push_back(Cand("//item/payment", ValueType::kVarchar));
    candidates_.push_back(
        Cand("/site/people/person/profile/@income", ValueType::kDouble));
  }

  CandidateIndex Cand(const std::string& pattern, ValueType type) {
    CandidateIndex c;
    c.def.collection = "xmark";
    c.def.pattern = P(pattern);
    c.def.type = type;
    c.stats = EstimateVirtualIndex(*db_.synopsis("xmark"), c.def,
                                   cost_model_.storage);
    return c;
  }

  /// A fresh evaluator with its own containment cache.
  struct Rig {
    std::unique_ptr<Optimizer> optimizer;
    std::unique_ptr<ContainmentCache> cache;
    std::unique_ptr<ConfigurationEvaluator> evaluator;
  };
  Rig MakeRig(int threads, bool use_cost_cache) {
    Rig rig;
    rig.optimizer = std::make_unique<Optimizer>(&db_, cost_model_);
    rig.cache = std::make_unique<ContainmentCache>();
    rig.evaluator = std::make_unique<ConfigurationEvaluator>(
        rig.optimizer.get(), &workload_, &base_catalog_, &candidates_,
        rig.cache.get(), /*account_update_cost=*/true, threads,
        use_cost_cache);
    return rig;
  }

  static void ExpectIdentical(const ConfigurationEvaluator::Evaluation& a,
                              const ConfigurationEvaluator::Evaluation& b) {
    EXPECT_EQ(a.workload_cost, b.workload_cost);  // Bitwise: no tolerance.
    EXPECT_EQ(a.update_cost, b.update_cost);
    EXPECT_EQ(a.per_query_cost, b.per_query_cost);
    EXPECT_EQ(a.used_candidates, b.used_candidates);
  }

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  std::vector<CandidateIndex> candidates_;
};

// The configurations every equivalence test walks: empty, singletons,
// overlapping pairs, the full set, and permuted/duplicated inputs.
std::vector<std::vector<int>> TestConfigs() {
  return {{},        {0},     {1},   {2},     {3},
          {4},       {5},     {0, 1}, {1, 4},  {0, 1, 2, 3, 4, 5},
          {5, 3, 1}, {1, 3, 5}};
}

TEST_F(CostCacheTest, EvaluateIdenticalWithAndWithoutCache) {
  for (int threads : {1, 4}) {
    Rig cached = MakeRig(threads, /*use_cost_cache=*/true);
    Rig uncached = MakeRig(threads, /*use_cost_cache=*/false);
    for (const std::vector<int>& config : TestConfigs()) {
      Result<ConfigurationEvaluator::Evaluation> c =
          cached.evaluator->Evaluate(config);
      Result<ConfigurationEvaluator::Evaluation> u =
          uncached.evaluator->Evaluate(config);
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE(u.ok());
      ExpectIdentical(*c, *u);
    }
    // Configuration-evaluation counts are cache-independent: the cache
    // saves optimizer calls *inside* an evaluation, never evaluations.
    EXPECT_EQ(cached.evaluator->num_evaluations(),
              uncached.evaluator->num_evaluations());
    // The cached rig actually cached: signatures repeat across these
    // overlapping configurations, so hits must have happened.
    CostCacheStats stats = cached.evaluator->cost_stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.entries, 0u);
    EXPECT_EQ(stats.bypasses, 0u);
  }
}

TEST_F(CostCacheTest, EvaluateManyIdenticalWithAndWithoutCache) {
  for (int threads : {1, 4}) {
    Rig cached = MakeRig(threads, /*use_cost_cache=*/true);
    Rig uncached = MakeRig(threads, /*use_cost_cache=*/false);
    std::vector<std::vector<int>> configs = TestConfigs();
    std::vector<Result<ConfigurationEvaluator::Evaluation>> c =
        cached.evaluator->EvaluateMany(configs);
    std::vector<Result<ConfigurationEvaluator::Evaluation>> u =
        uncached.evaluator->EvaluateMany(configs);
    ASSERT_EQ(c.size(), configs.size());
    ASSERT_EQ(u.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      ASSERT_TRUE(c[i].ok());
      ASSERT_TRUE(u[i].ok());
      ExpectIdentical(*c[i], *u[i]);
    }
    EXPECT_EQ(cached.evaluator->num_evaluations(),
              uncached.evaluator->num_evaluations());
  }
}

TEST_F(CostCacheTest, CountersDeterministicAcrossThreadCounts) {
  // Hit/miss/bypass counting happens only in serial phases, so the exact
  // counter values — not just the costs — must match between a serial and
  // a 4-thread run of the same call sequence.
  auto run = [&](int threads, bool use_cache) {
    Rig rig = MakeRig(threads, use_cache);
    for (const std::vector<int>& config : TestConfigs()) {
      EXPECT_TRUE(rig.evaluator->Evaluate(config).ok());
    }
    EXPECT_TRUE(rig.evaluator->EvaluateMany(TestConfigs()).size() > 0);
    return rig.evaluator->cost_stats();
  };
  for (bool use_cache : {true, false}) {
    CostCacheStats serial = run(1, use_cache);
    CostCacheStats parallel = run(4, use_cache);
    EXPECT_EQ(serial.hits, parallel.hits);
    EXPECT_EQ(serial.misses, parallel.misses);
    EXPECT_EQ(serial.bypasses, parallel.bypasses);
    EXPECT_EQ(serial.entries, parallel.entries);
  }
}

TEST_F(CostCacheTest, DisabledCacheCountsBypasses) {
  Rig rig = MakeRig(1, /*use_cost_cache=*/false);
  ASSERT_TRUE(rig.evaluator->Evaluate({0, 1}).ok());
  CostCacheStats stats = rig.evaluator->cost_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // One bypass per query of the one evaluated configuration.
  EXPECT_EQ(stats.bypasses, workload_.queries().size());
}

TEST_F(CostCacheTest, FiredTokenCancelsMissesWhoseRecordsAreAllCached) {
  // {0, 5} is no memoized configuration, but after {0} and {5} every
  // query's relevance signature under it is (candidate 5 serves only the
  // @income query, candidate 0 none of it). A fired token must still
  // cancel it, through Evaluate and EvaluateMany alike: the searches roll
  // back on Cancelled, and an OK answer assembled purely from records
  // would let them take one more step after their budget fired.
  const std::vector<int> warm_a = {0};
  const std::vector<int> warm_b = {5};
  const std::vector<int> target = {0, 5};
  Rig control = MakeRig(1, /*use_cost_cache=*/true);
  ASSERT_TRUE(control.evaluator->Evaluate(warm_a).ok());
  ASSERT_TRUE(control.evaluator->Evaluate(warm_b).ok());
  uint64_t misses = control.evaluator->cost_stats().misses;
  ASSERT_TRUE(control.evaluator->Evaluate(target).ok());
  ASSERT_EQ(control.evaluator->cost_stats().misses, misses)
      << "the target's records must all be cached";

  for (bool batch : {false, true}) {
    Rig rig = MakeRig(1, /*use_cost_cache=*/true);
    ASSERT_TRUE(rig.evaluator->Evaluate(warm_a).ok());
    ASSERT_TRUE(rig.evaluator->Evaluate(warm_b).ok());
    CancelToken token = CancelToken::Cancellable();
    rig.evaluator->set_cancel(token);
    token.Cancel();
    Result<ConfigurationEvaluator::Evaluation> result =
        batch ? rig.evaluator->EvaluateMany({target}).front()
              : rig.evaluator->Evaluate(target);
    ASSERT_FALSE(result.ok()) << (batch ? "EvaluateMany" : "Evaluate");
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
    // Memoized configurations still answer under the fired token.
    EXPECT_TRUE(rig.evaluator->Evaluate(warm_a).ok());
    EXPECT_TRUE(rig.evaluator->EvaluateMany({warm_b}).front().ok());
  }
}

TEST_F(CostCacheTest, RepeatedQueriesShareCachedPlans) {
  // A workload with every query duplicated: fingerprint classes collapse
  // the duplicates, so the second copy of each query never misses.
  Workload doubled;
  for (const Query& q : workload_.queries()) doubled.AddQuery(q);
  for (const Query& q : workload_.queries()) doubled.AddQuery(q);
  Optimizer optimizer(&db_, cost_model_);
  ContainmentCache cache;
  ConfigurationEvaluator evaluator(&optimizer, &doubled, &base_catalog_,
                                   &candidates_, &cache,
                                   /*account_update_cost=*/true, 1, true);
  ASSERT_TRUE(evaluator.Evaluate({0, 1, 2}).ok());
  CostCacheStats stats = evaluator.cost_stats();
  // Every lookup of the first evaluation misses (the cache starts empty
  // and inserts happen after the serial lookup phase), but duplicate
  // queries dedupe onto shared plan tasks: at most one optimizer call —
  // hence one cached plan — per distinct query.
  EXPECT_EQ(stats.misses, doubled.queries().size());
  EXPECT_LE(stats.entries, workload_.queries().size());
  // A follow-up configuration hits for every query whose relevant-index
  // set did not change (candidate 5 serves only the @income query).
  ASSERT_TRUE(evaluator.Evaluate({0, 1, 2, 5}).ok());
  EXPECT_GT(evaluator.cost_stats().hits, 0u);
}

TEST_F(CostCacheTest, MemoKeyCanonicalizationEvaluate) {
  // Permutations and duplicates of one configuration are the same memo
  // entry: one evaluation, identical results (regression for the
  // CanonicalKey contract in benefit.h).
  Rig rig = MakeRig(1, /*use_cost_cache=*/true);
  Result<ConfigurationEvaluator::Evaluation> a =
      rig.evaluator->Evaluate({0, 2, 4});
  int after_first = rig.evaluator->num_evaluations();
  Result<ConfigurationEvaluator::Evaluation> b =
      rig.evaluator->Evaluate({4, 0, 2});
  Result<ConfigurationEvaluator::Evaluation> c =
      rig.evaluator->Evaluate({2, 2, 0, 4, 4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ExpectIdentical(*a, *b);
  ExpectIdentical(*a, *c);
  EXPECT_EQ(rig.evaluator->num_evaluations(), after_first);
}

TEST_F(CostCacheTest, MemoKeyCanonicalizationAcrossEvaluateAndEvaluateMany) {
  // EvaluateMany must canonicalize exactly like Evaluate: a batch of
  // permuted/duplicated variants resolves to one evaluation, and a later
  // Evaluate of any variant is a memo hit.
  Rig rig = MakeRig(4, /*use_cost_cache=*/true);
  std::vector<std::vector<int>> variants = {
      {0, 2, 4}, {4, 2, 0}, {2, 0, 4, 0}, {4, 4, 2, 0}};
  std::vector<Result<ConfigurationEvaluator::Evaluation>> batch =
      rig.evaluator->EvaluateMany(variants);
  ASSERT_EQ(batch.size(), variants.size());
  for (const auto& r : batch) ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < batch.size(); ++i) {
    ExpectIdentical(*batch[0], *batch[i]);
  }
  EXPECT_EQ(rig.evaluator->num_evaluations(), 1);
  Result<ConfigurationEvaluator::Evaluation> again =
      rig.evaluator->Evaluate({2, 4, 0});
  ASSERT_TRUE(again.ok());
  ExpectIdentical(*batch[0], *again);
  EXPECT_EQ(rig.evaluator->num_evaluations(), 1);  // Memo hit, no new work.
}

TEST_F(CostCacheTest, CanServeAgreesWithMatch) {
  // The relevance predicate behind the signatures is defined as "Match
  // emits at least one IndexMatch" — pin that equivalence so the two can
  // never drift apart.
  ContainmentCache cache;
  IndexMatcher matcher(&cache);
  for (const Query& q : workload_.queries()) {
    for (const CandidateIndex& cand : candidates_) {
      CatalogEntry entry;
      entry.def = cand.def;
      bool via_match = !matcher.Match(q.normalized, {&entry}).empty();
      EXPECT_EQ(matcher.CanServe(q.normalized, cand.def), via_match)
          << cand.def.pattern.ToString();
    }
  }
}

TEST_F(CostCacheTest, RecommendationsIdenticalWithAndWithoutCache) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    for (int threads : {1, 4}) {
      Recommendation recs[2];
      bool cache_settings[2] = {true, false};
      for (int s = 0; s < 2; ++s) {
        AdvisorOptions options;
        options.algorithm = algo;
        options.space_budget_bytes = 128.0 * 1024;
        options.threads = threads;
        options.what_if_cost_cache = cache_settings[s];
        Advisor advisor(&db_, &base_catalog_, options);
        Result<Recommendation> rec = advisor.Recommend(workload_);
        ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
        recs[s] = std::move(*rec);
      }
      EXPECT_EQ(recs[0].search.chosen, recs[1].search.chosen)
          << SearchAlgorithmName(algo);
      EXPECT_EQ(recs[0].search.workload_cost, recs[1].search.workload_cost)
          << SearchAlgorithmName(algo);
      EXPECT_EQ(recs[0].search.update_cost, recs[1].search.update_cost);
      EXPECT_EQ(recs[0].search.baseline_cost, recs[1].search.baseline_cost);
      EXPECT_EQ(recs[0].search.evaluations, recs[1].search.evaluations)
          << SearchAlgorithmName(algo);
      ASSERT_EQ(recs[0].indexes.size(), recs[1].indexes.size());
      for (size_t i = 0; i < recs[0].indexes.size(); ++i) {
        EXPECT_EQ(recs[0].indexes[i].DdlString(),
                  recs[1].indexes[i].DdlString());
      }
      // The cached run hit; the uncached run only bypassed.
      EXPECT_GT(recs[0].search.counters.cost.hits, 0u)
          << SearchAlgorithmName(algo);
      EXPECT_EQ(recs[1].search.counters.cost.hits, 0u);
      EXPECT_GT(recs[1].search.counters.cost.bypasses, 0u);
    }
  }
}

TEST_F(CostCacheTest, WhatIfSessionIdenticalAcrossCacheAndEdits) {
  // Drive a session through an add/drop/evaluate script; every evaluation
  // must coincide bit-for-bit with an uncached Evaluate Indexes pass over
  // the session's current overlay, and the session must hit on
  // re-evaluations (identity-carrying signatures make AddIndex/DropIndex
  // self-invalidating — no explicit invalidation).
  WhatIfSession session(&db_, base_catalog_, cost_model_);
  Optimizer optimizer(&db_, cost_model_);
  ContainmentCache cache;

  auto expect_same_eval = [&]() {
    Result<EvaluateIndexesResult> c = session.EvaluateWorkload(workload_);
    Result<EvaluateIndexesResult> u =
        EvaluateIndexesMode(optimizer, workload_.queries(), {},
                            session.catalog(), &cache, /*cost_cache=*/nullptr);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(u.ok());
    EXPECT_EQ(c->total_weighted_cost, u->total_weighted_cost);
    EXPECT_EQ(c->index_use_counts, u->index_use_counts);
    ASSERT_EQ(c->plans.size(), u->plans.size());
    for (size_t i = 0; i < c->plans.size(); ++i) {
      EXPECT_EQ(PlanFingerprint(c->plans[i]), PlanFingerprint(u->plans[i]));
      EXPECT_EQ(c->plans[i].query_id, u->plans[i].query_id);
    }
  };

  expect_same_eval();
  uint64_t hits_before = session.cache_counters().cost.hits;
  expect_same_eval();  // Unchanged catalog: every query hits.
  uint64_t hits_after = session.cache_counters().cost.hits;
  EXPECT_GE(hits_after - hits_before, workload_.queries().size());

  IndexDefinition def;
  def.collection = "xmark";
  def.pattern = P("/site/regions/*/item/quantity");
  def.type = ValueType::kDouble;
  ASSERT_TRUE(session.AddIndex(def).ok());
  expect_same_eval();  // Affected queries re-optimize, others hit.

  ASSERT_TRUE(session.DropIndex(session.session_indexes().front()).ok());
  hits_before = session.cache_counters().cost.hits;
  expect_same_eval();  // Keys revert to the pre-add ones: all hits again.
  hits_after = session.cache_counters().cost.hits;
  EXPECT_GE(hits_after - hits_before, workload_.queries().size());
}

TEST_F(CostCacheTest, EvaluateIndexesModeSharedCacheAcrossCalls) {
  Optimizer optimizer(&db_, cost_model_);
  ContainmentCache cache;
  WhatIfCostCache cost_cache(/*enabled=*/true);
  std::vector<IndexDefinition> config = {candidates_[1].def};
  // One query repeats: it is priced once but counted as its own lookup.
  std::vector<Query> queries = workload_.queries();
  queries.push_back(queries[1]);
  queries.back().id = "Q2-repeat";
  std::set<std::string> fingerprints;
  for (const Query& q : queries) {
    fingerprints.insert(QueryFingerprint(q.normalized));
  }
  ASSERT_LT(fingerprints.size(), queries.size());

  Result<EvaluateIndexesResult> first = EvaluateIndexesMode(
      optimizer, queries, config, base_catalog_, &cache, &cost_cache);
  ASSERT_TRUE(first.ok());
  CostCacheStats stats = cost_cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, queries.size());
  EXPECT_EQ(first->plans.back().query_id, "Q2-repeat");
  EXPECT_EQ(PlanFingerprint(first->plans.back()),
            PlanFingerprint(first->plans[1]));

  Result<EvaluateIndexesResult> second = EvaluateIndexesMode(
      optimizer, queries, config, base_catalog_, &cache, &cost_cache);
  ASSERT_TRUE(second.ok());
  // Same overlay: every query resolves from the cache, bit-identically.
  EXPECT_EQ(cost_cache.stats().hits - stats.hits, queries.size());
  EXPECT_EQ(cost_cache.stats().misses, stats.misses);
  EXPECT_EQ(first->total_weighted_cost, second->total_weighted_cost);
  EXPECT_EQ(first->index_use_counts, second->index_use_counts);
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(PlanFingerprint(first->plans[i]),
              PlanFingerprint(second->plans[i]));
  }

  // Without a cache each distinct fingerprint is still optimized once.
  fp::FailSpec count_only;
  count_only.code = StatusCode::kOk;  // Latency-only: counts trips.
  fp::ScopedFailpoint armed("advisor.whatif.optimize", count_only);
  const uint64_t trips_before = fp::Trips("advisor.whatif.optimize");
  Result<EvaluateIndexesResult> bare = EvaluateIndexesMode(
      optimizer, queries, config, base_catalog_, &cache, nullptr);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(fp::Trips("advisor.whatif.optimize") - trips_before,
            fingerprints.size());
  EXPECT_EQ(bare->total_weighted_cost, first->total_weighted_cost);
}

// Regression: one WhatIfCostCache passed as shared_cost_cache to a
// sequence of advises (what xia::server does) must not change any of
// them. The evaluator's memo keys are ids local to one evaluator —
// "query class 3 under candidates {1, 4}" names a different query and
// index set in every advise — so a memo that outlived its advise served
// later advises costs priced for another workload.
TEST_F(CostCacheTest, SharedCacheAcrossAdvisesMatchesFreshCache) {
  ASSERT_TRUE(PopulateTpox(&db_, 20, 40, 10, TpoxParams(), 11).ok());
  std::vector<Workload> workloads;
  for (uint64_t seed : {1, 2, 3, 4}) {
    Workload w = MakeXMarkWorkload("xmark");
    Random rng(seed);
    Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 30);
    for (const Query& q : unseen.queries()) w.AddQuery(q);
    workloads.push_back(std::move(w));
  }
  workloads.push_back(MakeTpoxWorkload());  // TPoX after XMark.

  AdvisorOptions options;
  options.space_budget_bytes = 64.0 * 1024;
  options.threads = 1;
  WhatIfCostCache shared;
  uint64_t fresh_hits = 0;
  uint64_t fresh_misses = 0;
  for (size_t i = 0; i < workloads.size(); ++i) {
    WhatIfCostCache fresh;
    options.shared_cost_cache = &fresh;
    Result<Recommendation> want =
        Advisor(&db_, &base_catalog_, options).Recommend(workloads[i]);
    options.shared_cost_cache = &shared;
    Result<Recommendation> got =
        Advisor(&db_, &base_catalog_, options).Recommend(workloads[i]);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->baseline_cost, want->baseline_cost) << "advise " << i;
    EXPECT_EQ(got->recommended_cost, want->recommended_cost)
        << "advise " << i;
    std::vector<std::string> got_ddl;
    std::vector<std::string> want_ddl;
    for (const IndexDefinition& def : got->indexes) {
      got_ddl.push_back(def.DdlString());
    }
    for (const IndexDefinition& def : want->indexes) {
      want_ddl.push_back(def.DdlString());
    }
    EXPECT_EQ(got_ddl, want_ddl) << "advise " << i;
    // The shared instance is a ledger: it holds no entries, however many
    // advises it has seen, and counts exactly the lookups they made.
    EXPECT_EQ(shared.stats().entries, 0u) << "advise " << i;
    fresh_hits += fresh.stats().hits;
    fresh_misses += fresh.stats().misses;
    EXPECT_EQ(shared.stats().hits, fresh_hits) << "advise " << i;
    EXPECT_EQ(shared.stats().misses, fresh_misses) << "advise " << i;
  }
}

}  // namespace
}  // namespace xia
