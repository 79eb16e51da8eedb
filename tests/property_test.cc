// Property-style tests: invariants checked over randomized inputs and
// parameter sweeps, exercising the whole stack rather than one module.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/containment.h"
#include "xpath/evaluator.h"
#include "xpath/nfa.h"
#include "xpath/parser.h"

namespace xia {
namespace {

/// Generates a random pattern over a small name universe.
PathPattern RandomPattern(Random* rng) {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"a", "b", "c", "d"};
  size_t len = static_cast<size_t>(rng->Uniform(1, 4));
  std::vector<Step> steps;
  for (size_t i = 0; i < len; ++i) {
    Step s;
    s.axis = rng->Bernoulli(0.3) ? Axis::kDescendant : Axis::kChild;
    s.wildcard = rng->Bernoulli(0.25);
    if (!s.wildcard) s.name = rng->Choice(*kNames);
    if (i + 1 == len && rng->Bernoulli(0.15)) s.is_attribute = true;
    steps.push_back(std::move(s));
  }
  return PathPattern(std::move(steps));
}

/// Generates a random label word over the same universe.
std::vector<PatternSymbol> RandomWord(Random* rng) {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"a", "b", "c", "d", "z"};
  size_t len = static_cast<size_t>(rng->Uniform(1, 5));
  std::vector<PatternSymbol> word;
  for (size_t i = 0; i < len; ++i) {
    PatternSymbol sym;
    sym.name = rng->Choice(*kNames);
    sym.is_attr = (i + 1 == len) && rng->Bernoulli(0.2);
    word.push_back(std::move(sym));
  }
  return word;
}

// Containment decisions must agree with word-level membership: if
// L(s) ⊆ L(g) then every word s accepts, g accepts.
TEST(ContainmentSemanticsProperty, ContainmentAgreesWithMembership) {
  Random rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    PathPattern g = RandomPattern(&rng);
    PathPattern s = RandomPattern(&rng);
    bool contains = PatternContains(g, s);
    PatternNfa g_nfa(g);
    PatternNfa s_nfa(s);
    for (int w = 0; w < 20; ++w) {
      std::vector<PatternSymbol> word = RandomWord(&rng);
      if (s_nfa.MatchesWord(word)) {
        ++checked;
        if (contains) {
          EXPECT_TRUE(g_nfa.MatchesWord(word))
              << g.ToString() << " claims to contain " << s.ToString();
        }
      }
    }
  }
  EXPECT_GT(checked, 50);  // The sweep actually exercised members.
}

// A word matched by both patterns witnesses intersection.
TEST(IntersectionSemanticsProperty, WitnessImpliesIntersects) {
  Random rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    PathPattern a = RandomPattern(&rng);
    PathPattern b = RandomPattern(&rng);
    PatternNfa a_nfa(a);
    PatternNfa b_nfa(b);
    for (int w = 0; w < 10; ++w) {
      std::vector<PatternSymbol> word = RandomWord(&rng);
      if (a_nfa.MatchesWord(word) && b_nfa.MatchesWord(word)) {
        EXPECT_TRUE(PatternsIntersect(a, b))
            << a.ToString() << " / " << b.ToString();
        break;
      }
    }
  }
}

// Evaluator results always satisfy VerifyNodePath-style membership: every
// node returned by EvaluatePattern has a root path the NFA accepts.
TEST(EvaluatorSemanticsProperty, ResultsMatchPattern) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 2, params, 42).ok());
  const Collection& coll = *db.GetCollection("xmark");
  Random rng(11);
  const std::vector<std::string> patterns = {
      "//item",          "/site/regions/*/item/quantity",
      "//item/@id",      "/site/*/person",
      "//mailbox//from", "/site/regions/africa/item/*",
      "//@category",     "/site//date"};
  for (const std::string& text : patterns) {
    Result<PathPattern> pattern = ParsePathPattern(text);
    ASSERT_TRUE(pattern.ok());
    PatternNfa nfa(*pattern);
    for (const Document& doc : coll.docs()) {
      for (NodeIndex n : EvaluatePattern(doc, db.names(), *pattern)) {
        // Rebuild the root word for the node.
        std::vector<PatternSymbol> word;
        for (NodeIndex cur = n; cur != kNullNode;
             cur = doc.node(cur).parent) {
          PatternSymbol sym;
          sym.is_attr = doc.node(cur).kind == NodeKind::kAttribute;
          sym.name = doc.node(cur).name == kNoName
                         ? ""
                         : db.names().NameOf(doc.node(cur).name);
          word.insert(word.begin(), sym);
        }
        EXPECT_TRUE(nfa.MatchesWord(word)) << text;
      }
    }
  }
  (void)rng;
}

// Synopsis counts are exact for any pattern (it is a lossless path
// summary for linear patterns): estimate == actual evaluation count.
TEST(SynopsisExactnessProperty, EstimatesEqualActualCounts) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 3, params, 42).ok());
  const Collection& coll = *db.GetCollection("xmark");
  const PathSynopsis* synopsis = db.synopsis("xmark");
  const std::vector<std::string> patterns = {
      "//item",       "//item/quantity",   "/site/regions/*/item",
      "//@id",        "//person//age",     "/site/open_auctions/*",
      "//bidder",     "/site/*/*/item/price"};
  for (const std::string& text : patterns) {
    Result<PathPattern> pattern = ParsePathPattern(text);
    ASSERT_TRUE(pattern.ok());
    size_t actual = 0;
    for (const Document& doc : coll.docs()) {
      actual += EvaluatePattern(doc, db.names(), *pattern).size();
    }
    EXPECT_EQ(synopsis->EstimateCount(*pattern),
              static_cast<double>(actual))
        << text;
  }
}

// Physical index entry counts equal virtual estimates for any pattern,
// and estimated byte sizes (what the knapsack packs) stay within 10% of
// the built index. Patterns: a fixed set in both key types plus every
// advisor candidate (basic and generalized) for the XMark workload; the
// 10-document instance is the sizing table, whose rows it prints.
class SizingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SizingProperty, VirtualEntriesMatchPhysicalForAllPatterns) {
  const int docs = GetParam();
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", docs, params, 42).ok());
  std::vector<IndexDefinition> defs;
  for (const char* text :
       {"//item/quantity", "/site/regions/*/item/*",
        "//person/profile/@income", "//date",
        "/site/closed_auctions/closed_auction/price"}) {
    for (ValueType type : {ValueType::kVarchar, ValueType::kDouble}) {
      IndexDefinition def;
      def.collection = "xmark";
      Result<PathPattern> pattern = ParsePathPattern(text);
      ASSERT_TRUE(pattern.ok());
      def.pattern = *pattern;
      def.type = type;
      defs.push_back(std::move(def));
    }
  }
  ContainmentCache cache;
  Result<EnumerationResult> enumerated =
      EnumerateBasicCandidates(db, MakeXMarkWorkload("xmark"), &cache);
  ASSERT_TRUE(enumerated.ok());
  for (const CandidateIndex& cand : GeneralizeCandidates(
           enumerated->candidates, db, GeneralizeOptions())) {
    defs.push_back(cand.def);
  }

  StorageConstants constants;
  double worst_ratio = 1.0;
  for (IndexDefinition& def : defs) {
    def.name = "i";
    VirtualIndexStats est =
        EstimateVirtualIndex(*db.synopsis("xmark"), def, constants);
    Result<PathIndex> built = BuildIndex(db, def);
    ASSERT_TRUE(built.ok());
    std::string label =
        def.pattern.ToString() + " AS " + ValueTypeName(def.type);
    EXPECT_EQ(est.entries, static_cast<double>(built->num_entries())) << label;
    double actual_size = built->ByteSize(constants);
    double ratio = actual_size > 0 ? est.size_bytes / actual_size : 1.0;
    double off_by = std::max(ratio, 1.0 / ratio);
    EXPECT_LE(off_by, 1.10) << label;
    worst_ratio = std::max(worst_ratio, off_by);
    std::printf("%-44s %-8s %6.0f entries %10s est %10s actual %5.2fx\n",
                def.pattern.ToString().c_str(), ValueTypeName(def.type),
                est.entries, FormatBytes(est.size_bytes).c_str(),
                FormatBytes(actual_size).c_str(), ratio);
  }
  std::printf("%d docs: worst estimate/actual size ratio %.2fx over %zu "
              "patterns\n", docs, worst_ratio, defs.size());
}

INSTANTIATE_TEST_SUITE_P(Docs, SizingProperty, ::testing::Values(2, 10));

// ------------------------- Budget sweep: advisor invariants at any budget.
// The 12-document instances are Ablation A, the search-strategy
// comparison: each prints its row of that table.

class BudgetSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {
 protected:
  static const Database* db(int docs) {
    static auto* dbs = new std::map<int, std::unique_ptr<Database>>();
    std::unique_ptr<Database>& db = (*dbs)[docs];
    if (db == nullptr) {
      db = std::make_unique<Database>();
      XMarkParams params;
      XIA_CHECK(PopulateXMark(db.get(), "xmark", docs, params, 42).ok());
    }
    return db.get();
  }
};

TEST_P(BudgetSweepTest, AllAlgorithmsRespectBudgetAndNeverHurt) {
  const auto [docs, budget] = GetParam();
  Workload workload = MakeXMarkWorkload("xmark");
  Catalog catalog;
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    AdvisorOptions options;
    options.space_budget_bytes = budget;
    options.algorithm = algo;
    Advisor advisor(db(docs), &catalog, options);
    Result<Recommendation> rec = advisor.Recommend(workload);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->total_size_bytes, budget + 1e-6)
        << SearchAlgorithmName(algo) << " @" << budget;
    EXPECT_GE(rec->benefit, 0.0) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->recommended_cost, rec->baseline_cost + 1e-6);

    // Recommended indexes no best plan uses (the paper's redundancy
    // problem): the heuristic search guarantees there are none.
    Optimizer optimizer(db(docs), options.cost_model);
    ConfigurationEvaluator evaluator(&optimizer, &workload, &catalog,
                                     &rec->candidates, advisor.cache(),
                                     options.account_update_cost);
    Result<ConfigurationEvaluator::Evaluation> eval =
        evaluator.Evaluate(rec->search.chosen);
    ASSERT_TRUE(eval.ok());
    int unused = 0;
    for (int c : rec->search.chosen) {
      if (eval->used_candidates.count(c) == 0) ++unused;
    }
    std::printf("%3d docs %-10s %-18s %3zu indexes %10s benefit %5.1f%% "
                "unused %2d evals %3d\n",
                docs, FormatBytes(budget).c_str(), SearchAlgorithmName(algo),
                rec->indexes.size(), FormatBytes(rec->total_size_bytes).c_str(),
                100.0 * rec->benefit / rec->baseline_cost, unused,
                rec->search.evaluations);
    if (algo != SearchAlgorithm::kGreedyHeuristic) continue;
    EXPECT_EQ(unused, 0) << docs << " docs @" << budget;
    // A redundant index (all its expressions already covered) buys next
    // to nothing, so the heuristic spends no extra space for a negligible
    // gain: if doubling the budget from half raises the benefit by under
    // 0.1%, the configuration keeps its size.
    options.space_budget_bytes = budget / 2;
    Advisor half_advisor(db(docs), &catalog, options);
    Result<Recommendation> half = half_advisor.Recommend(workload);
    ASSERT_TRUE(half.ok());
    if (rec->benefit - half->benefit < 1e-3 * rec->benefit) {
      EXPECT_NEAR(rec->total_size_bytes, half->total_size_bytes, 1e-6)
          << docs << " docs @" << budget;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, BudgetSweepTest,
    ::testing::Combine(::testing::Values(5),
                       ::testing::Values(1024.0, 16.0 * 1024, 64.0 * 1024,
                                         256.0 * 1024, 4.0 * 1024 * 1024)));
INSTANTIATE_TEST_SUITE_P(
    AblationA, BudgetSweepTest,
    ::testing::Combine(::testing::Values(12),
                       ::testing::Values(8.0 * 1024, 16.0 * 1024,
                                         32.0 * 1024, 64.0 * 1024,
                                         128.0 * 1024, 256.0 * 1024,
                                         1024.0 * 1024)));

// ------------------- Random query sweep: scan/index execution parity.

class RandomQueryParityTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryParityTest, ScanAndIndexPlansAgree) {
  static Database* db = [] {
    auto* d = new Database();
    XMarkParams params;
    XIA_CHECK(PopulateXMark(d, "xmark", 4, params, 7).ok());
    return d;
  }();
  Random rng(static_cast<uint64_t>(GetParam()));
  Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 6);

  CostModel cost_model;
  ContainmentCache cache;
  Optimizer optimizer(db, cost_model);
  Catalog empty;

  // Materialize an aggressive generalized configuration so index plans
  // exist for most queries.
  Catalog catalog;
  for (const auto& [pattern_text, type] :
       std::vector<std::pair<std::string, ValueType>>{
           {"/site/regions/*/item/*", ValueType::kDouble},
           {"/site/regions/*/item/*", ValueType::kVarchar},
           {"/site/people/person/profile/@income", ValueType::kDouble},
           {"//price", ValueType::kDouble},
           {"//item/location", ValueType::kVarchar}}) {
    IndexDefinition def;
    def.collection = "xmark";
    Result<PathPattern> pattern = ParsePathPattern(pattern_text);
    ASSERT_TRUE(pattern.ok());
    def.pattern = *pattern;
    def.type = type;
    def.name = catalog.UniqueName(def.pattern);
    Result<PathIndex> built = BuildIndex(*db, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model.storage)
                    .ok());
  }

  Executor executor(db, &catalog, cost_model);
  for (const Query& query : unseen.queries()) {
    Result<QueryPlan> scan_plan = optimizer.Optimize(query, empty, &cache);
    Result<QueryPlan> idx_plan = optimizer.Optimize(query, catalog, &cache);
    ASSERT_TRUE(scan_plan.ok());
    ASSERT_TRUE(idx_plan.ok());
    Result<ExecResult> scan_run = executor.Execute(*scan_plan);
    Result<ExecResult> idx_run = executor.Execute(*idx_plan);
    ASSERT_TRUE(scan_run.ok());
    ASSERT_TRUE(idx_run.ok());
    EXPECT_EQ(scan_run->nodes, idx_run->nodes) << query.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryParityTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace xia
