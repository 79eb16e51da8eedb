// The paper's shape claims that no module test owns: the Figure 1
// pipeline walk-through, generalization and update-cost accounting
// (Ablation B), scaling with workload and database size, and the search
// strategies against the exhaustive optimum. Each test prints the numbers
// it asserts (run `ctest -R paper_claims_test -V`); wall-clock times are
// printed but never asserted.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "advisor/benefit.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/docgen.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void AddQuery(Workload* w, const std::string& text, double weight,
              const std::string& id = "") {
  Status status = w->AddQueryText(text, weight, id);
  XIA_CHECK(status.ok());
}

/// Training workload confined to three regions (namerica, africa,
/// samerica), the paper's running example; with the people query it is
/// also the optimality workload, small enough to enumerate exhaustively.
Workload ThreeRegionWorkload(bool with_payment_query) {
  Workload w;
  AddQuery(&w,
           "for $i in doc(\"xmark\")/site/regions/namerica/item "
           "where $i/quantity > 5 return $i/name",
           3.0);
  AddQuery(&w,
           "for $i in doc(\"xmark\")/site/regions/africa/item "
           "where $i/quantity > 2 return $i/name",
           2.0);
  AddQuery(&w,
           "for $i in doc(\"xmark\")/site/regions/samerica/item "
           "where $i/price < 50 return $i/name",
           2.0);
  if (with_payment_query) {
    AddQuery(&w,
             "for $i in doc(\"xmark\")/site/regions/namerica/item "
             "where $i/payment = \"Creditcard\" return $i/name",
             1.0);
  }
  AddQuery(&w,
           "for $p in doc(\"xmark\")/site/people/person "
           "where $p/profile/@income >= 80000 return $p/name",
           1.0);
  return w;
}

/// Unseen workload drawn only from the three held-out regions, so exact
/// candidates from the training regions cannot serve any of it.
Workload HeldOutUnseenWorkload(Random* rng, int count) {
  Workload w;
  const std::vector<std::string> held_out = {"asia", "australia", "europe"};
  for (int i = 0; i < count; ++i) {
    const std::string& region = held_out[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(held_out.size()) - 1))];
    const std::string item =
        "for $i in doc(\"xmark\")/site/regions/" + region + "/item where ";
    std::string text;
    switch (rng->Uniform(0, 2)) {
      case 0:
        text = item + "$i/quantity > " + std::to_string(rng->Uniform(1, 9));
        break;
      case 1:
        text = item + "$i/price < " + std::to_string(rng->Uniform(20, 400));
        break;
      default:
        text = item + "$i/payment = \"" +
               rng->Choice(docgen::PaymentKinds()) + "\"";
        break;
    }
    AddQuery(&w, text + " return $i/name", 1.0, "U" + std::to_string(i + 1));
  }
  return w;
}

// ------------------------------------------- Figure 1: the pipeline.

// Enumerate Indexes mode yields the basic candidates, generalization adds
// wildcard candidates above them in the DAG (every generalized candidate
// has more specific children), the search prices configurations through
// Evaluate Indexes mode, and the output fits the budget, debits index
// maintenance for the workload's updates, and cuts the estimated workload
// cost by at least an order of magnitude.
TEST(PaperClaimsTest, Figure1PipelineShape) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 15, params, 42).ok());
  Workload workload = MakeXMarkWorkload("xmark");
  AddXMarkUpdates(&workload, "xmark", 0.2);
  Catalog catalog;
  AdvisorOptions options;
  options.space_budget_bytes = 256.0 * 1024;
  options.algorithm = SearchAlgorithm::kGreedyHeuristic;
  Advisor advisor(&db, &catalog, options);
  auto start = Clock::now();
  Result<Recommendation> rec = advisor.Recommend(workload);
  double ms = MsSince(start);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  size_t basics = rec->enumeration.candidates.size();
  double db_bytes = static_cast<double>(db.GetCollection("xmark")->ByteSize());
  std::printf("%zu queries, %zu update ops, %s database\n", workload.size(),
              workload.updates().size(), FormatBytes(db_bytes).c_str());
  std::printf("Enumerate Indexes mode: %zu basic candidates\n", basics);
  std::printf("generalization: +%zu candidates (total %zu)\n",
              rec->candidates.size() - basics, rec->candidates.size());
  std::printf("DAG: %zu nodes, %zu roots, %zu leaves\n", rec->dag.size(),
              rec->dag.Roots().size(), rec->dag.Leaves().size());
  std::printf("Evaluate Indexes mode: %d configuration evaluations\n",
              rec->search.evaluations);
  std::cout << rec->Report() << "\n";
  std::printf("advisor wall time: %.2f ms\n", ms);

  EXPECT_GT(basics, 0u);
  EXPECT_GT(rec->candidates.size(), basics);
  ASSERT_EQ(rec->dag.size(), rec->candidates.size());
  for (size_t i = 0; i < rec->candidates.size(); ++i) {
    if (rec->candidates[i].from_generalization) {
      EXPECT_FALSE(rec->dag.nodes()[i].children.empty())
          << rec->candidates[i].def.pattern.ToString();
    }
  }
  EXPECT_GT(rec->search.evaluations, 0);
  EXPECT_FALSE(rec->indexes.empty());
  EXPECT_LE(rec->total_size_bytes, options.space_budget_bytes);
  EXPECT_GT(rec->update_cost, 0.0);
  EXPECT_GE(rec->baseline_cost, 10.0 * rec->recommended_cost);
}

// ------------------------ Ablation B: generalization and update cost.

// Training sees three regions; the unseen workload uses the other three.
// Exact (basic) candidates cannot serve it, so without generalization no
// strategy helps it at all; with generalization the top-down search, which
// starts from the most general candidates, carries benefit to it, and
// more than greedy+heuristics does.
TEST(PaperClaimsTest, GeneralizedTopDownConfigHelpsHeldOutRegions) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 12, params, 42).ok());
  Workload training = ThreeRegionWorkload(/*with_payment_query=*/true);
  Random rng(99);
  Workload unseen = HeldOutUnseenWorkload(&rng, 18);
  Catalog catalog;

  AdvisorOptions probe_options;
  Advisor probe(&db, &catalog, probe_options);
  Result<EvaluateIndexesResult> none = EvaluateConfigurationOnWorkload(
      db, catalog, {}, unseen, probe_options.cost_model, probe.cache());
  ASSERT_TRUE(none.ok());
  const double baseline = none->total_weighted_cost;

  std::printf("%-16s %-18s %8s %12s %14s %14s\n", "generalization",
              "algorithm", "indexes", "train-cost", "unseen-cost",
              "unseen-gain%");
  double generalized_unseen[2] = {0, 0};  // [greedy+heuristics, top-down]
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedyHeuristic, SearchAlgorithm::kTopDown}) {
    for (bool generalize : {false, true}) {
      AdvisorOptions options;
      options.space_budget_bytes = 192.0 * 1024;
      options.algorithm = algo;
      options.enable_generalization = generalize;
      Advisor advisor(&db, &catalog, options);
      Result<Recommendation> rec = advisor.Recommend(training);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      Result<EvaluateIndexesResult> on_unseen =
          EvaluateConfigurationOnWorkload(db, catalog, rec->indexes, unseen,
                                          options.cost_model, advisor.cache());
      ASSERT_TRUE(on_unseen.ok());
      const double cost = on_unseen->total_weighted_cost;
      std::printf("%-16s %-18s %8zu %12.0f %14.0f %13.1f%%\n",
                  generalize ? "on" : "off", SearchAlgorithmName(algo),
                  rec->indexes.size(), rec->recommended_cost, cost,
                  100.0 * (baseline - cost) / baseline);
      if (generalize) {
        generalized_unseen[algo == SearchAlgorithm::kTopDown] = cost;
      } else {
        EXPECT_DOUBLE_EQ(cost, baseline) << SearchAlgorithmName(algo);
      }
    }
  }
  EXPECT_LT(generalized_unseen[1], baseline);
  EXPECT_LT(generalized_unseen[1], generalized_unseen[0]);
}

// With update-cost accounting off, the update rate never changes the
// configuration. With it on, the maintenance debit grows with the rate
// and, once updates dominate, the advisor shrinks the configuration.
TEST(PaperClaimsTest, UpdateCostAccountingShrinksConfigUnderHeavyUpdates) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 12, params, 42).ok());
  Catalog catalog;
  auto recommend = [&](double rate, bool account) {
    Workload w = MakeXMarkWorkload("xmark");
    AddXMarkUpdates(&w, "xmark", rate);
    AdvisorOptions options;
    options.space_budget_bytes = 256.0 * 1024;
    options.algorithm = SearchAlgorithm::kGreedyHeuristic;
    options.account_update_cost = account;
    Advisor advisor(&db, &catalog, options);
    Result<Recommendation> rec = advisor.Recommend(w);
    XIA_CHECK(rec.ok());
    std::printf("%-12s %-12s %8zu %10s %12.0f %12.1f\n",
                FormatDouble(rate).c_str(), account ? "on" : "off",
                rec->indexes.size(), FormatBytes(rec->total_size_bytes).c_str(),
                rec->baseline_cost - rec->recommended_cost, rec->update_cost);
    return std::move(*rec);
  };
  auto patterns = [](const Recommendation& rec) {
    std::set<std::string> out;
    for (const IndexDefinition& def : rec.indexes) {
      out.insert(def.pattern.ToString() + "|" + ValueTypeName(def.type));
    }
    return out;
  };

  std::printf("%-12s %-12s %8s %10s %12s %12s\n", "update-rate",
              "accounting", "indexes", "size", "query-gain", "update-cost");
  const Recommendation no_updates = recommend(0.0, true);
  double last_debit = 0;
  double last_size = no_updates.total_size_bytes;
  for (double rate : {1000.0, 10000.0, 100000.0}) {
    Recommendation off = recommend(rate, false);
    EXPECT_EQ(patterns(off), patterns(no_updates)) << rate;
    EXPECT_EQ(off.update_cost, 0.0) << rate;
    Recommendation on = recommend(rate, true);
    EXPECT_LE(on.total_size_bytes, last_size + 1e-6) << rate;
    if (patterns(on) == patterns(no_updates)) {
      EXPECT_GT(on.update_cost, last_debit) << rate;
    }
    last_debit = on.update_cost;
    last_size = on.total_size_bytes;
  }
  EXPECT_LT(last_size, no_updates.total_size_bytes);
}

// ------------------------------------------------------------ Scaling.

// Adding queries never shrinks the candidate sets; the scan baseline grows
// linearly with the database while the recommended cost grows more
// slowly, so the index-benefit gap widens with data volume.
TEST(PaperClaimsTest, ScalingWithWorkloadAndDatabaseSize) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 10, params, 42).ok());
  Catalog catalog;
  std::printf("%8s %10s %10s %8s %8s %10s\n", "queries", "basic",
              "expanded", "chosen", "evals", "time(ms)");
  size_t last_basic = 0;
  size_t last_expanded = 0;
  for (int extra : {0, 10, 20, 40, 65}) {
    Workload workload = MakeXMarkWorkload("xmark");
    Random rng(5);
    Workload synth = MakeXMarkUnseenWorkload("xmark", &rng, extra);
    for (const Query& q : synth.queries()) workload.AddQuery(q);
    AdvisorOptions options;
    options.space_budget_bytes = 256.0 * 1024;
    Advisor advisor(&db, &catalog, options);
    auto start = Clock::now();
    Result<Recommendation> rec = advisor.Recommend(workload);
    double ms = MsSince(start);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    std::printf("%8zu %10zu %10zu %8zu %8d %10.1f\n", workload.size(),
                rec->enumeration.candidates.size(), rec->candidates.size(),
                rec->indexes.size(), rec->search.evaluations, ms);
    EXPECT_GE(rec->enumeration.candidates.size(), last_basic) << extra;
    EXPECT_GE(rec->candidates.size(), last_expanded) << extra;
    last_basic = rec->enumeration.candidates.size();
    last_expanded = rec->candidates.size();
  }

  std::printf("\n%8s %10s %12s %12s %10s\n", "docs", "nodes", "baseline",
              "recommended", "time(ms)");
  double per_doc_5 = 0;
  double last_gap = 0;
  for (int docs : {5, 10, 20, 40, 80}) {
    Database scaled;
    ASSERT_TRUE(PopulateXMark(&scaled, "xmark", docs, params, 42).ok());
    Catalog scaled_catalog;
    AdvisorOptions options;
    options.space_budget_bytes = 1024.0 * 1024;
    Advisor advisor(&scaled, &scaled_catalog, options);
    Workload workload = MakeXMarkWorkload("xmark");
    auto start = Clock::now();
    Result<Recommendation> rec = advisor.Recommend(workload);
    double ms = MsSince(start);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    std::printf("%8d %10zu %12.0f %12.1f %10.1f\n", docs,
                scaled.GetCollection("xmark")->num_nodes(),
                rec->baseline_cost, rec->recommended_cost, ms);
    double per_doc = rec->baseline_cost / docs;
    if (docs == 5) per_doc_5 = per_doc;
    EXPECT_NEAR(per_doc, per_doc_5, 0.1 * per_doc_5) << docs;
    double gap = rec->baseline_cost / rec->recommended_cost;
    EXPECT_GT(gap, last_gap) << docs;
    last_gap = gap;
  }
}

// ----------------------------------------------- Optimality gap.

// On a workload small enough to enumerate every configuration of its
// beneficial candidates, no strategy beats the exhaustive optimum,
// greedy+heuristics stays within 1% of it at every budget, and it never
// does worse than plain greedy, whose redundant picks crowd out useful
// indexes at tight budgets.
TEST(PaperClaimsTest, SearchStrategiesAgainstExhaustiveOptimum) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 8, params, 42).ok());
  Workload workload = ThreeRegionWorkload(/*with_payment_query=*/false);
  Catalog catalog;
  CostModel cost_model;
  ContainmentCache cache;
  Result<EnumerationResult> enumerated =
      EnumerateBasicCandidates(db, workload, &cache);
  ASSERT_TRUE(enumerated.ok());
  std::vector<CandidateIndex> all_candidates = GeneralizeCandidates(
      enumerated->candidates, db, GeneralizeOptions());

  // Keep the sweep tractable: the workload has no updates, so a candidate
  // with no stand-alone benefit cannot help any configuration; keep the
  // (at most 16) beneficial ones.
  Optimizer optimizer(&db, cost_model);
  std::vector<CandidateIndex> candidates;
  {
    ConfigurationEvaluator prune(&optimizer, &workload, &catalog,
                                 &all_candidates, &cache,
                                 /*account_update_cost=*/true);
    Result<double> base = prune.BaselineCost();
    ASSERT_TRUE(base.ok());
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < all_candidates.size(); ++i) {
      Result<ConfigurationEvaluator::Evaluation> eval =
          prune.Evaluate({static_cast<int>(i)});
      ASSERT_TRUE(eval.ok());
      double benefit = *base - eval->TotalCost();
      if (benefit > 0) ranked.push_back({benefit, i});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    if (ranked.size() > 16) ranked.resize(16);
    for (const auto& [benefit, i] : ranked) {
      candidates.push_back(all_candidates[i]);
    }
  }
  const size_t n = candidates.size();
  std::printf(
      "%zu candidates, %zu with stand-alone benefit -> %u configurations\n",
      all_candidates.size(), n, 1u << n);
  ConfigurationEvaluator evaluator(&optimizer, &workload, &catalog,
                                   &candidates, &cache,
                                   /*account_update_cost=*/true);
  Result<double> baseline = evaluator.BaselineCost();
  ASSERT_TRUE(baseline.ok());

  std::printf("%-10s %12s | %10s %10s %10s\n", "budget", "optimal",
              "greedy%", "heuristic%", "topdown%");
  for (double budget_kb : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double budget = budget_kb * 1024;
    double optimum = 0;
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<int> config;
      double size = 0;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          config.push_back(static_cast<int>(i));
          size += candidates[i].size_bytes();
        }
      }
      if (size > budget) continue;
      Result<ConfigurationEvaluator::Evaluation> eval =
          evaluator.Evaluate(config);
      ASSERT_TRUE(eval.ok());
      optimum = std::max(optimum, *baseline - eval->TotalCost());
    }
    ASSERT_GT(optimum, 0.0);

    double achieved[3] = {0, 0, 0};  // greedy, greedy+heuristics, top-down
    int slot = 0;
    for (SearchAlgorithm algo :
         {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
          SearchAlgorithm::kTopDown}) {
      AdvisorOptions options;
      options.space_budget_bytes = budget;
      options.algorithm = algo;
      options.cost_model = cost_model;
      Advisor advisor(&db, &catalog, options);
      Result<Recommendation> rec = advisor.Recommend(workload);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      achieved[slot] = rec->benefit / optimum;
      EXPECT_LE(achieved[slot], 1.0 + 1e-9)
          << SearchAlgorithmName(algo) << " @" << budget_kb << " KB";
      ++slot;
    }
    std::printf("%-10s %12.0f | %9.1f%% %9.1f%% %9.1f%%\n",
                FormatBytes(budget).c_str(), optimum, 100 * achieved[0],
                100 * achieved[1], 100 * achieved[2]);
    EXPECT_GE(achieved[1], 0.99) << budget_kb << " KB";
    EXPECT_GE(achieved[1], achieved[0] - 1e-9) << budget_kb << " KB";
  }
}

}  // namespace
}  // namespace xia
