#include <gtest/gtest.h>

#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "workload/tpox_queries.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

class AdvisorIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
  }

  AdvisorOptions Options(SearchAlgorithm algo,
                         double budget = 128.0 * 1024) {
    AdvisorOptions options;
    options.algorithm = algo;
    options.space_budget_bytes = budget;
    return options;
  }

  Database db_;
  Catalog catalog_;
  Workload workload_;
};

TEST_F(AdvisorIntegrationTest, FullPipelineAllAlgorithms) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    Advisor advisor(&db_, &catalog_, Options(algo));
    Result<Recommendation> rec = advisor.Recommend(workload_);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo) << ": "
                          << rec.status().ToString();
    EXPECT_FALSE(rec->indexes.empty()) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->total_size_bytes, 128.0 * 1024);
    EXPECT_GT(rec->benefit, 0.0);
    EXPECT_LT(rec->recommended_cost, rec->baseline_cost);
    // The recommendation reduces cost by orders of magnitude on this
    // scan-bound workload (the paper's headline claim).
    EXPECT_GT(rec->baseline_cost / rec->recommended_cost, 10.0)
        << SearchAlgorithmName(algo);
    // Artifacts are all populated.
    EXPECT_FALSE(rec->enumeration.candidates.empty());
    EXPECT_GE(rec->candidates.size(), rec->enumeration.candidates.size());
    EXPECT_EQ(rec->dag.size(), rec->candidates.size());
    EXPECT_FALSE(rec->search.trace.empty());
    // Report is printable and mentions DDL.
    EXPECT_NE(rec->Report().find("CREATE INDEX"), std::string::npos);
  }
}

TEST_F(AdvisorIntegrationTest, GeneralizationProducesWildcardCandidates) {
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  bool has_generalized = false;
  for (const CandidateIndex& c : rec->candidates) {
    if (c.from_generalization) {
      has_generalized = true;
      EXPECT_GT(c.def.pattern.WildcardCount(), 0u);
    }
  }
  EXPECT_TRUE(has_generalized);
}

TEST_F(AdvisorIntegrationTest, GeneralizationOffShrinksCandidateSet) {
  AdvisorOptions with = Options(SearchAlgorithm::kGreedyHeuristic);
  AdvisorOptions without = Options(SearchAlgorithm::kGreedyHeuristic);
  without.enable_generalization = false;
  Advisor a_with(&db_, &catalog_, with);
  Advisor a_without(&db_, &catalog_, without);
  Result<Recommendation> rec_with = a_with.Recommend(workload_);
  Result<Recommendation> rec_without = a_without.Recommend(workload_);
  ASSERT_TRUE(rec_with.ok());
  ASSERT_TRUE(rec_without.ok());
  EXPECT_GT(rec_with->candidates.size(), rec_without->candidates.size());
  EXPECT_EQ(rec_without->candidates.size(),
            rec_without->enumeration.candidates.size());
}

TEST_F(AdvisorIntegrationTest, RecommendationNamesAreUnique) {
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  std::set<std::string> names;
  for (const IndexDefinition& def : rec->indexes) {
    EXPECT_FALSE(def.name.empty());
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
  }
}

TEST_F(AdvisorIntegrationTest, MultiCollectionTpoxPipeline) {
  Database tpox;
  TpoxParams params;
  ASSERT_TRUE(PopulateTpox(&tpox, 20, 40, 10, params, 11).ok());
  Workload workload = MakeTpoxWorkload();
  AddTpoxUpdates(&workload, 1.0);
  Catalog catalog;
  Advisor advisor(&tpox, &catalog,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec->benefit, 0.0);
  // The recommendation spans multiple collections.
  std::set<std::string> collections;
  for (const IndexDefinition& def : rec->indexes) {
    collections.insert(def.collection);
  }
  EXPECT_GE(collections.size(), 2u);
}

TEST_F(AdvisorIntegrationTest, EmptyWorkloadYieldsEmptyRecommendation) {
  Workload empty;
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(empty);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->indexes.empty());
  EXPECT_EQ(rec->benefit, 0.0);
}

TEST_F(AdvisorIntegrationTest, UpdateHeavyWorkloadShrinksConfig) {
  AdvisorOptions options = Options(SearchAlgorithm::kGreedyHeuristic);
  Advisor no_updates(&db_, &catalog_, options);
  Result<Recommendation> rec_no = no_updates.Recommend(workload_);
  ASSERT_TRUE(rec_no.ok());

  Workload heavy = MakeXMarkWorkload("xmark");
  AddXMarkUpdates(&heavy, "xmark", 50.0);
  Advisor with_updates(&db_, &catalog_, options);
  Result<Recommendation> rec_up = with_updates.Recommend(heavy);
  ASSERT_TRUE(rec_up.ok());
  // Heavy updates debit benefits, so the chosen configuration cannot be
  // more beneficial than the update-free one.
  EXPECT_LE(rec_up->benefit, rec_no->benefit + 1e-9);
}

// ------------- Figure 5 and actual execution, each over several inputs.

struct Scenario {
  const char* dataset;  // "xmark" or "tpox".
  int docs;             // XMark documents (the TPoX size is fixed).
  SearchAlgorithm algorithm;
  double budget_kb;
};

std::ostream& operator<<(std::ostream& os, const Scenario& s) {
  return os << s.dataset << "/" << s.docs << " docs/"
            << SearchAlgorithmName(s.algorithm) << "/" << s.budget_kb << " KB";
}

class ScenarioTest : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    const Scenario& s = GetParam();
    if (std::string(s.dataset) == "xmark") {
      XMarkParams params;
      ASSERT_TRUE(PopulateXMark(&db_, "xmark", s.docs, params, 42).ok());
      workload_ = MakeXMarkWorkload("xmark");
    } else {
      TpoxParams params;
      ASSERT_TRUE(PopulateTpox(&db_, 100, 200, 40, params, 11).ok());
      workload_ = MakeTpoxWorkload();
    }
    options_.algorithm = s.algorithm;
    options_.space_budget_bytes = s.budget_kb * 1024;
  }

  Database db_;
  Catalog catalog_;
  Workload workload_;
  AdvisorOptions options_;
};

// Figure 5's analysis screen: under the recommended configuration every
// training query is cheaper than with no indexes and the overtrained
// configuration (all basic candidates) is the per-workload floor; the
// same configuration also cuts the total cost of unseen variations;
// dropping an index from it never makes the workload cheaper. Prints
// the three-way table and the unseen per-query costs.
using RecommendationAnalysisTest = ScenarioTest;

TEST_P(RecommendationAnalysisTest, TrainingQueriesCheaperAndUnseenDrops) {
  Advisor advisor(&db_, &catalog_, options_);
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  std::cout << rec->Report() << "\n";
  Result<RecommendationAnalysis> analysis =
      AnalyzeRecommendation(db_, catalog_, workload_, *rec,
                            options_.cost_model, advisor.cache());
  ASSERT_TRUE(analysis.ok());
  std::cout << analysis->ToTable() << "\n";
  EXPECT_NE(analysis->ToTable().find("TOTAL"), std::string::npos);
  ASSERT_EQ(analysis->rows.size(), workload_.size());
  for (const QueryCostRow& row : analysis->rows) {
    EXPECT_LT(row.cost_recommended, row.cost_no_index) << row.query_id;
    EXPECT_LE(row.cost_overtrained, row.cost_no_index + 1e-9) << row.query_id;
  }
  EXPECT_LE(analysis->total_overtrained, analysis->total_recommended + 1e-9);

  Random rng(99);
  Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 12);
  Result<EvaluateIndexesResult> without = EvaluateConfigurationOnWorkload(
      db_, catalog_, {}, unseen, options_.cost_model, advisor.cache());
  Result<EvaluateIndexesResult> with = EvaluateConfigurationOnWorkload(
      db_, catalog_, rec->indexes, unseen, options_.cost_model,
      advisor.cache());
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  for (size_t i = 0; i < unseen.size(); ++i) {
    std::cout << "  " << unseen.queries()[i].id << ": "
              << FormatDouble(without->plans[i].total_cost) << " -> "
              << FormatDouble(with->plans[i].total_cost) << "  via "
              << with->plans[i].access.ToString() << "\n";
  }
  std::cout << "  unseen TOTAL: "
            << FormatDouble(without->total_weighted_cost) << " -> "
            << FormatDouble(with->total_weighted_cost) << "\n";
  EXPECT_LT(with->total_weighted_cost, without->total_weighted_cost);

  ASSERT_FALSE(rec->indexes.empty());
  std::vector<IndexDefinition> modified = rec->indexes;
  modified.pop_back();
  Result<EvaluateIndexesResult> after = EvaluateConfigurationOnWorkload(
      db_, catalog_, modified, workload_, options_.cost_model, advisor.cache());
  ASSERT_TRUE(after.ok());
  std::cout << "  drop " << rec->indexes.back().pattern.ToString()
            << ": training cost " << FormatDouble(analysis->total_recommended)
            << " -> " << FormatDouble(after->total_weighted_cost) << "\n";
  EXPECT_GE(after->total_weighted_cost, analysis->total_recommended - 1e-9);
}

// The 12-document top-down instance is Figure 5 itself.
INSTANTIATE_TEST_SUITE_P(
    Figure5, RecommendationAnalysisTest,
    ::testing::Values(
        Scenario{"xmark", 6, SearchAlgorithm::kGreedyHeuristic, 128},
        Scenario{"xmark", 6, SearchAlgorithm::kTopDown, 128},
        Scenario{"xmark", 12, SearchAlgorithm::kTopDown, 128}));

// The paper's last demo step: create the recommended configuration for
// real and execute. Materialized sizes equal the advisor's estimates,
// every query returns the same rows under its index plan as under a
// scan, and reads fewer (simulated) pages. Prints per-query wall times
// and page counts; the times are informational.
using MaterializedExecutionTest = ScenarioTest;

TEST_P(MaterializedExecutionTest, IndexPlansMatchScansAndReadFewerPages) {
  Advisor advisor(&db_, &catalog_, options_);
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  Result<double> built = MaterializeConfiguration(
      db_, rec->indexes, &catalog_, options_.cost_model.storage);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(*built, 0.0);
  EXPECT_EQ(catalog_.size(), rec->indexes.size());
  EXPECT_NEAR(*built, rec->total_size_bytes, 1e-6 * *built);
  std::printf("%zu indexes: %s actual, %s estimated\n",
              rec->indexes.size(), FormatBytes(*built).c_str(),
              FormatBytes(rec->total_size_bytes).c_str());

  Optimizer optimizer(&db_, options_.cost_model);
  Executor executor(&db_, &catalog_, options_.cost_model);
  Catalog empty;
  std::printf("%-6s %12s %12s %12s %12s %8s\n", "query", "scan(us)",
              "indexed(us)", "scan-pages", "idx-pages", "rows");
  double scan_total = 0;
  double idx_total = 0;
  for (const Query& query : workload_.queries()) {
    Result<QueryPlan> idx_plan =
        optimizer.Optimize(query, catalog_, advisor.cache());
    Result<QueryPlan> scan_plan =
        optimizer.Optimize(query, empty, advisor.cache());
    ASSERT_TRUE(idx_plan.ok());
    ASSERT_TRUE(scan_plan.ok());
    Result<ExecResult> idx_run = executor.Execute(*idx_plan);
    Result<ExecResult> scan_run = executor.Execute(*scan_plan);
    ASSERT_TRUE(idx_run.ok()) << query.id;
    ASSERT_TRUE(scan_run.ok()) << query.id;
    EXPECT_EQ(idx_run->nodes, scan_run->nodes) << query.id;
    EXPECT_LT(idx_run->simulated_page_reads, scan_run->simulated_page_reads)
        << query.id;
    scan_total += scan_run->wall_micros;
    idx_total += idx_run->wall_micros;
    std::printf("%-6s %12.0f %12.0f %12.0f %12.1f %8zu\n", query.id.c_str(),
                scan_run->wall_micros, idx_run->wall_micros,
                scan_run->simulated_page_reads,
                idx_run->simulated_page_reads, idx_run->nodes.size());
  }
  std::printf("%-6s %12.0f %12.0f\n", "TOTAL", scan_total, idx_total);
}

// The 512 KB instances are the actual-execution table.
INSTANTIATE_TEST_SUITE_P(
    ActualExecution, MaterializedExecutionTest,
    ::testing::Values(
        Scenario{"xmark", 6, SearchAlgorithm::kGreedyHeuristic, 128},
        Scenario{"xmark", 20, SearchAlgorithm::kGreedyHeuristic, 512},
        Scenario{"tpox", 0, SearchAlgorithm::kGreedyHeuristic, 512}));

}  // namespace
}  // namespace xia
