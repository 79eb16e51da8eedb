#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "advisor/dag.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "advisor/search_greedy.h"
#include "advisor/search_greedy_heuristic.h"
#include "advisor/search_topdown.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
    optimizer_ = std::make_unique<Optimizer>(&db_, cost_model_);

    // Build a realistic candidate set the way the advisor does.
    Result<EnumerationResult> enumerated =
        EnumerateBasicCandidates(db_, workload_, &cache_);
    ASSERT_TRUE(enumerated.ok());
    candidates_ = GeneralizeCandidates(enumerated->candidates, db_,
                                       GeneralizeOptions());
    dag_ = GeneralizationDag::Build(candidates_, &cache_);
    evaluator_ = std::make_unique<ConfigurationEvaluator>(
        optimizer_.get(), &workload_, &base_catalog_, &candidates_, &cache_,
        /*account_update_cost=*/true);
  }

  double ChosenSize(const SearchResult& result) {
    return ConfigSizeBytes(candidates_, result.chosen);
  }

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
  std::vector<CandidateIndex> candidates_;
  GeneralizationDag dag_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<ConfigurationEvaluator> evaluator_;
};

constexpr double kBudget = 64.0 * 1024;

TEST_F(SearchTest, GreedyRespectsBudgetAndImproves) {
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result = GreedySearch(evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->total_size_bytes, kBudget);
  EXPECT_LE(ChosenSize(*result), kBudget);
  EXPECT_GT(result->benefit, 0.0);
  EXPECT_FALSE(result->chosen.empty());
  EXPECT_FALSE(result->trace.empty());
}

TEST_F(SearchTest, TraceEndsWithStatsSection) {
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result = GreedySearch(evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  // Every search trace closes with the observability tail: a "stats:"
  // section rendering the evaluator's deterministic snapshot, one
  // indented line per metric, through the trace's last line.
  const std::vector<std::string>& trace = result->trace;
  ASSERT_GE(trace.size(), 2u);
  auto stats_it = std::find(trace.begin(), trace.end(), "stats:");
  ASSERT_NE(stats_it, trace.end());
  bool found_evaluations = false;
  for (auto it = stats_it + 1; it != trace.end(); ++it) {
    EXPECT_EQ(it->rfind("  ", 0), 0u) << *it;
    if (it->find("advisor.evaluations = ") != std::string::npos) {
      found_evaluations = true;
    }
  }
  EXPECT_TRUE(found_evaluations);
}

TEST_F(SearchTest, GreedyHeuristicRespectsBudgetAndImproves) {
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result =
      GreedyHeuristicSearch(evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ChosenSize(*result), kBudget);
  EXPECT_GT(result->benefit, 0.0);
}

TEST_F(SearchTest, HeuristicGuaranteesEveryIndexIsUsed) {
  // The paper's guarantee: every recommended index is used by at least
  // one workload query's best plan.
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result =
      GreedyHeuristicSearch(evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  Result<ConfigurationEvaluator::Evaluation> eval =
      evaluator_->Evaluate(result->chosen);
  ASSERT_TRUE(eval.ok());
  for (int c : result->chosen) {
    EXPECT_TRUE(eval->used_candidates.count(c))
        << candidates_[static_cast<size_t>(c)].def.pattern.ToString()
        << " recommended but unused";
  }
}

TEST_F(SearchTest, PlainGreedyMayKeepUnusedButHeuristicIsNoWorse) {
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> plain = GreedySearch(evaluator_.get(), options);
  Result<SearchResult> heuristic =
      GreedyHeuristicSearch(evaluator_.get(), options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(heuristic.ok());
  // The heuristic never recommends a larger configuration for less
  // benefit: compare benefit-per-byte at equal budgets.
  EXPECT_GE(heuristic->benefit, 0.95 * plain->benefit);
  EXPECT_LE(ChosenSize(*heuristic), kBudget);
}

TEST_F(SearchTest, TopDownStartsAtRootsAndFits) {
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result =
      TopDownSearch(dag_, evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ChosenSize(*result), kBudget);
  EXPECT_GT(result->benefit, 0.0);
  ASSERT_FALSE(result->trace.empty());
  EXPECT_NE(result->trace.front().find("DAG roots"), std::string::npos);
}

TEST_F(SearchTest, TopDownWithHugeBudgetKeepsRoots) {
  SearchOptions options;
  options.space_budget_bytes = 1e12;
  Result<SearchResult> result =
      TopDownSearch(dag_, evaluator_.get(), options);
  ASSERT_TRUE(result.ok());
  std::set<int> chosen(result->chosen.begin(), result->chosen.end());
  std::vector<int> root_list = dag_.Roots();
  std::set<int> roots(root_list.begin(), root_list.end());
  EXPECT_EQ(chosen, roots);
}

TEST_F(SearchTest, TopDownRecommendsMoreGeneralConfigThanGreedy) {
  // At a budget generous enough for top-down to stay near the DAG roots,
  // its configuration is at least as general (wildcard-rich) as greedy's,
  // which gravitates to the exact, smallest-per-benefit indexes.
  SearchOptions options;
  options.space_budget_bytes = 8.0 * kBudget;
  Result<SearchResult> greedy =
      GreedyHeuristicSearch(evaluator_.get(), options);
  Result<SearchResult> topdown =
      TopDownSearch(dag_, evaluator_.get(), options);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(topdown.ok());
  auto generality = [&](const SearchResult& r) {
    double total = 0;
    for (int c : r.chosen) {
      total += static_cast<double>(
          candidates_[static_cast<size_t>(c)].def.pattern.WildcardCount());
    }
    return r.chosen.empty() ? 0.0
                            : total / static_cast<double>(r.chosen.size());
  };
  EXPECT_GE(generality(*topdown), generality(*greedy));
}

TEST_F(SearchTest, TinyBudgetYieldsSmallOrEmptyConfig) {
  SearchOptions options;
  options.space_budget_bytes = 16;  // Essentially nothing fits.
  for (auto search : {&GreedySearch, &GreedyHeuristicSearch}) {
    Result<SearchResult> result = (*search)(evaluator_.get(), options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(ChosenSize(*result), options.space_budget_bytes);
  }
  Result<SearchResult> topdown =
      TopDownSearch(dag_, evaluator_.get(), options);
  ASSERT_TRUE(topdown.ok());
  EXPECT_LE(ChosenSize(*topdown), options.space_budget_bytes);
}

TEST_F(SearchTest, BiggerBudgetNeverHurts) {
  SearchOptions small;
  small.space_budget_bytes = 8.0 * 1024;
  SearchOptions large;
  large.space_budget_bytes = 512.0 * 1024;
  Result<SearchResult> small_result =
      GreedyHeuristicSearch(evaluator_.get(), small);
  Result<SearchResult> large_result =
      GreedyHeuristicSearch(evaluator_.get(), large);
  ASSERT_TRUE(small_result.ok());
  ASSERT_TRUE(large_result.ok());
  EXPECT_GE(large_result->benefit, small_result->benefit - 1e-9);
}

TEST_F(SearchTest, TraceStringJoinsLines) {
  SearchResult result;
  result.trace = {"one", "two"};
  EXPECT_EQ(result.TraceString(), "one\ntwo\n");
}

}  // namespace
}  // namespace xia
