// Index ANDing (IXAND) extension: two sargable probes on different
// predicates intersected before residual evaluation.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "exec/executor.h"
#include "index/index_builder.h"
#include "optimizer/explain.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class AndingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Enough data that the RID-intersection plan pays off.
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 60, params, 42).ok());
    Materialize("q_idx", "/site/regions/africa/item/quantity",
                ValueType::kDouble);
    Materialize("p_idx", "/site/regions/africa/item/price",
                ValueType::kDouble);
  }

  void Materialize(const std::string& name, const std::string& pattern,
                   ValueType type) {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = type;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog_
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model_.storage)
                    .ok());
  }

  Query Parse(const std::string& text) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
};

// Both predicates moderately selective (quantity > 8 keeps ~2/10,
// price < 100 keeps ~1/5) — the regime where intersecting two probes
// beats one probe plus residual evaluation. Under the histogram-backed
// estimator the margin is what matters: one highly selective predicate
// makes a single probe (with cheap residuals) win instead.
constexpr const char* kTwoPredicateQuery =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 8 and $i/price < 100 return $i/name";

TEST_F(AndingTest, OptimizerChoosesIxandWhenBothPredicatesSelective) {
  Optimizer opt(&db_, cost_model_);
  Result<QueryPlan> plan =
      opt.Optimize(Parse(kTwoPredicateQuery), catalog_, &cache_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->access.use_index);
  ASSERT_TRUE(plan->access.has_secondary);
  // Both probes are sargable on different predicates; all predicates
  // served, nothing residual.
  EXPECT_NE(plan->access.served_predicate,
            plan->access.secondary.served_predicate);
  EXPECT_TRUE(plan->residual_predicates.empty());
  EXPECT_NE(plan->access.ToString().find("IXAND"), std::string::npos);
}

TEST_F(AndingTest, IxandCheaperThanSingleIndexPlan) {
  Optimizer with_anding(&db_, cost_model_, OptimizerOptions{true});
  Optimizer without_anding(&db_, cost_model_, OptimizerOptions{false});
  Result<QueryPlan> anded =
      with_anding.Optimize(Parse(kTwoPredicateQuery), catalog_, &cache_);
  Result<QueryPlan> single =
      without_anding.Optimize(Parse(kTwoPredicateQuery), catalog_, &cache_);
  ASSERT_TRUE(anded.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(anded->access.has_secondary);
  EXPECT_FALSE(single->access.has_secondary);
  EXPECT_LT(anded->total_cost, single->total_cost);
}

// The selectivity sweep: a fixed price < 100 predicate against quantity
// thresholds from unselective to selective. Enabling IXAND never makes
// the optimizer's pick costlier than the best single probe, both plan
// shapes return identical rows, and the crossover is reached somewhere in
// the sweep. Prints one row per threshold; wall times are informational.
TEST_F(AndingTest, SelectivitySweepCrossover) {
  Optimizer with_anding(&db_, cost_model_, OptimizerOptions{true});
  Optimizer without_anding(&db_, cost_model_, OptimizerOptions{false});
  Executor executor(&db_, &catalog_, cost_model_);
  std::printf("%-28s %12s %12s %8s %10s %10s\n",
              "predicates (quantity,price)", "single-cost", "ixand-cost",
              "chosen", "single-us", "ixand-us");
  int ixand_chosen = 0;
  for (int q_threshold : {1, 3, 5, 7, 8, 9}) {
    std::string text =
        "for $i in doc(\"xmark\")/site/regions/africa/item where "
        "$i/quantity > " +
        std::to_string(q_threshold) + " and $i/price < 100 return $i/name";
    Query query = Parse(text);
    Result<QueryPlan> single =
        without_anding.Optimize(query, catalog_, &cache_);
    Result<QueryPlan> anded = with_anding.Optimize(query, catalog_, &cache_);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(anded.ok());
    EXPECT_LE(anded->total_cost, single->total_cost) << q_threshold;
    Result<ExecResult> single_run = executor.Execute(*single);
    Result<ExecResult> anded_run = executor.Execute(*anded);
    ASSERT_TRUE(single_run.ok());
    ASSERT_TRUE(anded_run.ok());
    EXPECT_EQ(single_run->nodes, anded_run->nodes) << q_threshold;
    if (anded->access.has_secondary) ++ixand_chosen;
    std::printf("%-28s %12.2f %12.2f %8s %10.1f %10.1f\n",
                ("quantity>" + std::to_string(q_threshold) + ", price<100")
                    .c_str(),
                single->total_cost, anded->total_cost,
                anded->access.has_secondary ? "IXAND" : "single",
                single_run->wall_micros, anded_run->wall_micros);
  }
  EXPECT_GE(ixand_chosen, 1);
}

TEST_F(AndingTest, DisabledOptionNeverProducesSecondary) {
  Optimizer opt(&db_, cost_model_, OptimizerOptions{false});
  Result<QueryPlan> plan =
      opt.Optimize(Parse(kTwoPredicateQuery), catalog_, &cache_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->access.has_secondary);
}

TEST_F(AndingTest, ExecutionParityWithScan) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kTwoPredicateQuery);
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  Result<QueryPlan> ixand_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ASSERT_TRUE(ixand_plan.ok());
  ASSERT_TRUE(ixand_plan->access.has_secondary);

  Executor executor(&db_, &catalog_, cost_model_);
  Result<ExecResult> scan_run = executor.Execute(*scan_plan);
  Result<ExecResult> ixand_run = executor.Execute(*ixand_plan);
  ASSERT_TRUE(scan_run.ok());
  ASSERT_TRUE(ixand_run.ok());
  EXPECT_EQ(scan_run->nodes, ixand_run->nodes);
  EXPECT_GT(scan_run->nodes.size(), 0u);
  EXPECT_LT(ixand_run->simulated_page_reads,
            scan_run->simulated_page_reads);
}

TEST_F(AndingTest, UsesIndexSeesBothProbes) {
  Optimizer opt(&db_, cost_model_);
  Result<QueryPlan> plan =
      opt.Optimize(Parse(kTwoPredicateQuery), catalog_, &cache_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->access.has_secondary);
  EXPECT_TRUE(plan->UsesIndex("q_idx"));
  EXPECT_TRUE(plan->UsesIndex("p_idx"));
  EXPECT_FALSE(plan->UsesIndex("other"));

  // Evaluate Indexes mode counts the IXAND plan against both probes.
  Result<EvaluateIndexesResult> evaluated = EvaluateIndexesMode(
      opt, {Parse(kTwoPredicateQuery)}, {}, catalog_, &cache_);
  ASSERT_TRUE(evaluated.ok());
  const std::map<std::string, int> expected = {{"p_idx", 1}, {"q_idx", 1}};
  EXPECT_EQ(evaluated->index_use_counts, expected);
}

TEST_F(AndingTest, SinglePredicateQueryNeverAnds) {
  Optimizer opt(&db_, cost_model_);
  Result<QueryPlan> plan = opt.Optimize(
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 7 return $i/name"),
      catalog_, &cache_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->access.has_secondary);
}

TEST_F(AndingTest, GeneralIndexesAndWithVerification) {
  // Replace exact indexes with generalized ones; the IXAND legs then
  // carry verification, and results must still match the scan.
  Catalog general;
  for (const auto& [name, pattern] :
       std::vector<std::pair<std::string, std::string>>{
           {"gq", "/site/regions/*/item/quantity"},
           {"gp", "/site/regions/*/item/price"}}) {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = ValueType::kDouble;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(general
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model_.storage)
                    .ok());
  }
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kTwoPredicateQuery);
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  Result<QueryPlan> idx_plan = opt.Optimize(q, general, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ASSERT_TRUE(idx_plan.ok());
  Executor executor(&db_, &general, cost_model_);
  Result<ExecResult> scan_run = executor.Execute(*scan_plan);
  Result<ExecResult> idx_run = executor.Execute(*idx_plan);
  ASSERT_TRUE(scan_run.ok());
  ASSERT_TRUE(idx_run.ok());
  EXPECT_EQ(scan_run->nodes, idx_run->nodes);
}

}  // namespace
}  // namespace xia
