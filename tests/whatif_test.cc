#include <gtest/gtest.h>

#include "advisor/whatif.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

class WhatIfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
  }

  IndexDefinition Def(const std::string& pattern, ValueType type,
                      const std::string& name = "") {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    Result<PathPattern> p = ParsePathPattern(pattern);
    EXPECT_TRUE(p.ok());
    def.pattern = *p;
    def.type = type;
    return def;
  }

  Database db_;
  Workload workload_;
  CostModel cost_model_;
};

TEST_F(WhatIfTest, AddingIndexReducesEvaluatedCost) {
  WhatIfSession session(&db_, Catalog(), cost_model_);
  Result<EvaluateIndexesResult> before =
      session.EvaluateWorkload(workload_);
  ASSERT_TRUE(before.ok());

  Result<std::string> name = session.AddIndex(
      Def("/site/regions/namerica/item/quantity", ValueType::kDouble));
  ASSERT_TRUE(name.ok());
  EXPECT_FALSE(name->empty());
  EXPECT_EQ(session.session_indexes().size(), 1u);

  Result<EvaluateIndexesResult> after = session.EvaluateWorkload(workload_);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->total_weighted_cost, before->total_weighted_cost);
  EXPECT_TRUE(after->index_use_counts.count(*name));
}

TEST_F(WhatIfTest, DropRestoresPreviousCost) {
  WhatIfSession session(&db_, Catalog(), cost_model_);
  Result<EvaluateIndexesResult> baseline =
      session.EvaluateWorkload(workload_);
  ASSERT_TRUE(baseline.ok());
  Result<std::string> name = session.AddIndex(
      Def("/site/regions/africa/item/quantity", ValueType::kDouble));
  ASSERT_TRUE(name.ok());
  ASSERT_TRUE(session.DropIndex(*name).ok());
  EXPECT_TRUE(session.session_indexes().empty());
  Result<EvaluateIndexesResult> restored =
      session.EvaluateWorkload(workload_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_weighted_cost, baseline->total_weighted_cost);
}

TEST_F(WhatIfTest, ExplainSeesSessionIndexes) {
  WhatIfSession session(&db_, Catalog(), cost_model_);
  ASSERT_TRUE(session
                  .AddIndex(Def("/site/regions/africa/item/quantity",
                                ValueType::kDouble, "my_idx"))
                  .ok());
  Workload workload;
  ASSERT_TRUE(workload
                  .AddQueryText("for $i in doc(\"xmark\")/site/regions/"
                                "africa/item where $i/quantity > 5 "
                                "return $i/name")
                  .ok());
  Result<EvaluateIndexesResult> result = session.EvaluateWorkload(workload);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->plans.size(), 1u);
  const QueryPlan& plan = result->plans[0];
  ASSERT_TRUE(plan.access.use_index);
  EXPECT_EQ(plan.access.index_def.name, "my_idx");
  EXPECT_TRUE(plan.access.index_is_virtual);
}

TEST_F(WhatIfTest, AutoNamesAvoidCollisions) {
  WhatIfSession session(&db_, Catalog(), cost_model_);
  Result<std::string> a = session.AddIndex(
      Def("/site/regions/africa/item/quantity", ValueType::kDouble));
  Result<std::string> b = session.AddIndex(
      Def("/site/regions/africa/item/quantity", ValueType::kVarchar));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST_F(WhatIfTest, ErrorsSurfaceCleanly) {
  WhatIfSession session(&db_, Catalog(), cost_model_);
  // Unknown collection statistics.
  IndexDefinition bad = Def("/a/b", ValueType::kVarchar);
  bad.collection = "ghost";
  EXPECT_FALSE(session.AddIndex(bad).ok());
  // Dropping something that does not exist.
  EXPECT_FALSE(session.DropIndex("nope").ok());
  // Duplicate explicit name.
  ASSERT_TRUE(
      session.AddIndex(Def("/site/people/person", ValueType::kVarchar,
                           "dup"))
          .ok());
  EXPECT_FALSE(
      session.AddIndex(Def("/site/people/person/name", ValueType::kVarchar,
                           "dup"))
          .ok());
}

TEST_F(WhatIfTest, BaseCatalogIndexesCanBeHidden) {
  // Start from a base catalog holding one virtual index and hide it.
  Catalog base;
  IndexDefinition def =
      Def("/site/regions/africa/item/quantity", ValueType::kDouble, "base");
  VirtualIndexStats stats = EstimateVirtualIndex(
      *db_.synopsis("xmark"), def, cost_model_.storage);
  ASSERT_TRUE(base.AddVirtual(def, stats).ok());

  WhatIfSession session(&db_, base, cost_model_);
  Result<EvaluateIndexesResult> with = session.EvaluateWorkload(workload_);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(session.DropIndex("base").ok());
  Result<EvaluateIndexesResult> without =
      session.EvaluateWorkload(workload_);
  ASSERT_TRUE(without.ok());
  EXPECT_GT(without->total_weighted_cost, with->total_weighted_cost);
  // The original base catalog is untouched.
  EXPECT_NE(base.Find("base"), nullptr);
}

}  // namespace
}  // namespace xia
