#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "exec/executor.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "storage/buffer_pool.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

// ------------------------------------------------------------- LRU core.

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Touch(1);
  pool.Touch(2);
  pool.Touch(1);   // 1 is now most recent.
  pool.Touch(3);   // Evicts 2.
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_TRUE(pool.Touch(3));
  EXPECT_FALSE(pool.Touch(2));  // Was evicted.
  EXPECT_EQ(pool.size(), 2u);
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  BufferPool pool(0);
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolTest, ResetClearsEverything) {
  BufferPool pool(4);
  pool.Touch(1);
  pool.Touch(1);
  pool.Reset();
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Touch(1));  // Cold again.
}

// Regression: Reset() used to zero the live obs counters, silently
// erasing buffer-pool history from registry snapshots mid-run. The
// instance view starts over; the registry totals must not move backward.
TEST(BufferPoolTest, ResetKeepsRegistrySnapshotMonotonic) {
  BufferPool pool(4);
  pool.Touch(1);  // Miss.
  pool.Touch(1);  // Hit.
  pool.Touch(2);  // Miss.
  obs::Snapshot before = obs::Registry().TakeSnapshot();
  pool.Reset();
  obs::Snapshot after = obs::Registry().TakeSnapshot();
  for (const char* name :
       {"bufferpool.hits", "bufferpool.misses", "bufferpool.evictions"}) {
    EXPECT_GE(after.counter(name), before.counter(name)) << name;
  }
  // The instance view did start over...
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  // ...and keeps counting into both views afterwards.
  pool.Touch(3);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(obs::Registry().TakeSnapshot().counter("bufferpool.misses"),
            after.counter("bufferpool.misses") + 1);
}

TEST(BufferPoolTest, HitRatio) {
  BufferPool pool(8);
  EXPECT_EQ(pool.HitRatio(), 0.0);
  pool.Touch(1);
  pool.Touch(1);
  pool.Touch(1);
  pool.Touch(2);
  EXPECT_NEAR(pool.HitRatio(), 0.5, 1e-9);
}

TEST(BufferPoolTest, PageIdSpacesDisjoint) {
  // Document pages and index pages never collide.
  EXPECT_NE(DocPageId(3, 7), IndexPageId(3, 7));
  EXPECT_NE(DocPageId(0, 0), IndexPageId(0, 0));
  EXPECT_NE(DocPageId(1, 2), DocPageId(2, 1));
}

// ---------------------------------------------------- Executor coupling.

class BufferedExecutionTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", GetParam(), params, 42).ok());
    for (const auto& [name, pattern] :
         std::vector<std::pair<std::string, std::string>>{
             {"q_idx", "/site/regions/africa/item/quantity"},
             {"p_idx", "/site/regions/africa/item/price"}}) {
      IndexDefinition def;
      def.name = name;
      def.collection = "xmark";
      Result<PathPattern> p = ParsePathPattern(pattern);
      ASSERT_TRUE(p.ok());
      def.pattern = *p;
      def.type = ValueType::kDouble;
      Result<PathIndex> built = BuildIndex(db_, def);
      ASSERT_TRUE(built.ok());
      ASSERT_TRUE(catalog_
                      .AddPhysical(
                          std::make_shared<PathIndex>(std::move(*built)),
                          cost_model_.storage)
                      .ok());
    }
  }

  QueryPlan Plan(const std::string& text, const Catalog& catalog) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok());
    Optimizer opt(&db_, cost_model_);
    Result<QueryPlan> plan = opt.Optimize(*q, catalog, &cache_);
    EXPECT_TRUE(plan.ok());
    return std::move(*plan);
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
};

constexpr const char* kQuery =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

TEST_P(BufferedExecutionTest, SecondScanRunsWarm) {
  BufferPool pool(100000);
  Executor executor(&db_, &catalog_, cost_model_, &pool);
  Catalog empty;
  QueryPlan plan = Plan(kQuery, empty);
  Result<ExecResult> cold = executor.Execute(plan);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->buffer_misses, 0u);
  EXPECT_EQ(cold->buffer_hits, 0u);  // Nothing cached yet.
  Result<ExecResult> warm = executor.Execute(plan);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->buffer_misses, 0u);  // Everything cached.
  EXPECT_EQ(warm->buffer_hits, cold->buffer_misses);
}

TEST_P(BufferedExecutionTest, IndexPlanReadsFewerColdPagesThanScan) {
  // Selective predicate: very few africa items cost more than 495, so the
  // index plan only touches the handful of qualifying documents.
  const char* selective =
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/price > 495 return $i/name";
  Catalog empty;
  QueryPlan scan_plan = Plan(selective, empty);
  QueryPlan idx_plan = Plan(selective, catalog_);
  ASSERT_TRUE(idx_plan.access.use_index);

  BufferPool scan_pool(100000);
  Executor scan_exec(&db_, &catalog_, cost_model_, &scan_pool);
  Result<ExecResult> scan = scan_exec.Execute(scan_plan);
  ASSERT_TRUE(scan.ok());

  BufferPool idx_pool(100000);
  Executor idx_exec(&db_, &catalog_, cost_model_, &idx_pool);
  Result<ExecResult> idx = idx_exec.Execute(idx_plan);
  ASSERT_TRUE(idx.ok());

  EXPECT_LT(idx->buffer_misses, scan->buffer_misses);
  EXPECT_EQ(scan->nodes, idx->nodes);  // Caching never changes results.
}

TEST_P(BufferedExecutionTest, SmallPoolThrashes) {
  Catalog empty;
  QueryPlan plan = Plan(kQuery, empty);
  BufferPool tiny(4);
  Executor executor(&db_, &catalog_, cost_model_, &tiny);
  ASSERT_TRUE(executor.Execute(plan).ok());
  Result<ExecResult> second = executor.Execute(plan);
  ASSERT_TRUE(second.ok());
  // The scan touches far more pages than fit: the second run still
  // misses (sequential flooding defeats a tiny LRU).
  EXPECT_GT(second->buffer_misses, 0u);
}

TEST_P(BufferedExecutionTest, NoPoolReportsZeroCounters) {
  Executor executor(&db_, &catalog_, cost_model_);
  Catalog empty;
  Result<ExecResult> run = executor.Execute(Plan(kQuery, empty));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->buffer_hits, 0u);
  EXPECT_EQ(run->buffer_misses, 0u);
}

// Cold and warm physical reads for a scan and an index plan across pool
// sizes: the index plan reads fewer cold pages at every size, and a
// re-execution is fully warm whenever the pool holds the plan's working
// set. Prints one row per pool size and plan.
TEST_P(BufferedExecutionTest, PoolSizeSweepKeepsIndexAdvantage) {
  const char* query =
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/price > 480 return $i/name";
  Catalog empty;
  QueryPlan scan_plan = Plan(query, empty);
  QueryPlan idx_plan = Plan(query, catalog_);
  ASSERT_TRUE(idx_plan.access.use_index);
  std::printf("%-12s %-8s %12s %12s %12s\n", "pool(pages)", "plan",
              "cold-misses", "warm-misses", "warm-hits");
  for (size_t pool_pages : {64, 512, 4096, 100000}) {
    uint64_t cold_misses[2] = {0, 0};
    std::vector<NodeRef> nodes[2];
    for (bool use_index : {false, true}) {
      BufferPool pool(pool_pages);
      Executor executor(&db_, &catalog_, cost_model_, &pool);
      const QueryPlan& plan = use_index ? idx_plan : scan_plan;
      Result<ExecResult> cold = executor.Execute(plan);
      Result<ExecResult> warm = executor.Execute(plan);
      ASSERT_TRUE(cold.ok());
      ASSERT_TRUE(warm.ok());
      cold_misses[use_index] = cold->buffer_misses;
      nodes[use_index] = cold->nodes;
      if (cold->buffer_misses <= pool_pages) {
        EXPECT_EQ(warm->buffer_misses, 0u) << pool_pages << " " << use_index;
      }
      std::printf("%-12zu %-8s %12lu %12lu %12lu\n", pool_pages,
                  use_index ? "index" : "scan",
                  static_cast<unsigned long>(cold->buffer_misses),
                  static_cast<unsigned long>(warm->buffer_misses),
                  static_cast<unsigned long>(warm->buffer_hits));
    }
    EXPECT_LT(cold_misses[1], cold_misses[0]) << pool_pages;
    EXPECT_EQ(nodes[0], nodes[1]);
  }
}

// 30 documents is the buffer-pool table's database.
INSTANTIATE_TEST_SUITE_P(Docs, BufferedExecutionTest,
                         ::testing::Values(10, 30));

}  // namespace
}  // namespace xia
