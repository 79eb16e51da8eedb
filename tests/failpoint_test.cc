// xia::fp failpoint registry: arming semantics (codes, nth, arg
// matching, trip quotas, latency-only), the spec/env grammar, obs
// integration, and a sweep over the wired-in hooks proving injected
// faults surface as clean Statuses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "advisor/whatif.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "exec/executor.h"
#include "index/catalog.h"
#include "index/index_builder.h"
#include "storage/buffer_pool.h"
#include "storage/collection_io.h"
#include "storage/database.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

/// A function with a hook, standing in for any fallible layer.
Status GuardedOperation(int64_t arg = -1) {
  XIA_FAILPOINT_ARG("test.guarded_op", arg);
  return Status::Ok();
}

/// Every test starts and ends with nothing armed; trip counters are
/// process-cumulative (they survive Disarm by design), so tests measure
/// deltas.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::DisarmAll(); }
  void TearDown() override { fp::DisarmAll(); }
};

TEST_F(FailpointTest, DisarmedHookIsInvisible) {
  EXPECT_FALSE(fp::AnyArmed());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_TRUE(fp::ArmedNames().empty());
}

TEST_F(FailpointTest, ArmedHookReturnsConfiguredStatus) {
  uint64_t trips_before = fp::Trips("test.guarded_op");
  fp::FailSpec spec;
  spec.code = StatusCode::kNotFound;
  spec.message = "injected outage";
  fp::Arm("test.guarded_op", spec);
  EXPECT_TRUE(fp::AnyArmed());
  ASSERT_EQ(fp::ArmedNames(), std::vector<std::string>{"test.guarded_op"});

  Status status = GuardedOperation();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "injected outage");
  EXPECT_EQ(fp::Trips("test.guarded_op"), trips_before + 1);

  EXPECT_TRUE(fp::Disarm("test.guarded_op"));
  EXPECT_FALSE(fp::Disarm("test.guarded_op"));  // Already disarmed.
  EXPECT_TRUE(GuardedOperation().ok());
  // Trip totals survive disarm (retained obs counters).
  EXPECT_EQ(fp::Trips("test.guarded_op"), trips_before + 1);
}

TEST_F(FailpointTest, DefaultMessageNamesTheFailpoint) {
  fp::ScopedFailpoint armed("test.guarded_op", fp::FailSpec{});
  Status status = GuardedOperation();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("test.guarded_op"), std::string::npos);
}

TEST_F(FailpointTest, EveryNthTripsOnMultiplesOnly) {
  fp::FailSpec spec;
  spec.every_nth = 3;
  fp::ScopedFailpoint armed("test.guarded_op", spec);
  std::vector<bool> outcomes;
  for (int i = 0; i < 6; ++i) outcomes.push_back(GuardedOperation().ok());
  EXPECT_EQ(outcomes,
            (std::vector<bool>{true, true, false, true, true, false}));
}

TEST_F(FailpointTest, ArgMatchingIsSchedulingIndependent) {
  fp::FailSpec spec;
  spec.match_arg = 2;
  fp::ScopedFailpoint armed("test.guarded_op", spec);
  EXPECT_TRUE(GuardedOperation(0).ok());
  EXPECT_TRUE(GuardedOperation(1).ok());
  EXPECT_FALSE(GuardedOperation(2).ok());
  EXPECT_TRUE(GuardedOperation(3).ok());
  EXPECT_TRUE(GuardedOperation(-1).ok());  // No-arg hits don't match.
  EXPECT_FALSE(GuardedOperation(2).ok());  // Still armed: every match.
}

TEST_F(FailpointTest, TripQuotaStopsInjecting) {
  fp::FailSpec spec;
  spec.max_trips = 2;
  fp::ScopedFailpoint armed("test.guarded_op", spec);
  EXPECT_FALSE(GuardedOperation().ok());
  EXPECT_FALSE(GuardedOperation().ok());
  EXPECT_TRUE(GuardedOperation().ok());  // Quota exhausted.
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FailpointTest, LatencyOnlySleepsButNeverFails) {
  uint64_t trips_before = fp::Trips("test.guarded_op");
  fp::FailSpec spec;
  spec.code = StatusCode::kOk;
  spec.latency_ms = 1;
  fp::ScopedFailpoint armed("test.guarded_op", spec);
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_EQ(fp::Trips("test.guarded_op"), trips_before + 1);
}

TEST_F(FailpointTest, RearmResetsNthAndQuotaCounting) {
  fp::FailSpec spec;
  spec.every_nth = 2;
  fp::Arm("test.guarded_op", spec);
  EXPECT_TRUE(GuardedOperation().ok());   // Hit 1.
  fp::Arm("test.guarded_op", spec);       // Re-arm: counting restarts.
  EXPECT_TRUE(GuardedOperation().ok());   // Hit 1 again, not hit 2.
  EXPECT_FALSE(GuardedOperation().ok());  // Hit 2 trips.
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    fp::ScopedFailpoint armed("test.guarded_op", fp::FailSpec{});
    EXPECT_FALSE(GuardedOperation().ok());
  }
  EXPECT_FALSE(fp::AnyArmed());
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FailpointTest, TripsAppearInObsSnapshot) {
  fp::ScopedFailpoint armed("test.guarded_op", fp::FailSpec{});
  (void)GuardedOperation();
  obs::Snapshot snapshot = obs::Registry().TakeSnapshot();
  EXPECT_GE(snapshot.counter("failpoint.test.guarded_op.trips"), 1u);
  EXPECT_NE(snapshot.ToText("").find("failpoint.test.guarded_op.trips"),
            std::string::npos);
}

TEST_F(FailpointTest, ArmFromSpecGrammar) {
  ASSERT_TRUE(
      fp::ArmFromSpec("test.guarded_op=error:NotFound,arg:2,trips:1").ok());
  EXPECT_TRUE(GuardedOperation(0).ok());
  Status status = GuardedOperation(2);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(GuardedOperation(2).ok());  // trips:1 quota spent.

  // "off" disarms through the same grammar.
  ASSERT_TRUE(fp::ArmFromSpec("test.guarded_op=off").ok());
  EXPECT_FALSE(fp::AnyArmed());

  // sleep alone = latency-only (never fails).
  ASSERT_TRUE(fp::ArmFromSpec("test.guarded_op=sleep:1").ok());
  EXPECT_TRUE(GuardedOperation().ok());
  fp::DisarmAll();

  // Grammar violations are clean InvalidArguments, nothing gets armed.
  EXPECT_FALSE(fp::ArmFromSpec("no-equals-sign").ok());
  EXPECT_FALSE(fp::ArmFromSpec("=error").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=error:NoSuchCode").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=nth:0").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=arg:-1").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=trips:0").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=sleep:-1").ok());
  EXPECT_FALSE(fp::ArmFromSpec("x=bogus").ok());
  EXPECT_FALSE(fp::AnyArmed());
}

TEST_F(FailpointTest, ArmFromEnv) {
  ASSERT_EQ(
      setenv("XIA_FP_TEST", "test.guarded_op=error:OutOfRange; ;", 1), 0);
  ASSERT_TRUE(fp::ArmFromEnv("XIA_FP_TEST").ok());
  EXPECT_EQ(GuardedOperation().code(), StatusCode::kOutOfRange);
  fp::DisarmAll();

  ASSERT_EQ(setenv("XIA_FP_TEST", "garbage", 1), 0);
  EXPECT_FALSE(fp::ArmFromEnv("XIA_FP_TEST").ok());

  ASSERT_EQ(unsetenv("XIA_FP_TEST"), 0);
  EXPECT_TRUE(fp::ArmFromEnv("XIA_FP_TEST").ok());  // Missing var is OK.
  EXPECT_FALSE(fp::AnyArmed());
}

// ---- Wired-in hooks: injected faults surface as clean Statuses. ----

TEST_F(FailpointTest, CollectionIoHooksFire) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xia_failpoint_collection";
  fs::remove_all(dir);

  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.LoadXml("c", "<a><b>1</b></a>").ok());
  ASSERT_TRUE(SaveCollectionToDirectory(db, "c", dir.string()).ok());

  {
    fp::FailSpec spec;
    spec.code = StatusCode::kInternal;
    spec.message = "injected read error";
    fp::ScopedFailpoint armed("storage.collection_io.read", spec);
    Database reload;
    Result<size_t> loaded =
        LoadCollectionFromDirectory(&reload, "c", dir.string());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(), "injected read error");
  }
  {
    fp::ScopedFailpoint armed("storage.collection_io.write", fp::FailSpec{});
    EXPECT_FALSE(SaveCollectionToDirectory(db, "c", dir.string()).ok());
  }
  EXPECT_GE(fp::Trips("storage.collection_io.read"), 1u);
  EXPECT_GE(fp::Trips("storage.collection_io.write"), 1u);
  fs::remove_all(dir);
}

TEST_F(FailpointTest, BufferPoolFetchHookFires) {
  BufferPool pool(4);
  ASSERT_TRUE(pool.Fetch(7).ok());
  fp::FailSpec spec;
  spec.match_arg = 7;  // Hit argument is the page id.
  fp::ScopedFailpoint armed("storage.bufferpool.fetch", spec);
  EXPECT_TRUE(pool.Fetch(3).ok());
  EXPECT_FALSE(pool.Fetch(7).ok());
}

// The hook keeps its per-page meaning inside a multi-page run: a scan
// sends each document's pages to the pool as one run, and a trip at page
// k of that run fails the execution with pages [0, k) cached and pages
// [k, end) never touched.
TEST_F(FailpointTest, BufferPoolFetchHookFiresInsideARun) {
  Database db;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 1, XMarkParams(), 42).ok());
  const Document& doc = db.GetCollection("xmark")->doc(0);
  CostModel cost_model;
  uint32_t pages = static_cast<uint32_t>(std::ceil(
      static_cast<double>(doc.ByteSize()) /
      cost_model.storage.page_size_bytes));
  ASSERT_GE(pages, 3u);
  const uint32_t k = pages / 2;

  BufferPool pool(1024);  // Large enough that nothing is evicted.
  Catalog catalog;
  Executor executor(&db, &catalog, cost_model, &pool);
  QueryPlan plan;
  plan.query.collection = "xmark";  // No index: a collection scan.
  ASSERT_TRUE(fp::ArmFromSpec(
                  "storage.bufferpool.fetch=error:ResourceExhausted,arg:" +
                  std::to_string(DocPageId(0, k)))
                  .ok());
  Result<ExecResult> run = executor.Execute(plan);
  fp::DisarmAll();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.misses(), k);
  EXPECT_EQ(pool.size(), k);
  for (uint32_t p = 0; p < pages; ++p) {
    EXPECT_EQ(pool.Touch(DocPageId(0, p)), p < k) << "page " << p;
  }
}

TEST_F(FailpointTest, CatalogDdlHookFires) {
  fp::ScopedFailpoint armed("index.catalog.ddl", fp::FailSpec{});
  Catalog catalog;
  IndexDefinition def;
  def.name = "idx_x";
  def.collection = "c";
  EXPECT_FALSE(catalog.AddVirtual(def, VirtualIndexStats{}).ok());
  EXPECT_FALSE(catalog.Drop("idx_x").ok());
  EXPECT_GE(fp::Trips("index.catalog.ddl"), 2u);
}

TEST_F(FailpointTest, IndexBuilderHookFires) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.LoadXml("c", "<a><b>1</b></a>").ok());
  IndexDefinition def;
  def.name = "idx_b";
  def.collection = "c";
  fp::ScopedFailpoint armed("index.builder.build", fp::FailSpec{});
  EXPECT_FALSE(BuildIndex(db, def).ok());
}

TEST_F(FailpointTest, WhatIfEvaluateWorkloadHookFires) {
  Database db;
  WhatIfSession session(&db, Catalog{}, CostModel{});
  fp::FailSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  fp::ScopedFailpoint armed("advisor.whatif.evaluate_workload", spec);
  Result<EvaluateIndexesResult> result = session.EvaluateWorkload(Workload{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace xia
