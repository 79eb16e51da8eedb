// Parallel-vs-serial equivalence: the advisor's what-if fan-out must be
// invisible in every observable output — evaluation costs, used-candidate
// sets, evaluation counts, and full recommendations are required to be
// bit-identical across thread counts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "common/failpoint.h"
#include "storage/collection_io.h"
#include "workload/workload_io.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class ParallelEvalTest : public ::testing::Test {
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

  /// A fresh evaluator with its own containment cache, at `threads`.
  struct Rig {
    std::unique_ptr<Optimizer> optimizer;
    std::unique_ptr<ContainmentCache> cache;
    std::unique_ptr<ConfigurationEvaluator> evaluator;
  };
  Rig MakeRig(int threads) {
    Rig rig;
    rig.optimizer = std::make_unique<Optimizer>(&db_, cost_model_);
    rig.cache = std::make_unique<ContainmentCache>();
    rig.evaluator = std::make_unique<ConfigurationEvaluator>(
        rig.optimizer.get(), &workload_, &base_catalog_, &candidates_,
        rig.cache.get(), /*account_update_cost=*/true, threads);
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

TEST_F(ParallelEvalTest, EvaluateIdenticalAcrossThreadCounts) {
  Rig serial = MakeRig(1);
  Rig parallel = MakeRig(4);
  EXPECT_EQ(serial.evaluator->threads(), 1);
  EXPECT_EQ(parallel.evaluator->threads(), 4);

  std::vector<std::vector<int>> configs = {
      {}, {0}, {1}, {2}, {0, 1}, {1, 4}, {0, 1, 2, 3, 4, 5}, {5, 3, 1}};
  for (const std::vector<int>& config : configs) {
    Result<ConfigurationEvaluator::Evaluation> s =
        serial.evaluator->Evaluate(config);
    Result<ConfigurationEvaluator::Evaluation> p =
        parallel.evaluator->Evaluate(config);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    ExpectIdentical(*s, *p);
  }
  EXPECT_EQ(serial.evaluator->num_evaluations(),
            parallel.evaluator->num_evaluations());
}

TEST_F(ParallelEvalTest, EvaluateManyMatchesSequentialEvaluate) {
  Rig sequential = MakeRig(1);
  Rig batched = MakeRig(4);

  std::vector<std::vector<int>> configs;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    configs.push_back({static_cast<int>(i)});
  }
  configs.push_back({0, 2, 4});
  configs.push_back({2, 0, 4});  // Duplicate after canonicalization.
  configs.push_back({});

  std::vector<Result<ConfigurationEvaluator::Evaluation>> batch =
      batched.evaluator->EvaluateMany(configs);
  ASSERT_EQ(batch.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    Result<ConfigurationEvaluator::Evaluation> expect =
        sequential.evaluator->Evaluate(configs[i]);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(batch[i].ok());
    ExpectIdentical(*expect, *batch[i]);
  }
  // Deduplicated batch performs exactly the sequential number of distinct
  // optimizations.
  EXPECT_EQ(batched.evaluator->num_evaluations(),
            sequential.evaluator->num_evaluations());
}

TEST_F(ParallelEvalTest, BaselineCostIdentical) {
  Rig serial = MakeRig(1);
  Rig parallel = MakeRig(4);
  Result<double> s = serial.evaluator->BaselineCost();
  Result<double> p = parallel.evaluator->BaselineCost();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*s, *p);
}

TEST_F(ParallelEvalTest, AdvisorRecommendationIdenticalAcrossThreads) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    Recommendation recs[2];
    int thread_counts[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      AdvisorOptions options;
      options.algorithm = algo;
      options.space_budget_bytes = 128.0 * 1024;
      options.threads = thread_counts[t];
      Advisor advisor(&db_, &base_catalog_, options);
      Result<Recommendation> rec = advisor.Recommend(workload_);
      ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
      recs[t] = std::move(*rec);
    }
    EXPECT_EQ(recs[0].search.chosen, recs[1].search.chosen)
        << SearchAlgorithmName(algo);
    EXPECT_EQ(recs[0].search.workload_cost, recs[1].search.workload_cost)
        << SearchAlgorithmName(algo);
    EXPECT_EQ(recs[0].search.update_cost, recs[1].search.update_cost);
    EXPECT_EQ(recs[0].search.baseline_cost, recs[1].search.baseline_cost);
    EXPECT_EQ(recs[0].search.evaluations, recs[1].search.evaluations)
        << SearchAlgorithmName(algo);
    EXPECT_EQ(recs[0].search.trace, recs[1].search.trace);
    ASSERT_EQ(recs[0].indexes.size(), recs[1].indexes.size());
    for (size_t i = 0; i < recs[0].indexes.size(); ++i) {
      EXPECT_EQ(recs[0].indexes[i].DdlString(), recs[1].indexes[i].DdlString());
    }
  }
}

// A failpoint tripping query k's what-if optimization must surface the
// SAME statuses and the SAME deterministic stats at threads 1 and 4:
// query k's injected error wins (lowest index), later queries are
// cancelled, and the partial evaluation/cache trace does not depend on
// scheduling.
TEST_F(ParallelEvalTest, InjectedFailureDeterministicAcrossThreads) {
  std::vector<std::vector<int>> configs = {
      {}, {0}, {1}, {0, 1}, {1, 4}, {0, 1, 2, 3, 4, 5}};
  fp::FailSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "injected: query 2 what-if failed";
  spec.match_arg = 2;  // Workload query index — scheduling-independent.
  fp::ScopedFailpoint armed("advisor.whatif.optimize", spec);

  std::vector<Result<ConfigurationEvaluator::Evaluation>> results[2];
  std::vector<std::string> stats[2];
  int thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    Rig rig = MakeRig(thread_counts[t]);
    results[t] = rig.evaluator->EvaluateMany(configs);
    stats[t] = rig.evaluator->DeterministicStats().TextLines("");
  }
  ASSERT_EQ(results[0].size(), configs.size());
  ASSERT_EQ(results[1].size(), configs.size());
  bool saw_injected = false;
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_EQ(results[0][i].ok(), results[1][i].ok()) << "config " << i;
    if (results[0][i].ok()) {
      ExpectIdentical(*results[0][i], *results[1][i]);
      continue;
    }
    // Identical status — code AND message — at both widths. The config
    // owning the first failing what-if task carries query 2's injected
    // error; configs whose tasks all come after it in the deduplicated
    // batch are deterministically kCancelled (sibling cancellation).
    EXPECT_EQ(results[0][i].status().code(), results[1][i].status().code())
        << "config " << i;
    EXPECT_EQ(results[0][i].status().message(),
              results[1][i].status().message())
        << "config " << i;
    if (results[0][i].status().code() == StatusCode::kInternal) {
      saw_injected = true;
      EXPECT_NE(results[0][i].status().message().find("injected"),
                std::string::npos);
    } else {
      EXPECT_TRUE(results[0][i].status().IsCancelled())
          << results[0][i].status().ToString();
    }
  }
  EXPECT_TRUE(saw_injected);
  // Partial trace: the deterministic counter snapshot (evaluations,
  // cost-cache hits/misses, memo hits) is byte-identical.
  EXPECT_EQ(stats[0], stats[1]);
}

// Mid-write failures must never leave a torn output file: writers go
// through a temp file and rename, so the destination either keeps its
// previous content or does not exist.
TEST_F(ParallelEvalTest, InjectedWriteFailureLeavesNoTornFiles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xia_torn_write_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Workload file: a good save first, then a failing overwrite.
  fs::path wpath = dir / "w.workload";
  ASSERT_TRUE(SaveWorkloadFile(workload_, wpath.string()).ok());
  std::string before = [&] {
    std::ifstream in(wpath);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  {
    fp::FailSpec spec;
    spec.code = StatusCode::kInternal;
    spec.message = "injected: disk full";
    fp::ScopedFailpoint armed("storage.workload_io.write", spec);
    Status failed = SaveWorkloadFile(workload_, wpath.string());
    EXPECT_FALSE(failed.ok());
  }
  std::string after = [&] {
    std::ifstream in(wpath);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  EXPECT_EQ(before, after);  // Previous content intact, not truncated.
  EXPECT_FALSE(fs::exists(wpath.string() + ".tmp"));  // No stray temp.

  // Collection directory: a failing save leaves no torn doc files.
  fs::path cdir = dir / "coll";
  {
    fp::FailSpec spec;
    spec.code = StatusCode::kInternal;
    spec.message = "injected: disk full";
    fp::ScopedFailpoint armed("storage.collection_io.write", spec);
    Status failed = SaveCollectionToDirectory(db_, "xmark", cdir.string());
    EXPECT_FALSE(failed.ok());
  }
  if (fs::exists(cdir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(cdir)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
      EXPECT_NE(entry.path().extension(), ".xml")
          << "torn document left behind: " << entry.path();
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xia
