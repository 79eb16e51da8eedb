#ifndef XIA_ADVISOR_ADVISOR_H_
#define XIA_ADVISOR_ADVISOR_H_

#include <string>
#include <vector>

#include "advisor/cost_cache.h"
#include "advisor/dag.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "advisor/search_greedy.h"
#include "common/deadline.h"
#include "common/status.h"
#include "index/catalog.h"
#include "optimizer/cost_model.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace xia {

/// Which configuration-search strategy the advisor runs (Section 2.3
/// offers the user the same choice).
enum class SearchAlgorithm { kGreedy, kGreedyHeuristic, kTopDown };

const char* SearchAlgorithmName(SearchAlgorithm algorithm);

/// Advisor inputs beyond the workload itself (paper Figure 1's "Input"
/// box: database, system information, disk space constraint).
struct AdvisorOptions {
  double space_budget_bytes = 8.0 * 1024 * 1024;
  SearchAlgorithm algorithm = SearchAlgorithm::kGreedyHeuristic;
  bool enable_generalization = true;   // Ablation B switch.
  bool account_update_cost = true;     // Ablation B switch.
  /// What-if fan-out width for configuration evaluation: 0 (default)
  /// uses std::thread::hardware_concurrency(); 1 runs the exact serial
  /// path. Recommendations are identical at every width — parallel
  /// evaluations merge per-query results in query order.
  int threads = 0;
  /// Per-query what-if cost memo (ConfigurationEvaluator, benefit.h):
  /// queries whose relevant-index set a configuration change cannot alter
  /// skip re-optimization. Recommendations and costs are bit-identical
  /// either way; this escape hatch exists for benchmarking and debugging.
  bool what_if_cost_cache = true;
  /// External hit/miss ledger to count this Recommend()'s cost-memo
  /// lookups on, instead of a per-Recommend one. Must outlive the
  /// Recommend() call. xia::server passes one instance to every advise
  /// so its `stats` add up all their what-if traffic. Only the counters
  /// are shared: the memo's keys are ids local to one Recommend(), so
  /// its entries stay private and die with it, and sharing the ledger
  /// never changes a result. When set, its enabled() flag overrides
  /// what_if_cost_cache.
  WhatIfCostCache* shared_cost_cache = nullptr;
  /// CoPhy-style atomic-benefit decomposition (advisor/benefit_table.h):
  /// when enabled (and the cost cache is on — decomposition needs its
  /// relevance bitmaps), Recommend() prices the benefit table before the
  /// search and scores configurations from it, cutting optimizer calls
  /// from O(configurations × queries) to O(queries + candidates). The
  /// promised benefit is asserted to stay within decompose.epsilon of
  /// the exact search's (tests/benefit_table_test.cc).
  DecomposeOptions decompose;
  /// Wall-clock budget for Recommend() in milliseconds; <= 0 means
  /// unlimited. The clock starts when Recommend() is entered and is
  /// polled at search iteration boundaries, so an expired budget yields
  /// the best configuration found so far (Recommendation::stop_reason ==
  /// kDeadline), never an error.
  int64_t time_budget_ms = 0;
  /// Cooperative cancellation: fire it from any thread (e.g. a UI's stop
  /// button) and the search winds down at the next iteration/task
  /// boundary, returning best-so-far with stop_reason == kCancelled. The
  /// default token is inert and costs one relaxed load per poll.
  CancelToken cancel;
  GeneralizeOptions generalize;
  CostModel cost_model;
};

/// The advisor's output (paper Figure 1's "Output" box), retaining every
/// intermediate artifact the demo displays: the basic candidates, the
/// expanded set, the generalization DAG, and the search trace.
struct Recommendation {
  std::vector<IndexDefinition> indexes;  // Final named definitions.
  double total_size_bytes = 0;
  double baseline_cost = 0;
  double recommended_cost = 0;  // Weighted workload cost under the config.
  double update_cost = 0;
  double benefit = 0;

  EnumerationResult enumeration;          // Basic candidate set.
  std::vector<CandidateIndex> candidates;  // Expanded (generalized) set.
  GeneralizationDag dag;
  SearchResult search;
  /// Mirror of search.stop_reason: kConverged for a full search,
  /// kDeadline/kCancelled when the budget fired and this recommendation
  /// is the valid best-so-far configuration, not a converged optimum.
  StopReason stop_reason = StopReason::kConverged;
  /// Decomposed-mode record: whether the atomic-benefit table backed the
  /// search, and what its pricing phase did (including whether the
  /// anytime budget truncated it to a best-so-far table).
  bool decomposed = false;
  BenefitPricingReport pricing;

  /// Human-readable report: recommended DDL + cost summary.
  std::string Report() const;
};

/// The XML Index Advisor: ties candidate enumeration, generalization, and
/// configuration search together against one database + catalog. This is
/// the client-side application of Figure 1; the "server side" it drives is
/// the optimizer's two EXPLAIN modes.
class Advisor {
 public:
  /// `db` and `base_catalog` must outlive the advisor. Collections
  /// referenced by workloads must be Analyze()d.
  Advisor(const Database* db, const Catalog* base_catalog,
          AdvisorOptions options);

  /// Runs the full recommendation pipeline for `workload`.
  Result<Recommendation> Recommend(const Workload& workload);

  const AdvisorOptions& options() const { return options_; }
  ContainmentCache* cache() { return &cache_; }

 private:
  const Database* db_;
  const Catalog* base_catalog_;
  AdvisorOptions options_;
  ContainmentCache cache_;
};

}  // namespace xia

#endif  // XIA_ADVISOR_ADVISOR_H_
