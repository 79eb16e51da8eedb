#ifndef XIA_ADVISOR_SEARCH_GREEDY_H_
#define XIA_ADVISOR_SEARCH_GREEDY_H_

#include <string>
#include <vector>

#include "advisor/benefit.h"
#include "advisor/cost_cache.h"
#include "common/deadline.h"
#include "common/status.h"

namespace xia {

/// Search knobs shared by all three strategies. The deadline and token
/// make every strategy an *anytime* algorithm: polled at iteration
/// boundaries, and on expiry the search stops where it is and returns
/// its best-so-far configuration with SearchResult::stop_reason set.
/// Both default to inert (infinite deadline, never-cancelled token), in
/// which case the search runs byte-identically to an ungoverned one.
struct SearchOptions {
  double space_budget_bytes = 8.0 * 1024 * 1024;
  Deadline deadline = Deadline::Infinite();
  CancelToken cancel;
};

/// Outcome of a configuration search, including a step-by-step trace so
/// the demo (Figure 4) can show how each algorithm walked the space.
struct SearchResult {
  std::vector<int> chosen;  // Candidate indices of the recommendation.
  double total_size_bytes = 0;
  double workload_cost = 0;
  double update_cost = 0;
  double baseline_cost = 0;
  double benefit = 0;  // baseline - (workload + update).
  /// kConverged for a full search; kDeadline/kCancelled when the budget
  /// fired and `chosen` is the best configuration found so far.
  StopReason stop_reason = StopReason::kConverged;
  std::vector<std::string> trace;
  int evaluations = 0;
  /// Cost-cache / containment-cache counter snapshot taken when the
  /// search finished (cumulative over the evaluator's lifetime). The
  /// deterministic subset also lands in the trace tail.
  AdvisorCacheCounters counters;

  std::string TraceString() const;
};

/// Plain greedy 0/1-knapsack approximation, after the relational DB2
/// Design Advisor [Valentin et al., ICDE 2000]: rank candidates by
/// stand-alone benefit per byte and add them while they fit. Serves as the
/// baseline the paper's two strategies improve on — it happily picks
/// general indexes whose patterns are already covered, so some chosen
/// indexes may never be used by the optimizer.
Result<SearchResult> GreedySearch(ConfigurationEvaluator* evaluator,
                                  const SearchOptions& options);

/// Shared helper: total estimated size of a configuration.
double ConfigSizeBytes(const std::vector<CandidateIndex>& candidates,
                       const std::vector<int>& config);

/// True when either governance knob of `options` is live (finite deadline
/// or cancellable token). Governed searches trade the single-batch
/// evaluation plan for a chunked, interruptible one; ungoverned searches
/// keep the exact pre-governance batching so results stay bit-identical.
bool SearchGoverned(const SearchOptions& options);

/// Polls the governance knobs at an iteration boundary. kConverged means
/// "keep going"; cancellation wins over the deadline when both fired.
StopReason CheckInterrupt(const SearchOptions& options);

/// Appends the uniform budget-exhaustion trace line every strategy emits
/// when it stops early: where the budget ran out and what is kept.
void TraceEarlyStop(StopReason stop, const std::string& where,
                    SearchResult* result);

/// Governed EvaluateMany: evaluates a prefix of `configs` into
/// `*results` (aligned; unevaluated slots hold a Cancelled status) and
/// returns the prefix length. Ungoverned it is exactly one
/// EvaluateMany batch — bit-identical to pre-governance behavior —
/// otherwise it works in chunks, polling the knobs between chunks, and
/// sets `*stop` when the budget fires mid-batch.
size_t EvaluateManyPrefix(
    ConfigurationEvaluator* evaluator,
    const std::vector<std::vector<int>>& configs, const SearchOptions& options,
    std::vector<Result<ConfigurationEvaluator::Evaluation>>* results,
    StopReason* stop);

/// Shared prologue of every search strategy: appends the evaluator's
/// decomposition description to the trace. No-op in exact mode, so
/// pre-decomposition traces stay byte-identical.
void TraceDecomposition(const ConfigurationEvaluator& evaluator,
                        SearchResult* result);

/// Shared epilogue of every search strategy: fills `result->counters`
/// and closes the trace with the structured stats section — the
/// evaluator's deterministic obs::Snapshot (identical at any thread
/// count; tests/parallel_eval_test.cc).
void FinishSearchTrace(const ConfigurationEvaluator& evaluator,
                       SearchResult* result);

}  // namespace xia

#endif  // XIA_ADVISOR_SEARCH_GREEDY_H_
