#include "advisor/search_greedy.h"

#include <algorithm>

#include "common/string_util.h"

namespace xia {

std::string SearchResult::TraceString() const {
  std::string out;
  for (const std::string& line : trace) out += line + "\n";
  return out;
}

double ConfigSizeBytes(const std::vector<CandidateIndex>& candidates,
                       const std::vector<int>& config) {
  double total = 0;
  for (int c : config) {
    total += candidates[static_cast<size_t>(c)].size_bytes();
  }
  return total;
}

bool SearchGoverned(const SearchOptions& options) {
  return !options.deadline.infinite() || options.cancel.CanBeCancelled();
}

StopReason CheckInterrupt(const SearchOptions& options) {
  if (options.cancel.Cancelled()) return StopReason::kCancelled;
  if (options.deadline.Expired()) return StopReason::kDeadline;
  return StopReason::kConverged;
}

void TraceEarlyStop(StopReason stop, const std::string& where,
                    SearchResult* result) {
  result->trace.push_back(std::string("budget exhausted (") +
                          StopReasonName(stop) + ") " + where +
                          "; keeping best configuration so far");
}

size_t EvaluateManyPrefix(
    ConfigurationEvaluator* evaluator,
    const std::vector<std::vector<int>>& configs, const SearchOptions& options,
    std::vector<Result<ConfigurationEvaluator::Evaluation>>* results,
    StopReason* stop) {
  results->assign(configs.size(),
                  Status::Cancelled("not evaluated: search budget exhausted"));
  if (!SearchGoverned(options)) {
    // Ungoverned fast path: one batch, exactly the pre-anytime plan.
    // Chunking would also change cost-cache hit/miss counts (each chunk
    // re-looks-up plans the previous chunk inserted), which search traces
    // embed — so it is reserved for governed runs only.
    *results = evaluator->EvaluateMany(configs);
    return configs.size();
  }
  const size_t chunk =
      std::max<size_t>(4, static_cast<size_t>(evaluator->threads()) * 2);
  size_t done = 0;
  while (done < configs.size()) {
    StopReason reason = CheckInterrupt(options);
    if (reason != StopReason::kConverged) {
      *stop = reason;
      return done;
    }
    size_t end = std::min(configs.size(), done + chunk);
    std::vector<std::vector<int>> slice(configs.begin() + done,
                                        configs.begin() + end);
    std::vector<Result<ConfigurationEvaluator::Evaluation>> evals =
        evaluator->EvaluateMany(slice);
    for (size_t i = 0; i < evals.size(); ++i) {
      (*results)[done + i] = std::move(evals[i]);
    }
    done = end;
  }
  return done;
}

void TraceDecomposition(const ConfigurationEvaluator& evaluator,
                        SearchResult* result) {
  std::string line = evaluator.DescribeDecomposition();
  if (!line.empty()) result->trace.push_back(std::move(line));
}

void FinishSearchTrace(const ConfigurationEvaluator& evaluator,
                       SearchResult* result) {
  result->trace.push_back("stats:");
  for (const std::string& line :
       evaluator.DeterministicStats().TextLines("  ")) {
    result->trace.push_back(line);
  }
  result->counters = evaluator.cache_counters();
}

Result<SearchResult> GreedySearch(ConfigurationEvaluator* evaluator,
                                  const SearchOptions& options) {
  const std::vector<CandidateIndex>& candidates = evaluator->candidates();
  SearchResult result;
  TraceDecomposition(*evaluator, &result);
  XIA_ASSIGN_OR_RETURN(result.baseline_cost, evaluator->BaselineCost());

  // Stand-alone benefit of each candidate — one what-if evaluation per
  // candidate, fanned out over the evaluator's thread pool in one batch.
  struct Ranked {
    int candidate;
    double benefit;
    double ratio;
  };
  std::vector<std::vector<int>> singletons;
  for (size_t i = 0; i < candidates.size(); ++i) {
    singletons.push_back({static_cast<int>(i)});
  }
  StopReason stop = StopReason::kConverged;
  std::vector<Result<ConfigurationEvaluator::Evaluation>> evals;
  size_t scored =
      EvaluateManyPrefix(evaluator, singletons, options, &evals, &stop);
  std::vector<Ranked> ranked;
  for (size_t i = 0; i < scored; ++i) {
    if (!evals[i].ok() && evals[i].status().IsCancelled()) {
      // The token fired while the batch was in flight: treat the
      // candidate as unscored best-so-far material, not as a failure.
      if (stop == StopReason::kConverged) stop = StopReason::kCancelled;
      continue;
    }
    XIA_RETURN_IF_ERROR(evals[i].status());
    double benefit = result.baseline_cost - evals[i]->TotalCost();
    if (benefit <= 0) continue;
    double size = candidates[i].size_bytes();
    ranked.push_back(
        {static_cast<int>(i), benefit, benefit / std::max(size, 1.0)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.ratio > b.ratio; });
  if (stop != StopReason::kConverged) {
    TraceEarlyStop(stop,
                   "after scoring " + std::to_string(scored) + "/" +
                       std::to_string(singletons.size()) + " candidates",
                   &result);
  }

  double used = 0;
  for (const Ranked& r : ranked) {
    double size = candidates[static_cast<size_t>(r.candidate)].size_bytes();
    if (used + size > options.space_budget_bytes) {
      result.trace.push_back("skip " +
                             candidates[static_cast<size_t>(r.candidate)]
                                 .def.pattern.ToString() +
                             " (does not fit: " + FormatBytes(size) + ")");
      continue;
    }
    used += size;
    result.chosen.push_back(r.candidate);
    result.trace.push_back(
        "add  " +
        candidates[static_cast<size_t>(r.candidate)].def.pattern.ToString() +
        " benefit=" + FormatDouble(r.benefit) + " size=" +
        FormatBytes(size) + " used=" + FormatBytes(used));
  }

  // Closing evaluation is ungoverned: the best-so-far configuration must
  // be priced even when the stop was a cancellation.
  XIA_ASSIGN_OR_RETURN(ConfigurationEvaluator::Evaluation final_eval,
                       evaluator->EvaluateUngoverned(result.chosen));
  result.total_size_bytes = used;
  result.workload_cost = final_eval.workload_cost;
  result.update_cost = final_eval.update_cost;
  result.benefit = result.baseline_cost - final_eval.TotalCost();
  result.stop_reason = stop;
  result.evaluations = evaluator->num_evaluations();
  FinishSearchTrace(*evaluator, &result);
  return result;
}

}  // namespace xia
