#include "advisor/search_greedy_heuristic.h"

#include "common/string_util.h"

namespace xia {

Result<SearchResult> GreedyHeuristicSearch(ConfigurationEvaluator* evaluator,
                                           const SearchOptions& options) {
  const std::vector<CandidateIndex>& candidates = evaluator->candidates();
  SearchResult result;
  TraceDecomposition(*evaluator, &result);
  XIA_ASSIGN_OR_RETURN(result.baseline_cost, evaluator->BaselineCost());

  // Stand-alone benefits scored in one parallel what-if batch.
  StopReason stop = StopReason::kConverged;
  XIA_ASSIGN_OR_RETURN(std::vector<RankedCandidate> ranked,
                       RankSingletons(evaluator, options, &result, &stop));

  std::vector<int> chosen;
  Bitmap covered(evaluator->exprs().size());
  double used = 0;

  for (const RankedCandidate& r : ranked) {
    if (stop != StopReason::kConverged) break;  // Already traced above.
    stop = CheckInterrupt(options);
    if (stop != StopReason::kConverged) {
      TraceEarlyStop(stop,
                     "after choosing " + std::to_string(chosen.size()) +
                         " index(es)",
                     &result);
      break;
    }
    const CandidateIndex& cand =
        candidates[static_cast<size_t>(r.candidate)];
    double size = cand.size_bytes();
    if (used + size > options.space_budget_bytes) {
      result.trace.push_back("skip " + cand.def.pattern.ToString() +
                             " (does not fit)");
      continue;
    }
    // Redundancy heuristic: does this candidate cover any expression not
    // already covered by the chosen configuration?
    bool adds_coverage = false;
    for (size_t e = 0; e < evaluator->exprs().size(); ++e) {
      if (!covered.Test(e) && evaluator->Covers(r.candidate, e)) {
        adds_coverage = true;
        break;
      }
    }
    if (!adds_coverage) {
      result.trace.push_back("skip " + cand.def.pattern.ToString() +
                             " (redundant: all its expressions covered)");
      continue;
    }
    chosen.push_back(r.candidate);
    used += size;
    result.trace.push_back("add  " + cand.def.pattern.ToString() +
                           " benefit=" + FormatDouble(r.benefit) +
                           " size=" + FormatBytes(size) +
                           " used=" + FormatBytes(used));

    // Eager reclamation: drop chosen indexes the optimizer no longer uses.
    Result<ConfigurationEvaluator::Evaluation> reclaim =
        evaluator->Evaluate(chosen);
    if (!reclaim.ok() && reclaim.status().IsCancelled()) {
      // Token fired inside the evaluation: roll the speculative add back
      // and keep the last fully-evaluated configuration.
      chosen.pop_back();
      used -= size;
      result.trace.pop_back();  // Drop the now-unkept "add" line.
      stop = StopReason::kCancelled;
      TraceEarlyStop(stop,
                     "after choosing " + std::to_string(chosen.size()) +
                         " index(es)",
                     &result);
      break;
    }
    XIA_RETURN_IF_ERROR(reclaim.status());
    const ConfigurationEvaluator::Evaluation& eval = *reclaim;
    std::vector<int> still_used;
    for (int c : chosen) {
      if (eval.used_candidates.count(c) > 0) {
        still_used.push_back(c);
      } else {
        used -= candidates[static_cast<size_t>(c)].size_bytes();
        result.trace.push_back(
            "drop " +
            candidates[static_cast<size_t>(c)].def.pattern.ToString() +
            " (no longer used; space reclaimed)");
      }
    }
    chosen = std::move(still_used);
    // Recompute coverage from the surviving configuration.
    covered = evaluator->CoverageOf(chosen);
  }

  // The closing evaluation is memoized: free when already seen.
  return FinishSearch(evaluator, std::move(chosen), stop, std::move(result));
}

}  // namespace xia
