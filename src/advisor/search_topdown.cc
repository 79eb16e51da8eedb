#include "advisor/search_topdown.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace xia {

namespace {

std::vector<int> WithReplacement(const std::vector<int>& config, int victim,
                                 const std::vector<int>& replacement) {
  std::set<int> next(config.begin(), config.end());
  next.erase(victim);
  for (int r : replacement) next.insert(r);
  return std::vector<int>(next.begin(), next.end());
}

}  // namespace

Result<SearchResult> TopDownSearch(const GeneralizationDag& dag,
                                   ConfigurationEvaluator* evaluator,
                                   const SearchOptions& options) {
  const std::vector<CandidateIndex>& candidates = evaluator->candidates();
  SearchResult result;
  TraceDecomposition(*evaluator, &result);
  XIA_ASSIGN_OR_RETURN(result.baseline_cost, evaluator->BaselineCost());

  std::vector<int> config = dag.Roots();
  result.trace.push_back("start with " + std::to_string(config.size()) +
                         " DAG roots, size " +
                         FormatBytes(ConfigSizeBytes(candidates, config)));

  StopReason stop = StopReason::kConverged;
  while (ConfigSizeBytes(candidates, config) >
             options.space_budget_bytes &&
         !config.empty()) {
    stop = CheckInterrupt(options);
    if (stop != StopReason::kConverged) break;
    Result<ConfigurationEvaluator::Evaluation> current =
        evaluator->Evaluate(config);
    if (!current.ok() && current.status().IsCancelled()) {
      stop = StopReason::kCancelled;
      break;
    }
    XIA_RETURN_IF_ERROR(current.status());
    double current_cost = current->TotalCost();

    struct Action {
      int victim = -1;
      std::vector<int> replacement;
      double cost_increase = 0;
      double space_saved = 0;
      double score = 0;  // cost increase per byte saved (lower = better).
    };

    // Enumerate every shrinking move of this round first, then evaluate
    // them in one parallel what-if batch. Selection scans the actions in
    // enumeration order with a strict '<', so ties resolve exactly as the
    // serial one-at-a-time loop resolved them.
    std::vector<Action> actions;
    std::vector<std::vector<int>> next_configs;
    for (int member : config) {
      const auto& node = dag.nodes()[static_cast<size_t>(member)];
      // Two possible moves per member: replace by its DAG children, or
      // drop it entirely.
      std::vector<std::vector<int>> replacements;
      if (!node.children.empty()) replacements.push_back(node.children);
      replacements.push_back({});  // Drop.
      for (const std::vector<int>& replacement : replacements) {
        std::vector<int> next = WithReplacement(config, member, replacement);
        double space_saved = ConfigSizeBytes(candidates, config) -
                             ConfigSizeBytes(candidates, next);
        if (space_saved <= 0) continue;  // Children larger: not a shrink.
        Action action;
        action.victim = member;
        action.replacement = replacement;
        action.space_saved = space_saved;
        actions.push_back(std::move(action));
        next_configs.push_back(std::move(next));
      }
    }
    std::vector<Result<ConfigurationEvaluator::Evaluation>> evals;
    size_t evaluated =
        EvaluateManyPrefix(evaluator, next_configs, options, &evals, &stop);
    std::optional<Action> best;
    for (size_t a = 0; a < evaluated; ++a) {
      if (!evals[a].ok() && evals[a].status().IsCancelled()) {
        if (stop == StopReason::kConverged) stop = StopReason::kCancelled;
        continue;
      }
      XIA_RETURN_IF_ERROR(evals[a].status());
      Action& action = actions[a];
      action.cost_increase = evals[a]->TotalCost() - current_cost;
      action.score = action.cost_increase / action.space_saved;
      if (!best.has_value() || action.score < best->score) {
        best = std::move(action);
      }
    }
    // On an interrupted round, applying the best *evaluated* move still
    // shrinks the configuration — strictly better than discarding the
    // round's work — and the loop head exits right after.
    if (stop != StopReason::kConverged && !best.has_value()) break;

    if (!best.has_value()) {
      // No shrinking move exists (degenerate); drop the largest member.
      auto largest = std::max_element(
          config.begin(), config.end(), [&](int a, int b) {
            return candidates[static_cast<size_t>(a)].size_bytes() <
                   candidates[static_cast<size_t>(b)].size_bytes();
          });
      result.trace.push_back(
          "drop " +
          candidates[static_cast<size_t>(*largest)].def.pattern.ToString() +
          " (no replacement shrinks the configuration)");
      config.erase(largest);
      continue;
    }

    std::string line =
        "replace " +
        candidates[static_cast<size_t>(best->victim)].def.pattern.ToString() +
        " -> {";
    for (size_t i = 0; i < best->replacement.size(); ++i) {
      if (i > 0) line += ", ";
      line += candidates[static_cast<size_t>(best->replacement[i])]
                  .def.pattern.ToString();
    }
    line += "} saves " + FormatBytes(best->space_saved) +
            ", cost delta " + FormatDouble(best->cost_increase);
    result.trace.push_back(std::move(line));
    config = WithReplacement(config, best->victim, best->replacement);
  }

  if (stop != StopReason::kConverged) {
    // The configuration may still be over budget: force it under without
    // further what-if work by dropping the largest members. Deterministic
    // and evaluation-free, so it completes no matter how little budget is
    // left; the per-byte quality of the drops is what the exhausted
    // budget paid for.
    while (!config.empty() && ConfigSizeBytes(candidates, config) >
                                  options.space_budget_bytes) {
      auto largest = std::max_element(
          config.begin(), config.end(), [&](int a, int b) {
            return candidates[static_cast<size_t>(a)].size_bytes() <
                   candidates[static_cast<size_t>(b)].size_bytes();
          });
      result.trace.push_back(
          "drop " +
          candidates[static_cast<size_t>(*largest)].def.pattern.ToString() +
          " (forced shrink: no budget left for what-if evaluation)");
      config.erase(largest);
    }
    TraceEarlyStop(stop,
                   "with " + std::to_string(config.size()) +
                       " index(es) remaining",
                   &result);
  }

  return FinishSearch(evaluator, std::move(config), stop, std::move(result),
                      /*trace_final_size=*/true);
}

}  // namespace xia
