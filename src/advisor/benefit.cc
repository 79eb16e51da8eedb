#include "advisor/benefit.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/trace_span.h"
#include "index/index_matcher.h"

namespace xia {

std::string CandidateOverlayName(int candidate) {
  return "cand" + std::to_string(candidate);
}

std::optional<int> TryParseCandidateId(const std::string& name) {
  constexpr size_t kPrefixLen = 4;  // "cand"
  if (name.size() <= kPrefixLen || !StartsWith(name, "cand")) {
    return std::nullopt;
  }
  int64_t id = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + (c - '0');
    if (id > std::numeric_limits<int>::max()) return std::nullopt;
  }
  return static_cast<int>(id);
}

ConfigurationEvaluator::ConfigurationEvaluator(
    const Optimizer* optimizer, const Workload* workload,
    const Catalog* base_catalog, const std::vector<CandidateIndex>* candidates,
    ContainmentCache* cache, bool account_update_cost, int threads,
    bool use_cost_cache, WhatIfCostCache* shared_cost_cache)
    : optimizer_(optimizer),
      workload_(workload),
      base_catalog_(base_catalog),
      candidates_(candidates),
      cache_(cache),
      account_update_cost_(account_update_cost),
      threads_(ResolveThreadCount(threads)),
      owned_cost_cache_(shared_cost_cache ? nullptr
                                          : std::make_unique<WhatIfCostCache>(
                                                use_cost_cache)),
      cost_cache_(shared_cost_cache ? shared_cost_cache
                                    : owned_cost_cache_.get()),
      cost_memo_(cost_cache_) {
  // Build the workload expression table: driving paths + predicates.
  for (size_t qi = 0; qi < workload_->queries().size(); ++qi) {
    const NormalizedQuery& nq = workload_->queries()[qi].normalized;
    WorkloadExpr for_expr;
    for_expr.query = static_cast<int>(qi);
    for_expr.pattern = nq.for_path;
    for_expr.implied_type = ValueType::kVarchar;
    for_expr.sargable_op = false;
    exprs_.push_back(std::move(for_expr));
    for (const QueryPredicate& pred : nq.predicates) {
      WorkloadExpr expr;
      expr.query = static_cast<int>(qi);
      expr.pattern = pred.pattern;
      expr.implied_type = pred.ImpliedType();
      expr.sargable_op =
          pred.op == CompareOp::kEq || pred.op == CompareOp::kLt ||
          pred.op == CompareOp::kLe || pred.op == CompareOp::kGt ||
          pred.op == CompareOp::kGe;
      exprs_.push_back(std::move(expr));
    }
  }
  if (!cost_cache_->enabled()) return;

  // Precompute the cost-memo inputs up front: each query's fingerprint
  // class (repeated workload queries share cost records) and the
  // per-candidate × per-query match bitmap. Relevance uses the MATCHER's
  // semantics (IndexMatcher::CanServe) rather than Covers(): Covers is
  // the heuristic-search coverage notion and deliberately ignores, e.g.,
  // a VARCHAR index structurally serving a sargable predicate — which
  // absolutely can change the optimizer's plan.
  const std::vector<Query>& queries = workload_->queries();
  distinct_query_.resize(queries.size());
  std::unordered_map<std::string, int> fingerprint_ids;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::string fp = QueryFingerprint(queries[qi].normalized);
    int next_id = static_cast<int>(fingerprint_ids.size());
    distinct_query_[qi] =
        fingerprint_ids.emplace(std::move(fp), next_id).first->second;
  }
  IndexMatcher matcher(cache_);
  relevant_.reserve(candidates_->size());
  for (const CandidateIndex& cand : *candidates_) {
    Bitmap bits(queries.size());
    // Equal-fingerprint queries get identical verdicts by definition;
    // compute once per class.
    std::vector<signed char> per_class(fingerprint_ids.size(), -1);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      signed char& verdict = per_class[static_cast<size_t>(
          distinct_query_[qi])];
      if (verdict < 0) {
        verdict =
            matcher.CanServe(queries[qi].normalized, cand.def) ? 1 : 0;
      }
      if (verdict == 1) bits.Set(qi);
    }
    relevant_.push_back(std::move(bits));
  }
}

ThreadPool* ConfigurationEvaluator::pool() {
  if (threads_ <= 1) return nullptr;
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return pool_.get();
}

ThreadPool* ConfigurationEvaluator::PlanTaskPool(size_t tasks) {
  // A minimal-overlay optimization runs in tens of microseconds; below a
  // few tasks per worker the pool dispatch (plus a possible first-use
  // thread spawn) costs more than it buys, so run the batch serially.
  if (tasks < static_cast<size_t>(threads_) * 4) return nullptr;
  return pool();
}

bool ConfigurationEvaluator::Covers(int candidate, size_t expr_index) {
  const CandidateIndex& cand =
      (*candidates_)[static_cast<size_t>(candidate)];
  const WorkloadExpr& expr = exprs_[expr_index];
  const NormalizedQuery& nq =
      workload_->queries()[static_cast<size_t>(expr.query)].normalized;
  if (cand.def.collection != nq.collection) return false;
  // Type gate: a sargable expression counts as covered only by an index
  // that can serve it sargably (matching key type); non-sargable
  // expressions need a lossless (VARCHAR) index for structural service.
  // Structural coverage of a sargable expression deliberately does NOT
  // count — otherwise a cheap VARCHAR index would make the better DOUBLE
  // candidate look redundant to the heuristic.
  bool type_ok = expr.sargable_op
                     ? cand.def.type == expr.implied_type
                     : cand.def.type == ValueType::kVarchar;
  if (!type_ok) return false;
  return cache_->Contains(cand.def.pattern, expr.pattern);
}

Bitmap ConfigurationEvaluator::CoverageOf(const std::vector<int>& config) {
  Bitmap covered(exprs_.size());
  for (size_t e = 0; e < exprs_.size(); ++e) {
    for (int c : config) {
      if (Covers(c, e)) {
        covered.Set(e);
        break;
      }
    }
  }
  return covered;
}

double ConfigurationEvaluator::EstimateUpdateCost(
    const std::vector<int>& config) const {
  if (!account_update_cost_) return 0.0;
  double total = 0;
  const CostModel& cm = optimizer_->cost_model();
  for (const UpdateOp& op : workload_->updates()) {
    const PathSynopsis* synopsis = optimizer_->db().synopsis(op.collection);
    if (synopsis == nullptr) continue;
    double target_count = synopsis->EstimateCount(op.target);
    for (int ci : config) {
      const CandidateIndex& cand = (*candidates_)[static_cast<size_t>(ci)];
      if (cand.def.collection != op.collection) continue;
      double overlap =
          synopsis->EstimateSubtreeOverlap(op.target, cand.def.pattern);
      // Entries touched per executed update: the overlap amortized over
      // target instances (inserting one subtree touches its share of keys).
      double per_instance =
          target_count > 0 ? overlap / target_count : overlap;
      total += op.weight * cm.UpdateMaintenanceCost(per_instance);
    }
  }
  return total;
}

std::pair<std::string, std::vector<int>> ConfigurationEvaluator::CanonicalKey(
    const std::vector<int>& config) {
  std::vector<int> sorted = config;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  for (int c : sorted) key += std::to_string(c) + ",";
  return {std::move(key), std::move(sorted)};
}

namespace {

// Per-query what-if failpoint (see common/failpoint.h). The hit argument
// is the workload query index, so a FailSpec with match_arg = k injects
// the failure into query k's optimization regardless of which thread or
// batch position happens to run it — the key to scheduling-independent
// fault-injection tests.
Result<QueryPlan> OptimizeWithFailpoint(
    size_t query_index, const std::function<Result<QueryPlan>()>& optimize) {
  XIA_FAILPOINT_ARG("advisor.whatif.optimize",
                    static_cast<int64_t>(query_index));
  return optimize();
}

/// Cost-memo key of one (query class, relevant candidate set) pair: the
/// raw bytes of the ids. The ids are this evaluator's own numbering —
/// the same pair means a different query and index set in any other
/// evaluator — which is why the memo never outlives its evaluator.
std::string MemoKey(int query_class, const std::vector<int>& relevant) {
  std::string key(reinterpret_cast<const char*>(&query_class), sizeof(int));
  key.append(reinterpret_cast<const char*>(relevant.data()),
             sizeof(int) * relevant.size());
  return key;
}

/// The part of a plan an Evaluation reads.
CostRecord RecordFromPlan(const QueryPlan& plan) {
  CostRecord record;
  record.total_cost = plan.total_cost;
  if (!plan.access.use_index) return record;
  auto id = [](const std::string& name) {
    return TryParseCandidateId(name).value_or(-1);
  };
  record.candidates[0] = id(plan.access.index_def.name);
  if (plan.access.has_secondary) {
    record.candidates[1] = id(plan.access.secondary.index_def.name);
  }
  return record;
}

}  // namespace

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateUncached(const std::vector<int>& sorted,
                                         bool parallel_queries,
                                         bool honor_cancel) {
  // Only reached when the cost cache is disabled: every query of this
  // configuration re-optimizes, and each skipped lookup is a bypass.
  cost_cache_->AddBypasses(workload_->queries().size());

  // Build the overlay: base catalog + the configuration as virtual
  // indexes, reusing the candidates' precomputed statistics. The overlay
  // is written here, then only read by the concurrent optimizations.
  Catalog overlay = *base_catalog_;
  for (int ci : sorted) {
    const CandidateIndex& cand = (*candidates_)[static_cast<size_t>(ci)];
    IndexDefinition def = cand.def;
    def.name = CandidateOverlayName(ci);
    XIA_RETURN_IF_ERROR(overlay.AddVirtual(std::move(def), cand.stats));
  }

  // Optimize every query into its own slot, then merge in query order so
  // the floating-point sum (and therefore every downstream search
  // decision) is independent of scheduling.
  const std::vector<Query>& queries = workload_->queries();
  std::vector<Result<QueryPlan>> plans(queries.size(),
                                       Status::Internal("not evaluated"));
  ParallelForCancellable(
      parallel_queries ? pool() : nullptr, queries.size(),
      [&](size_t qi) {
        if (honor_cancel && cancel_.Cancelled()) {
          plans[qi] = Status::Cancelled("what-if optimization cancelled");
          return true;  // External cancel, not the deterministic failure.
        }
        plans[qi] = OptimizeWithFailpoint(qi, [&] {
          return optimizer_->Optimize(queries[qi], overlay, cache_);
        });
        return plans[qi].ok();
      },
      [&](size_t qi) {
        plans[qi] = Status::Cancelled(
            "cancelled: a lower-indexed what-if optimization failed first");
      });

  // Merging in query order also propagates the LOWEST failing query's
  // status — the deterministic first error.
  Evaluation eval;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    XIA_RETURN_IF_ERROR(plans[qi].status());
    const QueryPlan& plan = *plans[qi];
    eval.per_query_cost.push_back(plan.total_cost);
    eval.workload_cost += queries[qi].weight * plan.total_cost;
    RecordUsedCandidates(sorted, RecordFromPlan(plan), &eval);
  }
  eval.update_cost = EstimateUpdateCost(sorted);
  return eval;
}

void ConfigurationEvaluator::RecordUsedCandidates(
    const std::vector<int>& sorted, const CostRecord& record,
    Evaluation* eval) {
  // An access path names a configuration candidate iff its name parses as
  // "cand<N>" AND N is one of the overlay ids this evaluation actually
  // added (`sorted` is sorted — CanonicalKey). Plans may equally well pick
  // a physical base-catalog index whose name is arbitrary ("idx_price",
  // "candelabra", even "cand7extra"); those are not candidates and must
  // not be counted — the old std::stoi parse threw on the former and
  // silently credited candidate 7 for the latter.
  for (int id : record.candidates) {
    if (id >= 0 && std::binary_search(sorted.begin(), sorted.end(), id)) {
      eval->used_candidates.insert(id);
    }
  }
}

void ConfigurationEvaluator::CollectPlanTasks(
    const std::vector<int>& sorted, std::vector<const CostRecord*>& records,
    std::vector<int>& plan_source, std::vector<PlanTask>& tasks,
    std::unordered_map<std::string, size_t>& task_index) {
  const std::vector<Query>& queries = workload_->queries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // The query's relevance signature under this configuration: the
    // (already sorted, deduplicated) candidate ids whose patterns can
    // produce an index match for it. Candidate ids are stable identities
    // within this evaluator — id determines definition, overlay name
    // ("cand<i>"), and precomputed statistics — and the base catalog is
    // fixed, so the signature pins the optimizer input exactly.
    PlanTask task;
    task.query = qi;
    for (int c : sorted) {
      if (relevant_[static_cast<size_t>(c)].Test(qi)) {
        task.relevant.push_back(c);
      }
    }
    task.key = MemoKey(distinct_query_[qi], task.relevant);
    // Equal fingerprints guarantee equal plans, hence equal records.
    records[qi] = cost_memo_.Lookup(task.key);
    if (records[qi] != nullptr) {
      plan_source[qi] = -1;
      continue;
    }
    auto [it, inserted] = task_index.emplace(task.key, tasks.size());
    if (inserted) tasks.push_back(std::move(task));
    plan_source[qi] = static_cast<int>(it->second);
  }
}

Result<QueryPlan> ConfigurationEvaluator::OptimizeRelevant(
    const PlanTask& task) const {
  // Minimal overlay: base catalog + ONLY the signature's candidates.
  // Correctness (the signature-equality ⇒ identical-input argument): the
  // optimizer reads a catalog solely through IndexesFor + IndexMatcher::
  // Match, and a candidate outside the signature emits no match for this
  // query by construction (CanServe false), so dropping it leaves the
  // match list — and the relative name order of the remaining entries,
  // since Catalog iterates a name-ordered map — byte-identical to any
  // configuration containing the same relevant set. Identical matches
  // mean identical plan enumeration, float-for-float.
  Catalog overlay = *base_catalog_;
  for (int ci : task.relevant) {
    const CandidateIndex& cand = (*candidates_)[static_cast<size_t>(ci)];
    IndexDefinition def = cand.def;
    def.name = CandidateOverlayName(ci);
    XIA_RETURN_IF_ERROR(overlay.AddVirtual(std::move(def), cand.stats));
  }
  return optimizer_->Optimize(workload_->queries()[task.query], overlay,
                              cache_);
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::AssembleFromRecords(
    const std::vector<int>& sorted,
    const std::vector<const CostRecord*>& records,
    const std::vector<int>& plan_source,
    const std::vector<Result<CostRecord>>& task_records) {
  const std::vector<Query>& queries = workload_->queries();
  Evaluation eval;
  eval.per_query_cost.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const CostRecord* record = records[qi];
    if (plan_source[qi] >= 0) {
      const Result<CostRecord>& computed =
          task_records[static_cast<size_t>(plan_source[qi])];
      XIA_RETURN_IF_ERROR(computed.status());
      record = &*computed;
    }
    eval.per_query_cost.push_back(record->total_cost);
    eval.workload_cost += queries[qi].weight * record->total_cost;
    RecordUsedCandidates(sorted, *record, &eval);
  }
  eval.update_cost = EstimateUpdateCost(sorted);
  num_evaluations_.Increment();
  return eval;
}

void ConfigurationEvaluator::RunPlanTasks(
    const std::vector<PlanTask>& tasks, ThreadPool* task_pool,
    bool honor_cancel, std::vector<Result<CostRecord>>* task_records) {
  ParallelForCancellable(
      task_pool, tasks.size(),
      [&](size_t ti) {
        if (honor_cancel && cancel_.Cancelled()) {
          (*task_records)[ti] =
              Status::Cancelled("what-if optimization cancelled");
          return true;  // External cancel, not the deterministic failure.
        }
        Result<QueryPlan> plan = OptimizeWithFailpoint(
            tasks[ti].query, [&] { return OptimizeRelevant(tasks[ti]); });
        if (!plan.ok()) {
          (*task_records)[ti] = plan.status();
          return false;
        }
        (*task_records)[ti] = RecordFromPlan(*plan);
        return true;
      },
      [&](size_t ti) {
        (*task_records)[ti] = Status::Cancelled(
            "cancelled: a lower-indexed what-if task failed first");
      });
  // Insert surviving records serially. Only tasks below the lowest
  // failure hold records (stragglers were normalized to Cancelled above),
  // so the costcache.entries gauge depends on the failure point alone,
  // never on scheduling.
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    if ((*task_records)[ti].ok()) {
      cost_memo_.Insert(tasks[ti].key, *(*task_records)[ti]);
    }
  }
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateWithCostCache(const std::vector<int>& sorted,
                                              bool parallel_tasks,
                                              bool honor_cancel) {
  const size_t num_queries = workload_->queries().size();
  std::vector<const CostRecord*> records(num_queries, nullptr);
  std::vector<int> plan_source(num_queries, -1);
  std::vector<PlanTask> tasks;
  std::unordered_map<std::string, size_t> task_index;
  CollectPlanTasks(sorted, records, plan_source, tasks, task_index);

  std::vector<Result<CostRecord>> task_records(
      tasks.size(), Status::Internal("not evaluated"));
  RunPlanTasks(tasks, parallel_tasks ? PlanTaskPool(tasks.size()) : nullptr,
               honor_cancel, &task_records);
  return AssembleFromRecords(sorted, records, plan_source, task_records);
}

AdvisorCacheCounters ConfigurationEvaluator::cache_counters() const {
  AdvisorCacheCounters counters;
  counters.cost = cost_memo_.stats();
  counters.containment = cache_->stats();
  if (decomposed()) counters.benefit = benefit_table_->stats();
  return counters;
}

obs::Snapshot ConfigurationEvaluator::DeterministicStats() const {
  obs::Snapshot snap;
  CostCacheStats cost = cost_memo_.stats();
  snap.counters["advisor.evaluations"] = num_evaluations_.Value();
  snap.counters["advisor.memo_hits"] = memo_hits_.Value();
  snap.counters["costcache.hits"] = cost.hits;
  snap.counters["costcache.misses"] = cost.misses;
  snap.counters["costcache.bypasses"] = cost.bypasses;
  snap.gauges["costcache.entries"] = static_cast<int64_t>(cost.entries);
  snap.gauges["containment.entries"] =
      static_cast<int64_t>(cache_->stats().entries);
  if (decomposed()) {
    // Only in decomposed mode, so exact-mode traces stay byte-identical
    // to every pre-decomposition run. All four counters advance in the
    // serial collect/insert phases — thread-count deterministic.
    BenefitTableStats benefit = benefit_table_->stats();
    snap.counters["benefit.priced"] = benefit.priced;
    snap.counters["benefit.table_hits"] = benefit.table_hits;
    snap.counters["benefit.composed"] = benefit.composed;
    snap.counters["benefit.fallback_whatifs"] = benefit.fallback_whatifs;
    snap.gauges["benefit.entries"] = static_cast<int64_t>(benefit.entries);
  }
  return snap;
}

Result<ConfigurationEvaluator::Evaluation> ConfigurationEvaluator::Evaluate(
    const std::vector<int>& config) {
  return EvaluateImpl(config, /*honor_cancel=*/true,
                      /*use_table=*/decomposed());
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateUngoverned(const std::vector<int>& config) {
  // Always exact, even in decomposed mode: the closing evaluation must
  // report the real optimizer cost of the chosen configuration, not a
  // composed bound — the promised benefit stays honest.
  return EvaluateImpl(config, /*honor_cancel=*/false, /*use_table=*/false);
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateImpl(const std::vector<int>& config,
                                     bool honor_cancel, bool use_table) {
  XIA_SPAN("advisor.evaluate");
  auto [key, sorted] = CanonicalKey(config);
  if (use_table) key.insert(0, "d:");
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      memo_hits_.Increment();
      return it->second;
    }
  }
  if (honor_cancel && cancel_.Cancelled()) {
    return Status::Cancelled("configuration evaluation cancelled");
  }
  Result<Evaluation> evaluated =
      use_table ? EvaluateDecomposed(sorted, honor_cancel)
      : cost_cache_->enabled()
          ? EvaluateWithCostCache(sorted, /*parallel_tasks=*/true,
                                  honor_cancel)
          : EvaluateUncached(sorted, /*parallel_queries=*/true, honor_cancel);
  XIA_ASSIGN_OR_RETURN(Evaluation eval, std::move(evaluated));
  // The uncached path defers its evaluation count to this serial point
  // (the cost-cache path counts inside AssembleFromPlans, also serial).
  if (!use_table && !cost_cache_->enabled()) num_evaluations_.Increment();
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.emplace(std::move(key), std::move(eval)).first->second;
}

std::vector<Result<ConfigurationEvaluator::Evaluation>>
ConfigurationEvaluator::EvaluateMany(
    const std::vector<std::vector<int>>& configs) {
  XIA_SPAN("advisor.evaluate_many");
  std::vector<Result<Evaluation>> results(configs.size(),
                                          Status::Internal("not evaluated"));
  // Resolve memo hits and deduplicate the misses, so each distinct
  // configuration is optimized exactly once — num_evaluations() advances
  // exactly as the equivalent sequence of Evaluate() calls would.
  struct Miss {
    std::string key;
    std::vector<int> sorted;
    Result<Evaluation> result = Status::Internal("not evaluated");
  };
  std::vector<Miss> misses;
  std::unordered_map<std::string, size_t> miss_index;
  std::vector<size_t> result_to_miss(configs.size(), SIZE_MAX);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t i = 0; i < configs.size(); ++i) {
      auto [key, sorted] = CanonicalKey(configs[i]);
      if (decomposed()) key.insert(0, "d:");
      auto hit = memo_.find(key);
      if (hit != memo_.end()) {
        memo_hits_.Increment();
        results[i] = hit->second;
        continue;
      }
      auto [it, inserted] = miss_index.emplace(key, misses.size());
      if (inserted) {
        misses.push_back(Miss{std::move(key), std::move(sorted)});
      }
      result_to_miss[i] = it->second;
    }
  }

  if (decomposed()) {
    // Decomposed batch path: the same serial-collect / parallel-run /
    // serial-assemble shape as the cost-cache path below, with the
    // benefit table resolving most queries before any task is created.
    // Fallback tasks are deduplicated across the whole batch and counted
    // once, in this serial phase.
    const size_t num_queries = workload_->queries().size();
    std::vector<PlanTask> tasks;
    std::unordered_map<std::string, size_t> task_index;
    std::vector<std::vector<BenefitEntry>> miss_entries(misses.size());
    std::vector<std::vector<char>> miss_from_table(misses.size());
    std::vector<std::vector<const CostRecord*>> miss_records(misses.size());
    std::vector<std::vector<int>> miss_plan_source(misses.size());
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      miss_entries[mi].resize(num_queries);
      miss_from_table[mi].assign(num_queries, 0);
      miss_records[mi].assign(num_queries, nullptr);
      miss_plan_source[mi].assign(num_queries, -1);
      CollectDecomposedWork(misses[mi].sorted, miss_entries[mi],
                            miss_from_table[mi], miss_records[mi],
                            miss_plan_source[mi], tasks, task_index);
    }
    benefit_table_->CountFallbackWhatIfs(tasks.size());
    std::vector<Result<CostRecord>> task_records(
        tasks.size(), Status::Internal("not evaluated"));
    RunPlanTasks(tasks, PlanTaskPool(tasks.size()), /*honor_cancel=*/true,
                 &task_records);
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      misses[mi].result = AssembleDecomposed(
          misses[mi].sorted, miss_entries[mi], miss_from_table[mi],
          miss_records[mi], miss_plan_source[mi], task_records);
    }
  } else if (cost_cache_->enabled()) {
    // Cost-memo batch path: deduplicate (query, relevance signature)
    // plan tasks across ALL misses in one serial pass — a greedy round's
    // configurations overlap heavily, so most of the batch collapses onto
    // a few optimizer calls — then run the distinct tasks through one
    // pool dispatch and assemble each miss serially in batch order. The
    // serial collect/assemble phases keep hit/miss counts and every
    // float-addition order identical at any thread count.
    const size_t num_queries = workload_->queries().size();
    std::vector<PlanTask> tasks;
    std::unordered_map<std::string, size_t> task_index;
    std::vector<std::vector<const CostRecord*>> miss_records(misses.size());
    std::vector<std::vector<int>> miss_plan_source(misses.size());
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      miss_records[mi].assign(num_queries, nullptr);
      miss_plan_source[mi].assign(num_queries, -1);
      CollectPlanTasks(misses[mi].sorted, miss_records[mi],
                       miss_plan_source[mi], tasks, task_index);
    }
    std::vector<Result<CostRecord>> task_records(
        tasks.size(), Status::Internal("not evaluated"));
    RunPlanTasks(tasks, PlanTaskPool(tasks.size()), /*honor_cancel=*/true,
                 &task_records);
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      misses[mi].result =
          AssembleFromRecords(misses[mi].sorted, miss_records[mi],
                              miss_plan_source[mi], task_records);
    }
  } else {
    // One task per distinct miss; the per-query loop inside each stays
    // serial to keep exactly one level of parallelism per call path.
    ParallelForCancellable(
        pool(), misses.size(),
        [&](size_t mi) {
          if (cancel_.Cancelled()) {
            misses[mi].result =
                Status::Cancelled("configuration evaluation cancelled");
            return true;  // External cancel, not a deterministic failure.
          }
          misses[mi].result =
              EvaluateUncached(misses[mi].sorted, /*parallel_queries=*/false,
                               /*honor_cancel=*/true);
          return misses[mi].result.ok();
        },
        [&](size_t mi) {
          misses[mi].result = Status::Cancelled(
              "cancelled: a lower-indexed configuration evaluation failed "
              "first");
        });
    // Deferred serial count: one evaluation per miss that survived (the
    // pre-cancellation code counted inside EvaluateUncached, which would
    // leave the counter scheduling-dependent when a batch fails).
    for (const Miss& miss : misses) {
      if (miss.result.ok()) num_evaluations_.Increment();
    }
  }

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (Miss& miss : misses) {
      if (miss.result.ok()) {
        memo_.emplace(std::move(miss.key), *miss.result);
      }
    }
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    if (result_to_miss[i] != SIZE_MAX) {
      results[i] = misses[result_to_miss[i]].result;
    }
  }
  return results;
}

namespace {

/// Table cell from a priced plan's record: exact cost + which subset
/// members the plan's access path uses (the decomposed analogue of
/// RecordUsedCandidates; `subset` is sorted).
BenefitEntry EntryFromRecord(const std::vector<int>& subset,
                             const CostRecord& record) {
  BenefitEntry entry;
  entry.cost = record.total_cost;
  for (int id : record.candidates) {
    if (id >= 0 && std::binary_search(subset.begin(), subset.end(), id)) {
      entry.used.push_back(id);
    }
  }
  std::sort(entry.used.begin(), entry.used.end());
  entry.used.erase(std::unique(entry.used.begin(), entry.used.end()),
                   entry.used.end());
  return entry;
}

}  // namespace

Result<BenefitPricingReport> ConfigurationEvaluator::PriceBenefitTable(
    const DecomposeOptions& opts, const GeneralizationDag* dag,
    const Deadline& deadline) {
  XIA_SPAN("advisor.price_benefits");
  if (!cost_cache_->enabled()) {
    return Status::InvalidArgument(
        "decomposed evaluation requires the what-if cost cache (it supplies "
        "the relevance bitmaps and the pricing dedup layer)");
  }
  decompose_ = opts;
  auto table = std::make_unique<BenefitTable>(opts.max_degree);
  BenefitPricingReport report;

  // Per-class representative query (first of the fingerprint class; equal
  // fingerprints get bit-identical plans, so any member works).
  size_t num_classes = 0;
  for (int cls : distinct_query_) {
    num_classes = std::max(num_classes, static_cast<size_t>(cls) + 1);
  }
  std::vector<size_t> representative(num_classes, SIZE_MAX);
  for (size_t qi = 0; qi < distinct_query_.size(); ++qi) {
    size_t cls = static_cast<size_t>(distinct_query_[qi]);
    if (representative[cls] == SIZE_MAX) representative[cls] = qi;
  }
  report.classes = num_classes;

  std::vector<Bitmap> ancestors;
  if (opts.max_degree >= 2 && dag != nullptr) ancestors = DagAncestors(*dag);

  // Serial enumeration phase: every (class, subset) in deterministic
  // class-major / size-ascending order, resolved against this
  // evaluator's cost memo before becoming a task.
  struct PricingTask {
    int cls;
    std::vector<int> subset;
  };
  std::vector<PlanTask> tasks;
  std::vector<PricingTask> task_info;
  for (size_t cls = 0; cls < num_classes; ++cls) {
    size_t qi = representative[cls];
    std::vector<int> rel;
    for (size_t c = 0; c < relevant_.size(); ++c) {
      if (relevant_[c].Test(qi)) rel.push_back(static_cast<int>(c));
    }
    bool capped = false;
    std::vector<std::vector<int>> subsets = EnumerateBenefitSubsets(
        rel, opts.max_degree, opts.max_subsets_per_query,
        ancestors.empty() ? nullptr : &ancestors, &capped);
    report.subsets_enumerated += subsets.size();
    if (capped) ++report.capped_classes;
    for (std::vector<int>& subset : subsets) {
      PlanTask task;
      task.query = qi;
      task.key = MemoKey(static_cast<int>(cls), subset);
      if (const CostRecord* record = cost_memo_.Lookup(task.key)) {
        table->Insert(static_cast<int>(cls), subset,
                      EntryFromRecord(subset, *record));
        continue;
      }
      task.relevant = subset;
      tasks.push_back(std::move(task));
      task_info.push_back(PricingTask{static_cast<int>(cls),
                                      std::move(subset)});
    }
  }

  // Parallel pricing in governed chunks. Chunk size guarantees the pool
  // engages (PlanTaskPool's serial cutoff is threads*4); between chunks
  // the anytime knobs are polled, so an exhausted budget keeps the
  // already-priced prefix as a usable best-so-far table. Ungoverned runs
  // take one full-width batch — chunking changes scheduling only, never
  // results: all memo lookups already happened above, and inserts land
  // in enumeration order either way.
  const bool governed = !deadline.infinite() || cancel_.CanBeCancelled();
  const size_t chunk =
      governed ? std::max<size_t>(static_cast<size_t>(threads_) * 4, 16)
               : tasks.size();
  StopReason stop = StopReason::kConverged;
  size_t next = 0;
  while (next < tasks.size() && stop == StopReason::kConverged) {
    if (governed) {
      if (cancel_.Cancelled()) {
        stop = StopReason::kCancelled;
        break;
      }
      if (deadline.Expired()) {
        stop = StopReason::kDeadline;
        break;
      }
    }
    size_t end = std::min(next + chunk, tasks.size());
    std::vector<PlanTask> batch(tasks.begin() + static_cast<long>(next),
                                tasks.begin() + static_cast<long>(end));
    std::vector<Result<CostRecord>> batch_records(
        batch.size(), Status::Internal("not evaluated"));
    RunPlanTasks(batch, PlanTaskPool(batch.size()), /*honor_cancel=*/true,
                 &batch_records);
    for (size_t i = 0; i < batch.size(); ++i) {
      const Result<CostRecord>& record = batch_records[i];
      if (record.ok()) {
        const PricingTask& info = task_info[next + i];
        table->Insert(info.cls, info.subset,
                      EntryFromRecord(info.subset, *record));
        continue;
      }
      if (record.status().IsCancelled()) {
        // The external token fired mid-chunk: keep the priced prefix.
        stop = StopReason::kCancelled;
        break;
      }
      return record.status();  // Real optimizer failure: propagate.
    }
    next = end;
  }

  if (stop != StopReason::kConverged) table->MarkTruncated(stop);
  report.stop_reason = stop;
  report.subsets_priced = table->entries();
  pricing_report_ = report;
  benefit_table_ = std::move(table);
  return report;
}

std::string ConfigurationEvaluator::DescribeDecomposition() const {
  if (!decomposed()) return "";
  std::string out = "decomposed scoring: degree=" +
                    std::to_string(decompose_.max_degree) + " compose=" +
                    (decompose_.compose_above_degree ? "on" : "off") + ", " +
                    pricing_report_.ToString();
  return out;
}

void ConfigurationEvaluator::CollectDecomposedWork(
    const std::vector<int>& sorted, std::vector<BenefitEntry>& entries,
    std::vector<char>& from_table, std::vector<const CostRecord*>& records,
    std::vector<int>& plan_source, std::vector<PlanTask>& tasks,
    std::unordered_map<std::string, size_t>& task_index) {
  const std::vector<Query>& queries = workload_->queries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    PlanTask task;
    task.query = qi;
    for (int c : sorted) {
      if (relevant_[static_cast<size_t>(c)].Test(qi)) {
        task.relevant.push_back(c);
      }
    }
    const int cls = distinct_query_[qi];
    // Exact cell first (the overlap itself is priced — a *precise* cost,
    // see benefit_table.h property 1), then the composed conservative
    // bound, then the real what-if fallback through the cost memo. A
    // priced-degree overlap can still miss when pricing was truncated or
    // the class hit its subset cap; Compose covers those too.
    if (benefit_table_->Lookup(cls, task.relevant, &entries[qi])) {
      from_table[qi] = 1;
      benefit_table_->CountHit();
      continue;
    }
    if (decompose_.compose_above_degree &&
        benefit_table_->Compose(cls, task.relevant, &entries[qi])) {
      from_table[qi] = 1;
      benefit_table_->CountComposed();
      continue;
    }
    task.key = MemoKey(cls, task.relevant);
    records[qi] = cost_memo_.Lookup(task.key);
    if (records[qi] != nullptr) {
      plan_source[qi] = -1;
      continue;
    }
    auto [it, inserted] = task_index.emplace(task.key, tasks.size());
    if (inserted) tasks.push_back(std::move(task));
    plan_source[qi] = static_cast<int>(it->second);
  }
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::AssembleDecomposed(
    const std::vector<int>& sorted, const std::vector<BenefitEntry>& entries,
    const std::vector<char>& from_table,
    const std::vector<const CostRecord*>& records,
    const std::vector<int>& plan_source,
    const std::vector<Result<CostRecord>>& task_records) {
  const std::vector<Query>& queries = workload_->queries();
  Evaluation eval;
  eval.per_query_cost.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (from_table[qi]) {
      const BenefitEntry& entry = entries[qi];
      eval.per_query_cost.push_back(entry.cost);
      eval.workload_cost += queries[qi].weight * entry.cost;
      // entry.used ⊆ the priced subset ⊆ this configuration, so every id
      // is attributable without re-checking membership in `sorted`.
      for (int id : entry.used) eval.used_candidates.insert(id);
      continue;
    }
    const CostRecord* record = records[qi];
    if (plan_source[qi] >= 0) {
      const Result<CostRecord>& computed =
          task_records[static_cast<size_t>(plan_source[qi])];
      XIA_RETURN_IF_ERROR(computed.status());
      record = &*computed;
    }
    eval.per_query_cost.push_back(record->total_cost);
    eval.workload_cost += queries[qi].weight * record->total_cost;
    RecordUsedCandidates(sorted, *record, &eval);
  }
  eval.update_cost = EstimateUpdateCost(sorted);
  num_evaluations_.Increment();
  return eval;
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateDecomposed(const std::vector<int>& sorted,
                                           bool honor_cancel) {
  const size_t num_queries = workload_->queries().size();
  std::vector<BenefitEntry> entries(num_queries);
  std::vector<char> from_table(num_queries, 0);
  std::vector<const CostRecord*> records(num_queries, nullptr);
  std::vector<int> plan_source(num_queries, -1);
  std::vector<PlanTask> tasks;
  std::unordered_map<std::string, size_t> task_index;
  CollectDecomposedWork(sorted, entries, from_table, records, plan_source,
                        tasks, task_index);
  // Fallback what-ifs are counted here — the serial phase — as the calls
  // this configuration *issues* (cache-resolved queries create no task).
  benefit_table_->CountFallbackWhatIfs(tasks.size());
  std::vector<Result<CostRecord>> task_records(
      tasks.size(), Status::Internal("not evaluated"));
  RunPlanTasks(tasks, PlanTaskPool(tasks.size()), honor_cancel,
               &task_records);
  return AssembleDecomposed(sorted, entries, from_table, records, plan_source,
                            task_records);
}

Result<double> ConfigurationEvaluator::BaselineCost() {
  // Ungoverned: every anytime search needs the baseline to report a valid
  // best-so-far result, even when the token fired before the search began.
  XIA_ASSIGN_OR_RETURN(Evaluation eval, EvaluateUngoverned({}));
  return eval.workload_cost;
}

}  // namespace xia
