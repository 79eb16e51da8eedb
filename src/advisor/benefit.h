#ifndef XIA_ADVISOR_BENEFIT_H_
#define XIA_ADVISOR_BENEFIT_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/benefit_table.h"
#include "advisor/candidate.h"
#include "advisor/cost_cache.h"
#include "common/bitmap.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"
#include "xpath/containment.h"

namespace xia {

/// Evaluates candidate index configurations for the search algorithms.
///
/// Every evaluation re-optimizes the *whole* workload under the *whole*
/// configuration (the Evaluate Indexes mode contract), so index
/// interaction — an index's benefit changing depending on which other
/// indexes exist — is captured by construction, as Section 2.3 requires.
/// Evaluations are memoized by configuration, since greedy and top-down
/// searches revisit configurations.
///
/// Concurrency: with `threads > 1` the per-query what-if optimizations
/// inside one Evaluate() fan out over an internal thread pool, and
/// EvaluateMany() fans out whole configurations; the memo and evaluation
/// counter are lock-/atomic-protected so both levels may run
/// concurrently. Per-query results are merged in query order, making the
/// parallel costs bit-identical to the serial (`threads == 1`) path.
///
/// What-if cost caching (`use_cost_cache`, on by default): below the
/// whole-configuration memo sits a per-query cost memo (CostRecordMemo,
/// advisor/cost_cache.h). A query's plan under a configuration depends
/// only on the configuration's *relevant* candidates — those whose
/// patterns can produce an index match for it — so the optimizer runs
/// once per distinct (query class, relevant-candidate-set) pair and every
/// other (query, configuration) combination is a lookup of a 16-byte
/// CostRecord (the plan's cost and the candidates it uses; the plan
/// itself is dropped). Memo keys are candidate ids local to this
/// evaluator, so the memo lives and dies with it: a key is valid only
/// inside the evaluator that made it. Results stay bit-identical to the
/// uncached path (tests/cost_cache_test.cc), and hit/miss/bypass counts
/// are deterministic at any thread count because lookups happen in
/// serial dedup phases.
///
/// Decomposed mode (PriceBenefitTable, benefit_table.h): one step
/// further than the cache — the what-if calls a search WOULD make are
/// priced up front per (query class, small relevant subset), and
/// configuration scoring becomes table lookups plus a conservative
/// composed bound, with real what-if only as fallback. Optimizer-call
/// count then scales with queries + candidates, not configurations
/// explored.
class ConfigurationEvaluator {
 public:
  /// One workload XPath expression (driving path or predicate pattern) —
  /// the unit of the greedy-heuristic search's redundancy bitmap.
  struct WorkloadExpr {
    int query = 0;
    PathPattern pattern;
    ValueType implied_type = ValueType::kVarchar;
    bool sargable_op = false;
  };

  /// Outcome of evaluating one configuration.
  struct Evaluation {
    double workload_cost = 0;  // Weighted estimated query cost.
    double update_cost = 0;    // Estimated index-maintenance debit.
    std::vector<double> per_query_cost;
    std::set<int> used_candidates;  // Candidates some best plan uses.

    double TotalCost() const { return workload_cost + update_cost; }
  };

  /// All pointers must outlive the evaluator. `account_update_cost`
  /// toggles the maintenance debit (ablation B). `threads` is the what-if
  /// fan-out width: 1 (the default) evaluates serially exactly as before,
  /// 0 resolves to std::thread::hardware_concurrency(). `use_cost_cache`
  /// is the per-query cost memo escape hatch; disabling it makes
  /// every evaluation re-optimize every query (counted as bypasses).
  /// `shared_cost_cache`, when non-null, replaces the evaluator's own
  /// hit/miss ledger with an external one that outlives it (and whose
  /// enabled() flag then overrides `use_cost_cache`) — how a server adds
  /// up the what-if traffic of many advises in one place. It is a
  /// ledger only: the memoized costs stay inside this evaluator, because
  /// their keys are ids no other evaluator shares, so the shared
  /// instance never holds an entry and never changes a result.
  ConfigurationEvaluator(const Optimizer* optimizer, const Workload* workload,
                         const Catalog* base_catalog,
                         const std::vector<CandidateIndex>* candidates,
                         ContainmentCache* cache, bool account_update_cost,
                         int threads = 1, bool use_cost_cache = true,
                         WhatIfCostCache* shared_cost_cache = nullptr);

  /// Installs the cooperative-cancellation token that Evaluate and
  /// EvaluateMany poll at per-query / per-task boundaries. A fired token
  /// makes in-flight evaluations return StatusCode::kCancelled; an inert
  /// (default) token costs one relaxed atomic load per check.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Evaluates the configuration given as candidate indices, optimizing
  /// the workload's queries in parallel when threads > 1.
  Result<Evaluation> Evaluate(const std::vector<int>& config);

  /// Evaluate, but ignoring the external CancelToken (deterministic
  /// sibling cancellation after a failing what-if task still applies).
  /// Anytime searches use this for the one closing evaluation that prices
  /// the best-so-far configuration after the budget fired — a valid
  /// flagged recommendation must still come back. Memoized results make
  /// this nearly free on the search paths.
  Result<Evaluation> EvaluateUngoverned(const std::vector<int>& config);

  /// Evaluates several configurations concurrently, returning results
  /// aligned with `configs`. This is the search-loop fan-out: scoring
  /// every candidate of a greedy round costs one pool dispatch. With the
  /// cost cache on, the fan-out unit is the distinct (query, relevance
  /// signature) pair deduplicated across the whole batch — configurations
  /// that look identical to a query share its one optimization; with the
  /// cache off it is the distinct uncached configuration (serial
  /// per-query loop inside each). Results and num_evaluations() match
  /// what sequential Evaluate() calls would have produced.
  std::vector<Result<Evaluation>> EvaluateMany(
      const std::vector<std::vector<int>>& configs);

  /// Cost of the empty configuration (collection scans everywhere).
  Result<double> BaselineCost();

  /// Prices the CoPhy-style atomic-benefit table (benefit_table.h) and
  /// switches Evaluate/EvaluateMany to the decomposed mode: per query,
  /// an exact table hit when its relevant-set overlap is priced, the
  /// composed conservative bound when `opts.compose_above_degree`, and a
  /// real what-if call (through the cost cache) only as last resort.
  /// EvaluateUngoverned and BaselineCost deliberately stay on the exact
  /// path so closing evaluations report honest (non-composed) costs.
  ///
  /// Pricing itself runs the (class, subset) what-ifs in parallel over
  /// the thread pool, deduped through the cost cache, in deadline-/
  /// cancel-governed chunks: an exhausted budget returns a usable
  /// best-so-far table (report.stop_reason != kConverged), never an
  /// error. Requires the cost cache (relevance bitmaps) to be enabled.
  /// `dag` may be null (disables degree-2 pair pruning).
  Result<BenefitPricingReport> PriceBenefitTable(const DecomposeOptions& opts,
                                                 const GeneralizationDag* dag,
                                                 const Deadline& deadline);

  /// True once PriceBenefitTable installed a table (decomposed mode on).
  bool decomposed() const { return benefit_table_ != nullptr; }

  /// The priced table, or null before PriceBenefitTable.
  const BenefitTable* benefit_table() const { return benefit_table_.get(); }

  /// One-line decomposition description for search traces; empty when
  /// the evaluator runs exact.
  std::string DescribeDecomposition() const;

  /// The workload expression table (stable order).
  const std::vector<WorkloadExpr>& exprs() const { return exprs_; }

  /// Bitmap over exprs(): which workload expressions some candidate in
  /// `config` covers (containment + type compatibility). This is the
  /// paper's "bitmap of XPath patterns in the workload queries that have
  /// indexes on them".
  Bitmap CoverageOf(const std::vector<int>& config);

  /// True when candidate `candidate` covers expression `expr_index`.
  bool Covers(int candidate, size_t expr_index);

  /// Number of distinct configurations actually optimized (cache misses).
  int num_evaluations() const {
    return static_cast<int>(num_evaluations_.Value());
  }

  /// Effective what-if fan-out width (>= 1).
  int threads() const { return threads_; }

  /// Whether the per-query cost memo is on (the ledger's enabled()).
  bool cost_cache_enabled() const { return cost_cache_->enabled(); }

  /// The ledger's hit/miss/bypass counters, with `entries` = records in
  /// this evaluator's cost memo.
  CostCacheStats cost_stats() const { return cost_memo_.stats(); }

  /// Snapshot of both cache layers for search traces and bench output.
  AdvisorCacheCounters cache_counters() const;

  /// The thread-count-deterministic subset of this evaluator's metrics as
  /// an obs::Snapshot — only values the serial lookup/dedup/assemble
  /// phases produce (cost-cache hits/misses/bypasses/entries, containment
  /// entries, memo hits, evaluations). Search traces embed its TextLines:
  /// they must stay byte-identical at any thread count
  /// (tests/parallel_eval_test.cc), which rules out containment hit/miss
  /// splits and any thread-pool metric.
  obs::Snapshot DeterministicStats() const;

  const std::vector<CandidateIndex>& candidates() const {
    return *candidates_;
  }

 private:
  /// One pending optimizer call: a distinct (query, relevant candidate
  /// set) pair some configuration in the current batch needs.
  struct PlanTask {
    size_t query = 0;           // Representative workload query index.
    std::vector<int> relevant;  // Sorted relevant candidate ids (the sig).
    std::string key;            // Cost-memo key.
  };
  const Optimizer* optimizer_;
  const Workload* workload_;
  const Catalog* base_catalog_;
  const std::vector<CandidateIndex>* candidates_;
  ContainmentCache* cache_;
  bool account_update_cost_;
  int threads_;
  /// Spawned on first parallel use (always null when threads_ == 1), so
  /// evaluators whose work the cost cache keeps small never pay OS
  /// thread-creation cost.
  std::unique_ptr<ThreadPool> pool_;
  std::once_flag pool_once_;
  std::vector<WorkloadExpr> exprs_;
  CancelToken cancel_;
  std::mutex memo_mu_;
  std::map<std::string, Evaluation> memo_;
  // xia::obs counters ("advisor.*"): distinct configurations optimized
  // and configuration-memo hits. Both advance in serial phases only, so
  // they are deterministic at any thread count.
  obs::Counter num_evaluations_{"advisor.evaluations"};
  obs::Counter memo_hits_{"advisor.memo_hits"};
  /// The hit/miss ledger: owned_cost_cache_ unless the constructor
  /// received an external shared one. Declared in this order so
  /// cost_cache_ and cost_memo_ can be initialized from the owned cache.
  std::unique_ptr<WhatIfCostCache> owned_cost_cache_;
  WhatIfCostCache* cost_cache_;
  /// Per-(query class, relevant set) cost records, counted on cost_cache_.
  CostRecordMemo cost_memo_;
  /// Queries with equal fingerprints share a slot id (and thus cost
  /// records): distinct_query_[qi] indexes the query's equivalence class.
  std::vector<int> distinct_query_;
  /// relevant_[c].Test(qi): candidate `c` can produce an index match for
  /// query `qi` (the per-candidate × per-query match bitmap, precomputed
  /// once through the shared ContainmentCache). Empty when the cost cache
  /// is disabled.
  std::vector<Bitmap> relevant_;
  /// Decomposed mode (PriceBenefitTable): the priced atomic-benefit
  /// table, read-only after pricing, plus the knobs and report. Null
  /// table = exact mode.
  DecomposeOptions decompose_;
  std::unique_ptr<BenefitTable> benefit_table_;
  BenefitPricingReport pricing_report_;

  /// Canonical memo key (sorted, deduplicated config) + that config.
  /// This is the single normalization point for the configuration memo:
  /// Evaluate, EvaluateMany, and the cost-cache signature loop must all
  /// funnel configs through it, so duplicate and unsorted inputs collapse
  /// to one memo entry and one evaluation (regression:
  /// tests/cost_cache_test.cc, MemoKeyCanonicalization*).
  static std::pair<std::string, std::vector<int>> CanonicalKey(
      const std::vector<int>& config);

  /// Shared body of Evaluate/EvaluateUngoverned; `honor_cancel` selects
  /// whether the external token is polled and `use_table` whether the
  /// decomposed path scores this configuration (Evaluate passes
  /// decomposed(); EvaluateUngoverned always passes false — the closing
  /// evaluations stay exact). Decomposed and exact results are memoized
  /// under disjoint keys ("d:" prefix), so both coexist per config.
  Result<Evaluation> EvaluateImpl(const std::vector<int>& config,
                                  bool honor_cancel, bool use_table);

  /// Uncached evaluation of a canonical config. `parallel_queries` fans
  /// the per-query optimizations out over the pool; EvaluateMany passes
  /// false because it parallelizes at configuration granularity instead.
  /// Does NOT count the evaluation — callers increment num_evaluations_
  /// in a serial phase so the counter stays deterministic when a batch
  /// fails part-way.
  Result<Evaluation> EvaluateUncached(const std::vector<int>& sorted,
                                      bool parallel_queries,
                                      bool honor_cancel);

  /// Cost-cache path of EvaluateUncached: serial lookup/dedup over the
  /// queries, parallel optimization of the distinct misses, serial merge.
  Result<Evaluation> EvaluateWithCostCache(const std::vector<int>& sorted,
                                           bool parallel_tasks,
                                           bool honor_cancel);

  /// Serial phase 1: resolves each query of `sorted` from the cost memo
  /// into `records` or appends a deduplicated PlanTask. plan_source[qi]
  /// is the task index that will produce the record, or -1 when
  /// `records[qi]` already points into the memo.
  void CollectPlanTasks(const std::vector<int>& sorted,
                        std::vector<const CostRecord*>& records,
                        std::vector<int>& plan_source,
                        std::vector<PlanTask>& tasks,
                        std::unordered_map<std::string, size_t>& task_index);

  /// Optimizes a task's query against base catalog + ONLY its relevant
  /// candidates. Bit-identical to optimizing under any configuration with
  /// that relevance signature (see the comment in the implementation).
  Result<QueryPlan> OptimizeRelevant(const PlanTask& task) const;

  /// Parallel phase 2: runs every PlanTask through OptimizeRelevant with
  /// first-failure sibling cancellation (ParallelForCancellable) and an
  /// optional external-token check, keeps each plan's CostRecord, then
  /// inserts the surviving records into the cost memo. Statuses, records,
  /// and the memo size are deterministic at any thread count: exactly the
  /// tasks below the lowest failing index complete.
  void RunPlanTasks(const std::vector<PlanTask>& tasks, ThreadPool* task_pool,
                    bool honor_cancel,
                    std::vector<Result<CostRecord>>* task_records);

  /// Serial phase 3: takes the remaining records from `task_records` and
  /// folds the Evaluation in query order (the exact float-addition order
  /// of the uncached path). Counts one configuration evaluation.
  Result<Evaluation> AssembleFromRecords(
      const std::vector<int>& sorted,
      const std::vector<const CostRecord*>& records,
      const std::vector<int>& plan_source,
      const std::vector<Result<CostRecord>>& task_records);

  /// Decomposed sibling of EvaluateWithCostCache: serial table resolve
  /// (exact hit → composed bound → what-if fallback task), parallel run
  /// of the deduplicated fallbacks, serial assemble.
  Result<Evaluation> EvaluateDecomposed(const std::vector<int>& sorted,
                                        bool honor_cancel);

  /// Serial phase 1 of the decomposed path: resolves each query from the
  /// benefit table into `entries` (from_table[qi] = 1) or falls back to
  /// the cost-memo/task machinery exactly like CollectPlanTasks. Counts
  /// table hits and composed scores (this is the serial phase that makes
  /// the benefit.* counters thread-count deterministic).
  void CollectDecomposedWork(
      const std::vector<int>& sorted, std::vector<BenefitEntry>& entries,
      std::vector<char>& from_table, std::vector<const CostRecord*>& records,
      std::vector<int>& plan_source, std::vector<PlanTask>& tasks,
      std::unordered_map<std::string, size_t>& task_index);

  /// Serial phase 3 of the decomposed path: folds table entries and
  /// fallback records in query order. Counts one configuration evaluation.
  Result<Evaluation> AssembleDecomposed(
      const std::vector<int>& sorted, const std::vector<BenefitEntry>& entries,
      const std::vector<char>& from_table,
      const std::vector<const CostRecord*>& records,
      const std::vector<int>& plan_source,
      const std::vector<Result<CostRecord>>& task_records);

  /// The lazily-spawned pool (null when threads_ == 1). Thread-safe.
  ThreadPool* pool();

  /// Pool choice for a fan-out of `tasks` minimal plan tasks: null
  /// (serial) unless there is enough work per worker to amortize dispatch
  /// and possible first-use spawn. Purely a scheduling decision — plans,
  /// costs, and counters are identical either way.
  ThreadPool* PlanTaskPool(size_t tasks);

  /// Folds the candidate ids `record`'s plan uses into
  /// `eval->used_candidates`. Only overlay indexes of the configuration
  /// being evaluated (`sorted`) count: a *physical* catalog index whose
  /// name merely resembles the "cand<N>" overlay convention must not be
  /// attributed (regression: benefit_test.cc, PhysicalIndexNames*).
  static void RecordUsedCandidates(const std::vector<int>& sorted,
                                   const CostRecord& record, Evaluation* eval);

  double EstimateUpdateCost(const std::vector<int>& config) const;
};

/// Internal name given to candidate `i` in evaluation overlays.
std::string CandidateOverlayName(int candidate);

/// Inverse of CandidateOverlayName with no trust in the input: the id for
/// names of exactly the form "cand<decimal digits>", std::nullopt for
/// everything else (other prefixes, "cand", "cand12x", "candelabra",
/// overflowing digit runs). Never throws — physical catalog indexes with
/// arbitrary names flow through the same plan-attribution paths.
std::optional<int> TryParseCandidateId(const std::string& name);

}  // namespace xia

#endif  // XIA_ADVISOR_BENEFIT_H_
