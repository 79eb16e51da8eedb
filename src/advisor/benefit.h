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
/// One pipeline prices every configuration: Evaluate, EvaluateUngoverned
/// and EvaluateMany are all batches through EvaluateBatch — a serial
/// collect that turns each (configuration, query) pair into a resolved
/// cost or a deduplicated optimizer task, one parallel run of the tasks
/// over the thread pool (`threads > 1`), and a serial assemble that folds
/// each configuration in query order. Only the serial phases count or
/// add, so costs and counters are bit-identical at any thread count.
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
/// inside the evaluator that made it. With the cache off, each query is
/// optimized under the whole configuration and nothing is memoized —
/// the reference tests/cost_cache_test.cc compares the cache against.
///
/// Decomposed mode (PriceBenefitTable, benefit_table.h): one step
/// further than the cache — the what-if calls a search WOULD make are
/// priced up front per (query class, small relevant subset), and the
/// collect scores queries by table lookups plus a conservative composed
/// bound, with real what-if only as fallback. Optimizer-call count then
/// scales with queries + candidates, not configurations explored.
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
  /// EvaluateMany poll before collecting and per optimizer task. A fired
  /// token makes every configuration not already memoized come back
  /// StatusCode::kCancelled; an inert (default) token costs one relaxed
  /// atomic load per check.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Evaluates the configuration given as candidate indices: a batch of
  /// one through EvaluateBatch.
  Result<Evaluation> Evaluate(const std::vector<int>& config);

  /// Evaluate, but ignoring the external CancelToken (deterministic
  /// sibling cancellation after a failing what-if task still applies).
  /// Anytime searches use this for the one closing evaluation that prices
  /// the best-so-far configuration after the budget fired — a valid
  /// flagged recommendation must still come back. Memoized results make
  /// this nearly free on the search paths.
  Result<Evaluation> EvaluateUngoverned(const std::vector<int>& config);

  /// Evaluates several configurations in one batch, returning results
  /// aligned with `configs`. This is the search-loop fan-out: scoring
  /// every candidate of a greedy round costs one pool dispatch, and
  /// configurations that look identical to a query share its one
  /// optimization. Results and num_evaluations() match what sequential
  /// Evaluate() calls would have produced.
  std::vector<Result<Evaluation>> EvaluateMany(
      const std::vector<std::vector<int>>& configs);

  /// Cost of the empty configuration (collection scans everywhere).
  Result<double> BaselineCost();

  /// Prices the CoPhy-style atomic-benefit table (benefit_table.h) and
  /// switches Evaluate/EvaluateMany to the decomposed mode: per query,
  /// an exact table hit when its relevant-set overlap is priced, else the
  /// composed conservative bound, and a real what-if call (through the
  /// cost cache) only when a truncated table priced no subset at all.
  /// EvaluateUngoverned and BaselineCost deliberately stay on the exact
  /// path so closing evaluations report honest (non-composed) costs.
  ///
  /// Pricing itself runs the (class, subset) what-ifs in parallel over
  /// the thread pool, deduped through the cost cache, in deadline-/
  /// cancel-governed chunks: an exhausted budget returns a usable
  /// best-so-far table (report.stop_reason != kConverged), never an
  /// error. Requires the cost cache (relevance bitmaps) to be enabled.
  Result<BenefitPricingReport> PriceBenefitTable(const DecomposeOptions& opts,
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
    std::vector<int> relevant;  // Sorted overlay candidate ids (the sig).
    std::string key;            // Cost-memo key.
  };
  /// Where one query's cost under one configuration comes from, as the
  /// collect decided it: a benefit-table score, a memoized record, or a
  /// PlanTask's result.
  struct QueryCost {
    bool from_table = false;             // `entry` holds the score.
    BenefitEntry entry;
    const CostRecord* record = nullptr;  // Memoized record, or null.
    int task = -1;                       // PlanTask index, or -1.
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
  /// table, read-only after pricing, plus its report. Null table = exact
  /// mode.
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

  /// The one evaluation pipeline behind Evaluate (a batch of one,
  /// honor_cancel, use_table = decomposed()), EvaluateUngoverned (a batch
  /// of one, neither — closing evaluations stay exact) and EvaluateMany:
  /// serial memo lookup and miss dedup; a fired token (with
  /// `honor_cancel`) fails every miss; else serial CollectPlanTasks,
  /// RunPlanTasks, serial Assemble per miss, and memo insert.
  std::vector<Result<Evaluation>> EvaluateBatch(
      const std::vector<std::vector<int>>& configs, bool honor_cancel,
      bool use_table);

  /// Serial collect: resolves each query of `sorted` into `*costs` — a
  /// benefit-table score (`use_table`), a memoized record, or the index
  /// of a PlanTask appended to `*tasks` (deduplicated by key through
  /// `*task_index`). With the cost cache off every query becomes a task
  /// over the whole configuration, counted as one bypass.
  void CollectPlanTasks(const std::vector<int>& sorted, bool use_table,
                        std::vector<QueryCost>* costs,
                        std::vector<PlanTask>* tasks,
                        std::unordered_map<std::string, size_t>* task_index);

  /// Optimizes a task's query against base catalog + ONLY its relevant
  /// candidates. Bit-identical to optimizing under any configuration with
  /// that relevance signature (see the comment in the implementation).
  Result<QueryPlan> OptimizeRelevant(const PlanTask& task) const;

  /// Parallel run: every PlanTask through OptimizeRelevant with
  /// first-failure sibling cancellation (ParallelForCancellable) and an
  /// optional external-token check, keeping each plan's CostRecord; then,
  /// with the cost cache on, inserts the surviving records into the cost
  /// memo. Statuses, records, and the memo size are deterministic at any
  /// thread count: exactly the tasks below the lowest failing index
  /// complete.
  void RunPlanTasks(const std::vector<PlanTask>& tasks, ThreadPool* task_pool,
                    bool honor_cancel,
                    std::vector<Result<CostRecord>>* task_records);

  /// Serial assemble: folds table scores and records into the Evaluation
  /// in query order (a fixed float-addition order). Counts one
  /// configuration evaluation.
  Result<Evaluation> Assemble(
      const std::vector<int>& sorted, const std::vector<QueryCost>& costs,
      const std::vector<Result<CostRecord>>& task_records);

  /// Pool choice for a fan-out of `tasks` plan tasks: null (serial)
  /// unless threads_ > 1 and there is enough work per worker to amortize
  /// dispatch and the lazy first-use spawn. Purely a scheduling decision
  /// — plans, costs, and counters are identical either way. Thread-safe.
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
