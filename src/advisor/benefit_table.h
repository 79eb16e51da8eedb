#ifndef XIA_ADVISOR_BENEFIT_TABLE_H_
#define XIA_ADVISOR_BENEFIT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "advisor/cost_cache.h"
#include "advisor/dag.h"
#include "common/bitmap.h"
#include "common/deadline.h"
#include "common/metrics.h"

namespace xia {

/// CoPhy-style atomic-benefit decomposition (arXiv 1104.3214): instead of
/// re-running the what-if optimizer for every (configuration, query) pair
/// a search explores, price each distinct query once against every small
/// *relevant* candidate subset up to a bounded interaction degree, then
/// score configurations by composing the precomputed atomic costs. The
/// number of optimizer calls becomes O(distinct queries × relevant
/// candidates) — independent of how many configurations the search walks —
/// which is what lets a 10k-template compressed log advise at interactive
/// latency.
///
/// Soundness rests on two properties the cost cache already proved out:
///  1. Relevance signatures: a query's plan under configuration C depends
///     only on R(q) ∩ C (cost_cache.h), so cost(q, S) for a priced subset
///     S equals cost(q, C) for every C with R(q) ∩ C == S — table lookups
///     are *exact*, not estimates.
///  2. Cost monotonicity: adding virtual indexes only widens the plan
///     space, so cost(q, O) <= min over priced S ⊆ O of cost(q, S). A
///     composed score is therefore a conservative (never optimistic)
///     upper bound on the true cost; the gap is the ε the decomposed
///     search trades for its call budget.

/// Knobs for the decomposed evaluation mode (AdvisorOptions::decompose).
struct DecomposeOptions {
  /// Master switch; the exact per-configuration path stays the default.
  bool enabled = false;
  /// Largest relevant-subset size priced per query class: 1 prices the
  /// empty set + every singleton, 2 adds DAG-incomparable pairs. Larger
  /// degrees price exponentially more subsets for quadratically rarer
  /// exact hits, so the knob stops at what CoPhy found useful.
  int max_degree = 1;
  /// Hard cap on subsets priced per query class (enumeration order:
  /// size-ascending, then lexicographic — the cap keeps the cheap,
  /// high-value entries).
  size_t max_subsets_per_query = 128;
  /// When a query's relevant-set overlap exceeds the priced degree (or
  /// pricing was truncated), score it with the composed upper bound
  /// instead of a real what-if call. Disabling this makes every
  /// non-priced overlap fall back to the optimizer: bit-identical
  /// recommendations to the exact search, at a smaller call saving.
  bool compose_above_degree = true;
  /// Asserted quality bound, not a runtime knob: on workloads small
  /// enough to run both paths, the decomposed recommendation's promised
  /// benefit must be within this fraction of the exact search's
  /// (tests/benefit_table_test.cc).
  double epsilon = 0.05;
};

/// One priced (query class, relevant subset) cell: the exact optimizer
/// cost under that subset and which subset members the best plan used.
struct BenefitEntry {
  double cost = 0;
  std::vector<int> used;  // Sorted candidate ids the plan's access uses.
};

/// What the pricing phase did — embedded in Recommendation and search
/// traces so a truncated table is never mistaken for a complete one.
struct BenefitPricingReport {
  size_t classes = 0;             // Distinct query fingerprint classes.
  size_t subsets_enumerated = 0;  // After degree bound / pruning / caps.
  size_t subsets_priced = 0;      // Entries actually in the table.
  size_t capped_classes = 0;      // Classes that hit max_subsets_per_query.
  /// kConverged when every enumerated subset was priced; kDeadline /
  /// kCancelled when the anytime budget fired mid-pricing and the table
  /// holds the best-so-far prefix.
  StopReason stop_reason = StopReason::kConverged;

  std::string ToString() const;
};

/// The atomic-benefit table: priced (query class, relevant subset) cells.
/// Its deterministic counter snapshot is BenefitTableStats (cost_cache.h,
/// next to the other advisor counter structs it travels with).
///
/// Thread-safety contract: Insert only runs in the (serial insert phases
/// of the) pricing pass; after pricing the table is read-only and safe to
/// share across the evaluator's parallel phases. Counters are atomic but
/// callers increment them in serial phases so they stay deterministic at
/// any thread count (the same contract as WhatIfCostCache).
class BenefitTable {
 public:
  explicit BenefitTable(int max_degree) : max_degree_(max_degree) {}

  BenefitTable(const BenefitTable&) = delete;
  BenefitTable& operator=(const BenefitTable&) = delete;

  /// Canonical key of a sorted candidate subset ("1,5,").
  static std::string SubsetKey(const std::vector<int>& subset);

  /// Prices `subset` (sorted) for `query_class`. First insert wins.
  void Insert(int query_class, const std::vector<int>& subset,
              BenefitEntry entry);

  /// Exact cell lookup: the overlap IS a priced subset. Counts nothing —
  /// the evaluator attributes hits/composed/fallbacks in its serial
  /// collect phase, where the outcome is decided.
  bool Lookup(int query_class, const std::vector<int>& overlap,
              BenefitEntry* out) const;

  /// Composed conservative score: min cost over every priced subset
  /// S ⊆ overlap of this class (cost monotonicity makes that an upper
  /// bound on the true cost). Scans the class's entries in enumeration
  /// order with strict-improvement ties, so the result — including which
  /// entry's `used` set is reported — is deterministic. Returns false
  /// when no priced subset applies (not even the empty set).
  bool Compose(int query_class, const std::vector<int>& overlap,
               BenefitEntry* out) const;

  /// Marks the table as a best-so-far prefix (anytime pricing stopped).
  void MarkTruncated(StopReason reason);

  bool truncated() const { return truncated_; }
  StopReason stop_reason() const { return stop_reason_; }
  int max_degree() const { return max_degree_; }
  size_t entries() const { return entries_count_; }

  /// Serial-phase accounting hooks (see class comment).
  void CountHit() { table_hits_.Increment(); }
  void CountComposed() { composed_.Increment(); }
  void CountFallbackWhatIfs(uint64_t n) { fallback_whatifs_.Add(n); }

  BenefitTableStats stats() const;

  /// Deterministic full dump (class-ascending, enumeration order) for
  /// tests asserting thread-count independence of the pricing phase.
  std::string DebugString() const;

 private:
  struct ClassTable {
    /// Priced subsets in enumeration order (size-ascending, then
    /// lexicographic) — the order Compose scans.
    std::vector<std::pair<std::vector<int>, BenefitEntry>> subsets;
    std::unordered_map<std::string, size_t> by_key;
  };

  int max_degree_;
  bool truncated_ = false;
  StopReason stop_reason_ = StopReason::kConverged;
  size_t entries_count_ = 0;
  std::vector<ClassTable> classes_;  // Indexed by query class id.
  // xia::obs counters ("benefit.*"): deterministic at any thread count
  // because every increment happens in a serial phase.
  obs::Counter priced_{"benefit.priced"};
  obs::Counter table_hits_{"benefit.table_hits"};
  obs::Counter composed_{"benefit.composed"};
  obs::Counter fallback_whatifs_{"benefit.fallback_whatifs"};
};

/// ancestors[i].Test(j): candidate j is a strict DAG ancestor (more
/// general) of candidate i. Computed once per pricing pass and used to
/// prune comparable pairs from degree-2 enumeration: when one pair member
/// generalizes the other, the optimizer's plan under the pair is the
/// specific member's singleton plan in all but pathological secondary-
/// access cases, so pricing the pair buys ~nothing (the composed bound
/// already covers it within ε).
std::vector<Bitmap> DagAncestors(const GeneralizationDag& dag);

/// Deterministic bounded subset enumeration for one query class: the
/// empty set, every singleton of `relevant` (sorted), then — at degree
/// >= 2 — every DAG-incomparable pair, size-ascending / lexicographic,
/// truncated at `max_subsets`. `ancestors` may be null (no pruning).
/// Sets `*capped` when the cap cut enumeration short.
std::vector<std::vector<int>> EnumerateBenefitSubsets(
    const std::vector<int>& relevant, int max_degree, size_t max_subsets,
    const std::vector<Bitmap>* ancestors, bool* capped);

}  // namespace xia

#endif  // XIA_ADVISOR_BENEFIT_TABLE_H_
