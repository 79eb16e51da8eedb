#ifndef XIA_ADVISOR_COST_CACHE_H_
#define XIA_ADVISOR_COST_CACHE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "index/catalog.h"
#include "optimizer/plan.h"
#include "xpath/containment.h"

namespace xia {

/// Counter snapshot of a WhatIfCostCache. All three counters are
/// deterministic at any thread count *provided* lookups happen in serial
/// phases (the pattern every caller in this codebase follows: serial
/// lookup/dedup scan, parallel optimization of the misses, serial insert).
struct CostCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypasses = 0;  // Lookups skipped because the cache is disabled.
  size_t entries = 0;     // Cached plans across all shards.
};

/// Signature-keyed what-if plan memo — the CoPhy-style decoupling of
/// per-query "atomic" cost estimation from configuration search — and
/// the hit/miss ledger of the advisor's evaluator-scoped memo below.
///
/// As a plan memo (WhatIfSession, EvaluateIndexesMode, DriftMonitor) a
/// key is (query fingerprint, relevance signature): the signature names
/// exactly the catalog entries whose patterns can produce an index match
/// for the query (IndexMatcher::CanServe). Since the optimizer reads a
/// catalog *only* through IndexMatcher::Match — entries that emit no
/// match contribute nothing to plan enumeration — equal signatures imply
/// byte-identical optimizer input, hence a bit-identical QueryPlan. Two
/// configurations differing only in indexes a query cannot see therefore
/// share one cached optimization.
///
/// As a ledger (ConfigurationEvaluator, via CostRecordMemo) the instance
/// stores nothing: the evaluator's keys are ids that mean something only
/// inside that evaluator, so its records live and die with it, and this
/// instance just counts each lookup as a hit or a miss. A server may
/// pass one instance to every advise; its counters then add up the
/// traffic of all of them, and it never holds an entry.
///
/// An instance is bound to one (database, cost model, optimizer options)
/// tuple — those are deliberately NOT part of the key; owners that could
/// see several (none in this codebase) must use separate caches.
///
/// Thread-safe: the map is split into fixed shards, each behind its own
/// mutex; Lookup copies the plan out under the shard lock. Racing inserts
/// of the same key are idempotent (first wins; equal signatures make both
/// values bit-identical).
class WhatIfCostCache {
 public:
  explicit WhatIfCostCache(bool enabled = true) : enabled_(enabled) {}

  WhatIfCostCache(const WhatIfCostCache&) = delete;
  WhatIfCostCache& operator=(const WhatIfCostCache&) = delete;

  /// A disabled cache never hits, never stores, and counts every Lookup
  /// as a bypass — the AdvisorOptions escape hatch.
  bool enabled() const { return enabled_; }

  /// Copies the plan cached under `key` into `*plan`; returns whether the
  /// key was present. Counts one hit or miss (bypass when disabled).
  bool Lookup(const std::string& key, QueryPlan* plan);

  /// Memoizes `plan` under `key`; first insert wins. No-op when disabled.
  void Insert(const std::string& key, const QueryPlan& plan);

  /// Counts one lookup whose answer the caller already holds: from a
  /// memo outside this cache (the evaluator's CostRecordMemo), or from an
  /// earlier Lookup of the same key in the same batch.
  void CountLookup(bool hit) { (hit ? hits_ : misses_).Increment(); }

  /// Bulk bypass accounting for callers that skip per-query Lookups
  /// entirely when the cache is disabled.
  void AddBypasses(uint64_t n) { bypasses_.Add(n); }

  CostCacheStats stats() const;

 private:
  static constexpr size_t kNumShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, QueryPlan> map;
  };

  bool enabled_;
  mutable std::array<Shard, kNumShards> shards_;
  // xia::obs counters (registry names "costcache.*"): stats() still reads
  // this instance alone; the registry snapshot aggregates all instances.
  obs::Counter hits_{"costcache.hits"};
  obs::Counter misses_{"costcache.misses"};
  obs::Counter bypasses_{"costcache.bypasses"};
};

/// What a configuration evaluation reads from one what-if plan: its
/// total cost and the candidate ids its index accesses name. The
/// evaluator memoizes these 16 bytes instead of whole QueryPlans.
struct CostRecord {
  double total_cost = 0;
  /// Ids parsed from the primary and secondary access index names
  /// ("cand<N>" overlay names); -1 where the plan has no such access.
  /// Not filtered by configuration: the reader decides which ids count.
  std::array<int, 2> candidates = {-1, -1};
};

/// The evaluator-scoped what-if memo: one CostRecord per evaluator-local
/// key (query class + relevant candidate ids, advisor/benefit.h). Lives
/// exactly as long as its ConfigurationEvaluator, because the ids in its
/// keys mean nothing to any other evaluator. Every Lookup is counted as
/// a hit or a miss on `ledger`, which may be shared.
///
/// Thread-safe. Records are never erased or overwritten (first insert
/// wins), so a returned pointer stays valid for the memo's lifetime.
class CostRecordMemo {
 public:
  explicit CostRecordMemo(WhatIfCostCache* ledger) : ledger_(ledger) {}

  /// The record under `key`, or null. Counts one hit or miss.
  const CostRecord* Lookup(const std::string& key);

  /// Memoizes `record` under `key`; first insert wins.
  void Insert(const std::string& key, const CostRecord& record);

  /// The ledger's counters, with `entries` = records in this memo.
  CostCacheStats stats() const;

 private:
  WhatIfCostCache* ledger_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, CostRecord> records_;
};

/// Byte-exact fingerprint of every NormalizedQuery field the optimizer
/// (or a plan embedding the query) can observe. Two queries with equal
/// fingerprints receive bit-identical plans under equal signatures, so
/// repeated workload queries share one cached optimization.
std::string QueryFingerprint(const NormalizedQuery& query);

/// Identity of one catalog entry as optimizer input: name, definition,
/// virtualness, and bit-exact statistics. Statistics are part of the
/// identity, so catalog changes that only refresh stats (RefreshStats
/// after index maintenance) change the signature and naturally invalidate
/// affected cache entries — the cache needs no invalidation hooks.
std::string CatalogEntryIdentity(const CatalogEntry& entry);

/// Relevance signature of `query` against `entries` (which must be in the
/// catalog's deterministic name order, as IndexesFor returns): the
/// concatenated identities of exactly those entries that can produce an
/// index match for the query. Entries that cannot match are omitted — the
/// optimizer provably ignores them — which is what lets configurations
/// differing only in irrelevant indexes share a cache key.
std::string RelevanceSignature(const NormalizedQuery& query,
                               const std::vector<const CatalogEntry*>& entries,
                               ContainmentCache* cache);

/// Order-sensitive 64-bit fingerprint of a plan's externally observable
/// shape (access path, costs, cardinality) — query_id excluded, since
/// cached plans are re-labelled per requesting query. Used by tests and
/// the advisor trace to assert cached and fresh plans coincide.
uint64_t PlanFingerprint(const QueryPlan& plan);

/// Deterministic counter snapshot of an atomic-benefit table
/// (advisor/benefit_table.h; xia::obs "benefit.*" family). Lives here so
/// AdvisorCacheCounters can embed it without a layering inversion. All
/// four counters advance in serial phases only.
struct BenefitTableStats {
  uint64_t priced = 0;            // Subsets priced into the table.
  uint64_t table_hits = 0;        // Exact (class, overlap) lookups served.
  uint64_t composed = 0;          // Queries scored by the composed bound.
  uint64_t fallback_whatifs = 0;  // Real what-if calls issued as fallback.
  size_t entries = 0;
  bool truncated = false;
};

/// Combined cache counters the advisor searches report (SearchResult).
struct AdvisorCacheCounters {
  CostCacheStats cost;
  ContainmentCacheStats containment;
  /// All-zero unless the evaluator ran decomposed (benefit_table.h).
  BenefitTableStats benefit;
};

}  // namespace xia

#endif  // XIA_ADVISOR_COST_CACHE_H_
