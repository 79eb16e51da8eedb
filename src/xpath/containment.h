#ifndef XIA_XPATH_CONTAINMENT_H_
#define XIA_XPATH_CONTAINMENT_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "xpath/path.h"

namespace xia {

/// Counter snapshot of a ContainmentCache. `entries` (the set of memoized
/// pairs) is deterministic for a deterministic sequence of queries; `hits`
/// and `misses` are not under concurrency — two threads racing on the same
/// uncached pair both count a miss where a serial run counts one miss and
/// one hit. Treat hit/miss as diagnostics, not invariants.
struct ContainmentCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;       // Memoized pairs across all shards.
  size_t shards = 0;
  size_t largest_shard = 0;  // Entries in the fullest shard.
};

/// Exact language containment for linear path patterns: true iff every
/// root-to-node path matched by `specific` is also matched by `general`
/// (L(specific) ⊆ L(general)), over all possible documents.
///
/// This single predicate drives index matching ("can index I answer query
/// pattern Q?" — I's pattern must contain Q), redundancy detection in the
/// greedy-heuristic search, and parent/child edges of the generalization
/// DAG. Decided by subset-constructing `general`'s NFA over the joint
/// finite alphabet and checking emptiness of L(specific) ∩ ¬L(general).
bool PatternContains(const PathPattern& general, const PathPattern& specific);

/// True iff the two patterns match a common root-to-node path in some
/// document (L(a) ∩ L(b) ≠ ∅). Used for update-cost overlap tests: an
/// update under pattern U can only touch index I if the patterns intersect.
bool PatternsIntersect(const PathPattern& a, const PathPattern& b);

/// Mutual containment.
bool PatternsEquivalent(const PathPattern& a, const PathPattern& b);

/// Memoizing wrapper around PatternContains. The advisor performs O(C²)
/// containment tests over the candidate set; this cache makes repeated
/// tests O(1).
///
/// Pairs the structural fast path decides — identical patterns, and
/// pairs where neither pattern has a `//` step — are answered directly,
/// with no hash, lock, or memo entry: that check costs less than a
/// lookup. Only pairs that need the automaton are memoized, so size()
/// and the hit/miss counters describe those pairs alone.
///
/// Thread-safe: the map is split into fixed shards, each behind its own
/// mutex, so concurrent what-if optimizations (which all funnel index
/// matching through one shared cache) contend only when two lookups hash
/// to the same shard. Misses compute PatternContains outside any lock —
/// two threads may race to compute the same pair, but the result is a
/// pure function of the patterns, so whichever insert lands first wins
/// and both observe the identical value.
class ContainmentCache {
 public:
  bool Contains(const PathPattern& general, const PathPattern& specific);

  /// Total memoized pairs across shards (takes every shard lock; meant
  /// for tests and reporting, not hot paths).
  size_t size() const;

  /// Hit/miss/shard-size counters (see ContainmentCacheStats caveats).
  ContainmentCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const std::pair<size_t, size_t>& k) const {
      return k.first * 1000003 + k.second;
    }
  };
  // Keyed by the two patterns' hashes; a hit is confirmed against the
  // stored patterns, so a hash collision is a miss, never a wrong answer.
  struct Entry {
    PathPattern general;
    PathPattern specific;
    bool contains = false;
  };
  using Map = std::unordered_map<std::pair<size_t, size_t>, Entry, KeyHash>;
  static constexpr size_t kNumShards = 16;
  struct Shard {
    std::mutex mu;
    Map map;
  };
  mutable std::array<Shard, kNumShards> shards_;
  // xia::obs counters (registry names "containment.*"): per-instance
  // reads via stats() keep their old semantics, while every live cache
  // also contributes to process-wide snapshots.
  obs::Counter hits_{"containment.hits"};
  obs::Counter misses_{"containment.misses"};
};

}  // namespace xia

#endif  // XIA_XPATH_CONTAINMENT_H_
