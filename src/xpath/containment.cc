#include "xpath/containment.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "xpath/nfa.h"

namespace xia {

namespace {

/// Fast path: step-wise structural check that handles the common cases
/// (identical patterns; pointwise `*` generalization without `//`). Falls
/// back to the exact automaton check otherwise. Returns -1 for "unknown".
int FastContains(const PathPattern& general, const PathPattern& specific) {
  if (general == specific) return 1;
  if (!general.HasDescendantAxis() && !specific.HasDescendantAxis()) {
    if (general.length() != specific.length()) return 0;
    for (size_t i = 0; i < general.length(); ++i) {
      if (!general.steps()[i].TestCovers(specific.steps()[i])) return 0;
    }
    return 1;
  }
  return -1;
}

}  // namespace

bool PatternContains(const PathPattern& general, const PathPattern& specific) {
  int fast = FastContains(general, specific);
  if (fast >= 0) return fast == 1;

  const std::vector<PatternSymbol> alphabet =
      ContainmentAlphabet(general, specific);
  PatternNfa gen_nfa(general);
  PatternNfa spec_nfa(specific);

  // BFS over (specific NFA state set, general NFA state set) pairs: a
  // counterexample is a reachable pair where specific accepts and general
  // does not. Both sets are 64-bit masks, so pairs are cheap to dedupe.
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::queue<std::pair<uint64_t, uint64_t>> frontier;
  const auto start = std::make_pair(spec_nfa.StartSet(), gen_nfa.StartSet());
  seen.insert(start);
  frontier.push(start);
  while (!frontier.empty()) {
    auto [spec_states, gen_states] = frontier.front();
    frontier.pop();
    if (spec_nfa.Accepts(spec_states) && !gen_nfa.Accepts(gen_states)) {
      return false;
    }
    for (const PatternSymbol& sym : alphabet) {
      uint64_t next_spec = spec_nfa.Advance(spec_states, sym);
      if (next_spec == 0) continue;  // Specific dead: no counterexample here.
      uint64_t next_gen = gen_nfa.Advance(gen_states, sym);
      auto key = std::make_pair(next_spec, next_gen);
      if (seen.insert(key).second) frontier.push(key);
    }
  }
  return true;
}

bool PatternsIntersect(const PathPattern& a, const PathPattern& b) {
  const std::vector<PatternSymbol> alphabet = ContainmentAlphabet(a, b);
  PatternNfa na(a);
  PatternNfa nb(b);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::queue<std::pair<uint64_t, uint64_t>> frontier;
  const auto start = std::make_pair(na.StartSet(), nb.StartSet());
  seen.insert(start);
  frontier.push(start);
  while (!frontier.empty()) {
    auto [sa, sb] = frontier.front();
    frontier.pop();
    if (na.Accepts(sa) && nb.Accepts(sb)) return true;
    for (const PatternSymbol& sym : alphabet) {
      uint64_t next_a = na.Advance(sa, sym);
      uint64_t next_b = nb.Advance(sb, sym);
      if (next_a == 0 || next_b == 0) continue;
      auto key = std::make_pair(next_a, next_b);
      if (seen.insert(key).second) frontier.push(key);
    }
  }
  return false;
}

bool PatternsEquivalent(const PathPattern& a, const PathPattern& b) {
  return PatternContains(a, b) && PatternContains(b, a);
}

bool ContainmentCache::Contains(const PathPattern& general,
                                const PathPattern& specific) {
  // Identical and `//`-free pairs are decided structurally in a few
  // step comparisons — cheaper than the hash and lock of a memo lookup,
  // and exactly what PatternContains would answer first anyway.
  int fast = FastContains(general, specific);
  if (fast >= 0) return fast == 1;

  auto key = std::make_pair(general.Hash(), specific.Hash());
  Shard& shard = shards_[KeyHash()(key) % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && it->second.general == general &&
        it->second.specific == specific) {
      hits_.Increment();
      return it->second.contains;
    }
  }
  // Compute outside the lock: the NFA product check is the expensive
  // part, and racing computations of the same pair agree by purity.
  misses_.Increment();
  bool result = PatternContains(general, specific);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map[key] = Entry{general, specific, result};
  return result;
}

size_t ContainmentCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

ContainmentCacheStats ContainmentCache::stats() const {
  ContainmentCacheStats s;
  s.hits = hits_.Value();
  s.misses = misses_.Value();
  s.shards = kNumShards;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.map.size();
    s.largest_shard = std::max(s.largest_shard, shard.map.size());
  }
  return s;
}

}  // namespace xia
