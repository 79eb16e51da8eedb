#include "advisor/cost_cache.h"

#include <cstring>
#include <functional>

#include "index/index_matcher.h"

namespace xia {

namespace {

// Field and record separators for fingerprint/identity strings: control
// characters that cannot occur in pattern text or index names, so the
// concatenations below stay injective.
constexpr char kFieldSep = '\x1f';
constexpr char kRecordSep = '\x1e';

/// Appends the exact bit pattern of `v` (as hex), so statistics that
/// differ only in the last ulp still produce distinct identities.
void AppendDoubleBits(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kHex[(bits >> shift) & 0xf]);
  }
  out->push_back(kFieldSep);
}

void AppendPattern(std::string* out, const PathPattern& pattern) {
  pattern.AppendTo(out);
  out->push_back(kFieldSep);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return Fnv1a(h, s.data(), s.size());
}

uint64_t FnvDouble(uint64_t h, double v) {
  return Fnv1a(h, &v, sizeof(v));
}

uint64_t FnvInt(uint64_t h, int64_t v) { return Fnv1a(h, &v, sizeof(v)); }

}  // namespace

bool WhatIfCostCache::Lookup(const std::string& key, QueryPlan* plan) {
  if (!enabled_) {
    bypasses_.Increment();
    return false;
  }
  Shard& shard = shards_[std::hash<std::string>()(key) % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      *plan = it->second;
      hits_.Increment();
      return true;
    }
  }
  misses_.Increment();
  return false;
}

void WhatIfCostCache::Insert(const std::string& key, const QueryPlan& plan) {
  if (!enabled_) return;
  Shard& shard = shards_[std::hash<std::string>()(key) % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.emplace(key, plan);  // First insert wins.
}

CostCacheStats WhatIfCostCache::stats() const {
  CostCacheStats s;
  s.hits = hits_.Value();
  s.misses = misses_.Value();
  s.bypasses = bypasses_.Value();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.map.size();
  }
  return s;
}

const CostRecord* CostRecordMemo::Lookup(const std::string& key) {
  const CostRecord* record = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(key);
    if (it != records_.end()) record = &it->second;
  }
  ledger_->CountLookup(record != nullptr);
  return record;
}

void CostRecordMemo::Insert(const std::string& key, const CostRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.emplace(key, record);  // First insert wins.
}

CostCacheStats CostRecordMemo::stats() const {
  CostCacheStats s = ledger_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  s.entries = records_.size();
  return s;
}

std::string QueryFingerprint(const NormalizedQuery& query) {
  std::string fp;
  fp.append(query.collection);
  fp.push_back(kFieldSep);
  AppendPattern(&fp, query.for_path);
  fp.push_back(kRecordSep);
  for (const QueryPredicate& pred : query.predicates) {
    AppendPattern(&fp, pred.pattern);
    fp.push_back(static_cast<char>('0' + static_cast<int>(pred.op)));
    fp.push_back(kFieldSep);
    fp.append(pred.literal);
    fp.push_back(kRecordSep);
  }
  fp.push_back(kRecordSep);
  for (const PathPattern& r : query.returns) AppendPattern(&fp, r);
  fp.push_back(kRecordSep);
  for (const PathPattern& o : query.order_by) AppendPattern(&fp, o);
  return fp;
}

std::string CatalogEntryIdentity(const CatalogEntry& entry) {
  std::string id;
  id.append(entry.def.name);
  id.push_back(kFieldSep);
  id.append(entry.def.collection);
  id.push_back(kFieldSep);
  AppendPattern(&id, entry.def.pattern);
  id.push_back(static_cast<char>('0' + static_cast<int>(entry.def.type)));
  id.push_back(entry.is_virtual ? 'v' : 'p');
  id.push_back(kFieldSep);
  AppendDoubleBits(&id, entry.stats.entries);
  AppendDoubleBits(&id, entry.stats.size_bytes);
  AppendDoubleBits(&id, entry.stats.leaf_pages);
  id.append(std::to_string(entry.stats.height));
  id.push_back(kFieldSep);
  AppendDoubleBits(&id, entry.stats.distinct);
  AppendDoubleBits(&id, entry.stats.avg_key_bytes);
  return id;
}

std::string RelevanceSignature(const NormalizedQuery& query,
                               const std::vector<const CatalogEntry*>& entries,
                               ContainmentCache* cache) {
  IndexMatcher matcher(cache);
  std::string sig;
  for (const CatalogEntry* entry : entries) {
    if (!matcher.CanServe(query, entry->def)) continue;
    sig.append(CatalogEntryIdentity(*entry));
    sig.push_back(kRecordSep);
  }
  return sig;
}

uint64_t PlanFingerprint(const QueryPlan& plan) {
  uint64_t h = 14695981039346656037ull;
  h = FnvInt(h, plan.access.use_index ? 1 : 0);
  if (plan.access.use_index) {
    h = FnvString(h, plan.access.index_def.name);
    h = FnvInt(h, static_cast<int>(plan.access.use));
    h = FnvInt(h, plan.access.served_predicate);
    h = FnvInt(h, plan.access.needs_verify ? 1 : 0);
    h = FnvDouble(h, plan.access.est_entries_fetched);
    h = FnvInt(h, plan.access.has_secondary ? 1 : 0);
    if (plan.access.has_secondary) {
      h = FnvString(h, plan.access.secondary.index_def.name);
      h = FnvInt(h, static_cast<int>(plan.access.secondary.use));
      h = FnvInt(h, plan.access.secondary.served_predicate);
      h = FnvDouble(h, plan.access.secondary.est_entries_fetched);
    }
  }
  for (int r : plan.residual_predicates) h = FnvInt(h, r);
  h = FnvDouble(h, plan.est_cardinality);
  h = FnvDouble(h, plan.access_cost);
  h = FnvDouble(h, plan.residual_cost);
  h = FnvDouble(h, plan.sort_cost);
  h = FnvDouble(h, plan.total_cost);
  return h;
}

}  // namespace xia
