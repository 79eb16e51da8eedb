#include "wlm/capture.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "wlm/fingerprint.h"

namespace xia {
namespace wlm {

namespace detail {
std::atomic<QueryLog*> g_capture_log{nullptr};
}  // namespace detail

namespace {

/// Round-robin shard assignment, fixed per thread at first use (the same
/// scheme as obs::Counter striping): concurrent captors usually land on
/// different shards, serial capture always lands on one.
size_t NextShard() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % QueryLog::kShards;
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view CaptureKindName(CaptureKind kind) {
  switch (kind) {
    case CaptureKind::kQuery:
      return "query";
    case CaptureKind::kInsert:
      return "insert";
    case CaptureKind::kDelete:
      return "delete";
    case CaptureKind::kUpdate:
      return "update";
  }
  return "query";
}

std::optional<CaptureKind> CaptureKindFromName(std::string_view name) {
  if (name == "query") return CaptureKind::kQuery;
  if (name == "insert") return CaptureKind::kInsert;
  if (name == "delete") return CaptureKind::kDelete;
  if (name == "update") return CaptureKind::kUpdate;
  return std::nullopt;
}

std::string QueryLogStats::ToString() const {
  return "captured " + std::to_string(captured) + ", dropped " +
         std::to_string(dropped) + ", holding " + std::to_string(size) +
         "/" + std::to_string(capacity);
}

size_t QueryLog::ShardIndex() {
  thread_local size_t shard = NextShard();
  return shard;
}

QueryLog::QueryLog(size_t capacity)
    : per_shard_capacity_((capacity + kShards - 1) / kShards) {
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
}

Status QueryLog::Append(CaptureRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  // The failpoint sits after sequence assignment so arg-matched specs can
  // fail "the k-th captured query" deterministically even when capture
  // runs concurrently (hit order races, sequence values do not). A trip
  // is a lost record, counted like a ring overwrite.
  Status injected = [&]() -> Status {
    XIA_FAILPOINT_ARG("wlm.capture.append",
                      static_cast<int64_t>(record.seq));
    return Status::Ok();
  }();
  if (!injected.ok()) {
    dropped_.Increment();
    return injected;
  }
  Shard& shard = shards_[ShardIndex()];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.ring.size() < per_shard_capacity_) {
    shard.ring.push_back(std::move(record));
  } else {
    shard.ring[shard.next] = std::move(record);
    shard.next = (shard.next + 1) % per_shard_capacity_;
    dropped_.Increment();
  }
  captured_.Increment();
  return Status::Ok();
}

std::vector<CaptureRecord> QueryLog::Snapshot() const {
  std::vector<CaptureRecord> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.ring.begin(), shard.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const CaptureRecord& a, const CaptureRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

void QueryLog::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.ring.clear();
    shard.next = 0;
  }
}

QueryLogStats QueryLog::stats() const {
  QueryLogStats stats;
  stats.captured = captured_.Value();
  stats.dropped = dropped_.Value();
  stats.capacity = per_shard_capacity_ * kShards;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.size += shard.ring.size();
  }
  return stats;
}

void SetCaptureLog(QueryLog* log) {
  detail::g_capture_log.store(log, std::memory_order_release);
}

QueryLog* CaptureLog() {
  return detail::g_capture_log.load(std::memory_order_relaxed);
}

void MaybeCapture(const QueryPlan& plan) {
  QueryLog* log = CaptureLog();
  if (log == nullptr) return;
  // Plans produced before capture existed (or built by hand in tests)
  // may lack the originating text; without it the record could not be
  // re-advised, so it is not worth logging.
  if (plan.query_text.empty()) return;
  CaptureRecord record;
  record.timestamp_micros = NowMicros();
  record.est_cost = plan.total_cost;
  record.text = plan.query_text;
  record.fingerprint = TemplateFingerprint(plan.query);
  (void)log->Append(std::move(record));  // Lost records never fail queries.
}

void MaybeCaptureDml(CaptureKind kind, const std::string& collection,
                     const std::string& pattern, double maintenance_work) {
  QueryLog* log = CaptureLog();
  if (log == nullptr) return;
  if (kind == CaptureKind::kQuery) return;  // Misuse: drop, never fail.
  if (collection.empty() || pattern.empty()) return;
  CaptureRecord record;
  record.timestamp_micros = NowMicros();
  record.est_cost = maintenance_work;
  record.kind = kind;
  record.text = collection + " " + pattern;
  record.fingerprint = std::string("dml:") +
                       std::string(CaptureKindName(kind)) + ":" +
                       collection + ":" + pattern;
  (void)log->Append(std::move(record));
}

}  // namespace wlm
}  // namespace xia
