#ifndef XIA_WLM_CAPTURE_H_
#define XIA_WLM_CAPTURE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "optimizer/plan.h"

namespace xia {
namespace wlm {

/// xia::wlm — workload management: capture the live query stream, compress
/// it into an advisable weighted workload, and notice when the current
/// index configuration has gone stale (see wlm/compress.h, wlm/drift.h).
///
/// This header is the capture side: a bounded, sharded ring log fed by
/// hooks on the query and DML paths. The hooks follow the XIA_SPAN /
/// failpoint discipline — disarmed (no log installed) they cost exactly
/// one relaxed atomic load, so the query hook can sit in Executor::Execute
/// unconditionally (verified by a bench_micro entry).

/// What a capture record describes: a query execution or a DML statement
/// (src/dml). The read/write mix of the captured stream is what makes
/// maintenance-aware advising possible — compression turns DML records
/// into UpdateOps that charge candidate indexes for their upkeep.
enum class CaptureKind : uint8_t {
  kQuery = 0,
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
};

/// Stable wire name ("query", "insert", "delete", "update") — the token
/// the versioned capture-log format (wlm/wlm_io.h) writes and parses.
std::string_view CaptureKindName(CaptureKind kind);
std::optional<CaptureKind> CaptureKindFromName(std::string_view name);

/// One captured query execution or DML statement.
struct CaptureRecord {
  /// Global capture sequence number (assigned by QueryLog::Append);
  /// snapshots sort by it, so serial capture order is reproduced exactly.
  uint64_t seq = 0;
  /// Wall-clock capture time, microseconds since the Unix epoch.
  /// Informational only: compression ignores it, so two logs with equal
  /// {text, cost} multisets compress byte-identically.
  int64_t timestamp_micros = 0;
  /// Optimizer-estimated cost of the executed plan; for DML records, the
  /// index-maintenance work performed (entries inserted + removed).
  double est_cost = 0;
  /// Query or DML statement (see `kind`).
  CaptureKind kind = CaptureKind::kQuery;
  /// For kQuery: raw query text, re-parseable by ParseQuery (what
  /// `advise --from-log` feeds back into the advisor). For DML kinds:
  /// "<collection> <root-pattern>" — the pattern-level summary the
  /// compressor turns into an UpdateOp.
  std::string text;
  /// Template fingerprint (wlm/fingerprint.h): literals stripped. DML
  /// records fingerprint as "dml:<kind>:<collection>:<pattern>", so all
  /// mutations of the same shape cluster into one UpdateOp.
  std::string fingerprint;
};

/// Counts for `log stats` displays; the same numbers feed the obs
/// counters "wlm.captured" and "wlm.dropped".
struct QueryLogStats {
  uint64_t captured = 0;  // Appends accepted (lifetime, this instance).
  uint64_t dropped = 0;   // Overwritten by ring wrap + failed appends.
  uint64_t size = 0;      // Records currently held.
  uint64_t capacity = 0;  // Maximum records held.

  std::string ToString() const;
};

/// Bounded sharded ring log of captured queries.
///
/// Appends take one shard mutex (shard picked by a per-thread stripe, so
/// concurrent captors usually touch different shards and different cache
/// lines). When a shard ring is full the oldest record in that shard is
/// overwritten and counted as dropped — capture is lossy by design; the
/// compressor's frequency weights come from what survived.
///
/// Failure injection: Append hits the "wlm.capture.append" failpoint
/// (arg = sequence number). A tripped append drops the record and counts
/// it — it never propagates into the query that was being captured.
class QueryLog {
 public:
  static constexpr size_t kShards = 8;

  /// `capacity` is the total record bound across shards (rounded up to a
  /// multiple of kShards, minimum one record per shard).
  explicit QueryLog(size_t capacity = 4096);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends one record (seq is assigned here; any caller-set value is
  /// overwritten). Returns the injected error when the capture failpoint
  /// trips — callers on the query path must treat that as "record lost",
  /// never as a query failure (MaybeCapture does exactly that).
  Status Append(CaptureRecord record);

  /// All live records, sorted by sequence number (deterministic for any
  /// fixed log contents regardless of shard layout).
  std::vector<CaptureRecord> Snapshot() const;

  /// Drops every record. Lifetime captured/dropped counts are retained.
  void Clear();

  QueryLogStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<CaptureRecord> ring;  // Capacity-sized once warm.
    size_t next = 0;                  // Overwrite cursor once full.
  };

  /// The calling thread's shard index (stable per thread).
  static size_t ShardIndex();

  size_t per_shard_capacity_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> seq_{0};
  // xia::obs counters: lifetime accepted/lost records across all
  // QueryLog instances (registry-attached; retained over destruction).
  obs::Counter captured_{"wlm.captured"};
  obs::Counter dropped_{"wlm.dropped"};
};

/// Installs `log` as the process-wide capture sink (nullptr disarms).
/// The caller owns the log and must keep it alive while installed —
/// install order: construct, install; disarm before destroying.
/// Prefer ScopedCaptureLog wherever a scope owns the log: it makes the
/// disarm exception-safe.
void SetCaptureLog(QueryLog* log);

/// The installed sink, or nullptr. One relaxed atomic load.
QueryLog* CaptureLog();

/// True when capture is armed. One relaxed atomic load — this is the
/// whole disarmed cost of the hooks below.
inline bool CaptureEnabled();

/// Capture hook for call sites holding an optimized plan (the executor):
/// records the plan's originating query text, its template fingerprint,
/// and its estimated total cost. No-op (one relaxed load) when disarmed;
/// a full record append when armed. Never fails the caller: a tripped
/// capture failpoint or a missing query text only drops the record.
void MaybeCapture(const QueryPlan& plan);

/// Capture hook for the DML path (server insert/delete/update verbs):
/// records the mutation at pattern granularity — `pattern` is the
/// affected document's root pattern (DmlResult::root_pattern) and
/// `maintenance_work` the index entries touched. Same no-fail contract
/// as the query hook; `kind` must not be kQuery.
void MaybeCaptureDml(CaptureKind kind, const std::string& collection,
                     const std::string& pattern, double maintenance_work);

/// RAII guard for the process-wide capture sink: remembers the sink
/// installed at construction (optionally installing `log` first) and
/// restores it on destruction.
///
/// This is the only safe way to arm capture from a scope that owns the
/// log: if anything between arm and disarm throws — a REPL command, a
/// server request — stack unwinding restores the previous sink *before*
/// the owning scope destroys the log, so the hooks can never fire
/// against a destroyed QueryLog. Declare the guard AFTER the log's owner
/// (guards destruct first). Restore semantics (rather than
/// unconditional disarm) make nested guards compose in tests.
class ScopedCaptureLog {
 public:
  /// Pure guard: installs nothing now; restores the current sink later.
  ScopedCaptureLog() : previous_(CaptureLog()) {}

  /// Installs `log` (nullptr = disarm) and restores the previous sink on
  /// destruction.
  explicit ScopedCaptureLog(QueryLog* log) : previous_(CaptureLog()) {
    SetCaptureLog(log);
  }

  ~ScopedCaptureLog() { SetCaptureLog(previous_); }

  ScopedCaptureLog(const ScopedCaptureLog&) = delete;
  ScopedCaptureLog& operator=(const ScopedCaptureLog&) = delete;

 private:
  QueryLog* previous_;
};

namespace detail {
extern std::atomic<QueryLog*> g_capture_log;
}  // namespace detail

inline bool CaptureEnabled() {
  return detail::g_capture_log.load(std::memory_order_relaxed) != nullptr;
}

}  // namespace wlm
}  // namespace xia

#endif  // XIA_WLM_CAPTURE_H_
