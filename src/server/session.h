#ifndef XIA_SERVER_SESSION_H_
#define XIA_SERVER_SESSION_H_

#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>

#include "advisor/advisor.h"
#include "advisor/cost_cache.h"
#include "advisor/whatif.h"
#include "index/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "wlm/capture.h"
#include "wlm/drift.h"
#include "workload/workload.h"
#include "xpath/containment.h"

namespace xia {
namespace server {

/// xia::server command layer — the advisor shell's verbs, extracted so
/// the interactive REPL (examples/advisor_shell.cpp) and the network
/// server (server/server.h) execute byte-identical commands against the
/// same state shapes. The REPL is one ClientSession over a private
/// SharedState; the server is many concurrent ClientSessions over one.

/// Everything every session sees: the database, the physical catalog,
/// the caches that make repeated advising cheap, and the workload-
/// management machinery. One instance per process (server) or per REPL.
///
/// Concurrency contract: CommandDispatcher::Execute takes `mu` per the
/// verb table's lock class — shared for read-only verbs, exclusive for
/// verbs that mutate the database, catalog, or the capture/drift
/// machinery — so any number of sessions may run/advise/explain
/// concurrently while `gen`/`load`/`analyze`/`materialize`/`capture`/
/// `drift` serialize against them. The caches
/// (`containment`, `what_if_cache`, `buffer_pool`) are internally
/// thread-safe and shared by design.
struct SharedState {
  Database db;
  Catalog catalog;
  /// Template for new sessions' AdvisorOptions (thread knob, time
  /// budget, cost model). Copied at session creation; never mutated by
  /// verbs afterwards.
  AdvisorOptions default_options;
  ContainmentCache containment;
  /// What-if hit/miss ledger every session's `advise` counts on (via
  /// AdvisorOptions::shared_cost_cache). It stores nothing: each advise's
  /// cost memo is keyed by ids local to that advise's evaluator, valid
  /// only inside it, so the memo dies with the advise.
  WhatIfCostCache what_if_cache;
  /// Shared page cache for `run` executions (warm across sessions).
  BufferPool buffer_pool{4096};
  /// Process-wide capture sink target. Created on first `capture on`;
  /// kept for the SharedState's lifetime so `log stats` and
  /// `advise --from-log` survive `capture off`.
  std::unique_ptr<wlm::QueryLog> capture_log;
  std::unique_ptr<wlm::DriftMonitor> drift;
  /// Persistence engine over db/catalog (storage/storage_engine.h).
  /// Null when the process runs memory-only (no --data-dir). When set,
  /// the mutating verbs route through it: load/analyze create WAL
  /// records, bulk verbs (gen/loadcoll/materialize) checkpoint, and
  /// startup recovers the previous run's state instead of regenerating.
  /// Guarded by `mu` like the db/catalog it persists.
  std::unique_ptr<storage::StorageEngine> engine;

  /// Reader/writer lock over db/catalog/capture_log/drift (see above).
  std::shared_mutex mu;
  /// Serializes lazy drift-monitor creation and prediction recording
  /// from concurrent `advise` verbs (which hold `mu` only shared).
  std::mutex drift_mu;

  /// The lazily-created drift monitor. Callers must hold `drift_mu`.
  wlm::DriftMonitor* DriftWatcher();
};

/// Per-session state: the hand-built workload, the last recommendation,
/// and the interactive what-if overlay. Sessions are single-threaded
/// (one command at a time per connection / per REPL).
struct ClientSession {
  explicit ClientSession(const SharedState& shared)
      : options(shared.default_options) {}

  AdvisorOptions options;  // Per-session copy (budget, algorithm, ...).
  Workload workload;
  std::optional<Recommendation> recommendation;
  std::optional<WhatIfSession> whatif;
};

/// What Execute() decided about a command line.
enum class CommandOutcome {
  kHandled,  // Executed (successfully or not); reply text written.
  kQuit,     // `quit` / `exit`: close the session.
};

/// How a verb holds SharedState::mu while its handler runs.
enum class LockClass { kNone, kShared, kExclusive };

/// Server admission: kAdvise verbs run the (expensive) advisor pipeline
/// and count against the max-in-flight-advises bound.
enum class Admission { kLight, kAdvise };

/// Serving-state probes the Server answers itself, before dispatch and
/// without locks (server.h). The dispatcher's own handlers for them are
/// the REPL's fallbacks.
enum class ServerProbe { kNone, kHealth, kReady, kDrain };

struct VerbSpec;

/// One request line, tokenized once: the first two tokens lowercased,
/// plus the argument text with its case kept. Like `>>`, tokens split on
/// whitespace; arguments end at the first newline after the verb.
struct Command {
  std::string verb;  // First token, lowercased; "" for a blank line.
  std::string sub;   // Second token, lowercased; "" when absent.
  std::string rest;  // Everything after the verb.
  std::string args;  // Everything after the second token.
  const VerbSpec* spec = nullptr;  // Table row; null for unknown verbs.
};

/// Every handler has this shape; it runs under the row's lock class.
using VerbHandler = void (*)(SharedState& shared, ClientSession& session,
                             const Command& command, std::ostream& out);

/// One row of the verb table (session.cc) — the single source of truth
/// for what the REPL, the server, `help` and the retrying client know
/// about a verb.
struct VerbSpec {
  std::string_view verb;
  /// A literal sub-verb, "" for the bare verb, or "*" for every other
  /// second token. A sub-verb row wins over its verb's "*" row.
  std::string_view sub = "*";
  LockClass lock = LockClass::kShared;
  Admission admission = Admission::kLight;
  /// Safe to re-send after an ambiguous transport failure: read-only,
  /// or session-local state that a reconnect loses anyway.
  bool idempotent = false;
  ServerProbe probe = ServerProbe::kNone;
  /// Still answered (not GOAWAY) while the server drains.
  bool drain_ok = false;
  /// Null for `quit`/`exit`, which end the session.
  VerbHandler handler = nullptr;
  /// This row's `help` line; empty when a sibling's line covers it.
  std::string_view help = "";
};

/// The verb table, in `help` order.
std::span<const VerbSpec> VerbTable();

/// Tokenizes `line` and looks its verb up in the table.
Command ParseCommand(std::string_view line);

/// The `help` text: every row's help line, in table order.
const std::string& HelpText();

class CommandDispatcher {
 public:
  /// `shared` must outlive the dispatcher.
  explicit CommandDispatcher(SharedState* shared) : shared_(shared) {}

  /// Executes one command line for `session`, writing the reply to
  /// `out`. Takes SharedState::mu per the verb's lock class. Unknown
  /// verbs report an error message but are kHandled.
  CommandOutcome Execute(const std::string& line, ClientSession* session,
                         std::ostream& out);

 private:
  SharedState* shared_;
};

}  // namespace server
}  // namespace xia

#endif  // XIA_SERVER_SESSION_H_
