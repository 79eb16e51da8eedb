#ifndef XIA_SERVER_SESSION_H_
#define XIA_SERVER_SESSION_H_

#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <string>

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
/// Concurrency contract: CommandDispatcher::Execute takes `mu` shared
/// for read-only verbs and exclusive for verbs that mutate the database,
/// catalog, or the capture/drift machinery, so any number of sessions
/// may run/advise/explain concurrently while `gen`/`load`/`analyze`/
/// `materialize`/`capture`/`drift` serialize against them. The caches
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

/// Verb classification the server's admission control needs before
/// dispatch: `kAdvise` verbs run the (expensive) advisor pipeline and
/// count against the max-in-flight-advises bound.
enum class VerbClass { kLight, kAdvise };

class CommandDispatcher {
 public:
  /// `shared` must outlive the dispatcher.
  explicit CommandDispatcher(SharedState* shared) : shared_(shared) {}

  /// Executes one command line for `session`, writing the reply to
  /// `out`. Takes SharedState::mu internally (shared or exclusive per
  /// verb). Unknown verbs report an error message but are kHandled.
  CommandOutcome Execute(const std::string& line, ClientSession* session,
                         std::ostream& out);

  /// Admission classification of `line` (by its first tokens) without
  /// executing anything: `advise` and `drift readvise` are kAdvise.
  static VerbClass Classify(const std::string& line);

  /// True when `verb` (lowercased first token) must hold SharedState::mu
  /// exclusively. Exposed for tests.
  static bool IsExclusiveVerb(const std::string& verb);

  /// Sub-token-aware overload: `update` is a session-workload edit
  /// (shared lock) when `sub` is insert|delete, and a DML document
  /// update (exclusive) otherwise. All other verbs ignore `sub`.
  static bool IsExclusiveVerb(const std::string& verb,
                              const std::string& sub);

 private:
  void CmdGen(std::istream& args, std::ostream& out);
  void CmdLoad(std::istream& args, std::ostream& out);
  void CmdSaveLoadColl(const std::string& verb, std::istream& args,
                       std::ostream& out);
  void CmdAnalyze(std::istream& args, std::ostream& out);
  void CmdWorkload(ClientSession* session, std::istream& args,
                   std::ostream& out);
  void CmdQuery(ClientSession* session, const std::string& rest,
                std::ostream& out);
  void CmdUpdate(ClientSession* session, const std::string& rest,
                 std::ostream& out);
  // DML verbs (src/dml): insert <coll> <xml...>, delete <coll> <doc>,
  // update <coll> <doc> <xml...>. All exclusive; WAL-logged when a
  // persistence engine is attached.
  void CmdInsert(const std::string& rest, std::ostream& out);
  void CmdDelete(std::istream& args, std::ostream& out);
  void CmdDmlUpdate(const std::string& rest, std::ostream& out);
  void CmdShow(ClientSession* session, std::istream& args, std::ostream& out);
  void CmdEnumerate(const std::string& rest, std::ostream& out);
  void CmdAdvise(ClientSession* session, std::istream& args,
                 std::ostream& out);
  void CmdWhatIf(ClientSession* session, std::istream& args,
                 std::ostream& out);
  void CmdDdl(ClientSession* session, std::ostream& out);
  void CmdMaterialize(ClientSession* session, std::ostream& out);
  void CmdRun(const std::string& rest, std::ostream& out);
  void CmdCapture(std::istream& args, std::ostream& out);
  void CmdLog(std::istream& args, std::ostream& out);
  void CmdDrift(ClientSession* session, std::istream& args,
                std::ostream& out);
  void CmdFailpoint(const std::string& rest, std::ostream& out);
  void CmdDb(std::istream& args, std::ostream& out);
  void CmdStats(std::ostream& out);

  /// Checkpoints after a successful bulk (unlogged) mutation when a
  /// persistence engine is attached; appends the outcome to `out`.
  void CheckpointAfterBulk(std::ostream& out);

  SharedState* shared_;
};

/// The `help` text (shared by REPL banner and the server's `help` verb).
const char* HelpText();

}  // namespace server
}  // namespace xia

#endif  // XIA_SERVER_SESSION_H_
