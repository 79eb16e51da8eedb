// Seeded request streams shared by the wire run and the traced run, so
// both send exactly the same requests for the same --seed.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/database.h"
#include "xml/name_table.h"

namespace perfbench {

// The server's data: `--preload xmark:16 --preload tpox`.
inline constexpr int kXMarkDocs = 16;
/// Space budget (KB) of every `advise` the benchmark sends.
inline constexpr int kAdviseBudgetKb = 64;
/// Seeded variations added to the XMark templates per `advise` op.
inline constexpr int kAdviseVariations = 100;
/// Unseen read variations per query shape in each seeded pool (XMark has
/// 8 shapes, TPoX 5).
inline constexpr int kUnseenPerShape = 16;
/// write_mix: a `db checkpoint` after every this many DML writes.
inline constexpr int kCheckpointEvery = 500;
/// write_mix: DML writes issued by the untimed preparation step, of
/// which the first kPrepInserts are inserts.
inline constexpr int kPrepWrites = 240;
inline constexpr int kPrepInserts = 160;

/// Generates the data of `xia_server --preload xmark:16 --preload tpox`
/// (same generators, sizes and seeds as src/server/server_main.cc), for
/// the in-process oracles and the traced run.
xia::Status PopulateServerData(xia::Database* db);
inline constexpr const char* kPreloadXMark = "xmark:16";
inline constexpr const char* kPreloadTpox = "tpox";
/// `order` documents the TPoX preload generates.
inline constexpr int kPreloadOrders = 100;

/// Mixes a stream tag into the run seed (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Closed-loop `run` request stream of one connection: half templates,
/// half drawn from a seeded, shape-stratified pool of unseen variations.
class ReadStream {
 public:
  /// `tpox_only` restricts both halves to the TPoX collections.
  ReadStream(uint64_t seed, int connection, bool tpox_only);
  /// The next request line (`run <query>`).
  std::string Next();
  /// Every distinct query text the stream can produce.
  const std::vector<std::string>& universe() const { return universe_; }

 private:
  xia::Random rng_;
  std::vector<std::string> templates_;
  std::vector<std::string> unseen_;
  std::vector<std::string> universe_;
};

/// The `query` lines of `advise` op `op`: kAdviseVariations seeded XMark
/// variations (the op's workload is `workload xmark` plus these).
std::vector<std::string> AdviseVariations(uint64_t seed, int op);

/// write_mix bookkeeping: which benchmark-written order documents are
/// live (marker -> doc id) and which markers were deleted or replaced.
/// Each written document version carries a unique marker as its
/// /FIXML/Order/@ID ("O<marker>").
struct Ledger {
  std::map<int64_t, int64_t> live;
  std::set<int64_t> dead;
  int64_t next_marker = 100000;
};

/// One writer request of write_mix.
struct WriteOp {
  enum class Kind { kInsert, kDelete, kUpdate, kCheckpoint };
  Kind kind = Kind::kInsert;
  std::string line;
  int64_t old_marker = -1;  // delete/update: the replaced document.
  int64_t new_marker = -1;  // insert/update: the written document.
  int64_t doc = -1;         // delete/update: the target doc id.
  std::string xml;          // insert/update: the document text.
};

/// Seeded insert/delete/update stream at exactly 40/40/20 over the
/// ledger's documents. The timed stream adds a checkpoint after every
/// kCheckpointEvery writes; the preparation stream (`prep`) starts with
/// kPrepInserts inserts and never checkpoints, so it leaves a WAL tail.
class WriteStream {
 public:
  WriteStream(uint64_t seed, Ledger* ledger, bool prep);
  WriteOp Next();
  /// Records an acknowledged op; `doc` is the id the reply reported.
  void Ack(const WriteOp& op, int64_t doc);

 private:
  xia::Random rng_;
  Ledger* ledger_;
  xia::NameTable names_;
  bool prep_;
  std::vector<WriteOp::Kind> block_;  // Rest of the current 5-write block.
  int writes_ = 0;
  int writes_since_checkpoint_ = 0;
};

/// The reply verb of a DML op: "inserted", "deleted" or "updated".
const char* DmlVerb(WriteOp::Kind kind);

/// The durability probe for one marker: a `run` whose result count is 1
/// when the document is live and 0 when it is gone.
std::string MarkerProbe(int64_t marker);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
