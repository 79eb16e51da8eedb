#include "streams.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "workload/tpox_queries.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xml/serializer.h"
#include "xmldata/docgen.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace perfbench {

xia::Status PopulateServerData(xia::Database* db) {
  XIA_RETURN_IF_ERROR(xia::PopulateXMark(db, "xmark", kXMarkDocs,
                                         xia::XMarkParams(), 42));
  return xia::PopulateTpox(db, 50, kPreloadOrders, 20, xia::TpoxParams(),
                           11);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

std::string OneLine(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

std::vector<std::string> Texts(const xia::Workload& workload) {
  std::vector<std::string> out;
  for (const xia::Query& q : workload.queries()) out.push_back(OneLine(q.text));
  return out;
}

/// A query's shape: its text with numbers, quoted literals and XMark
/// region names blanked, so every variation of one generator case has
/// the same shape.
std::string Shape(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    char c = text[i];
    if (c >= '0' && c <= '9') {
      while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
      out += '#';
    } else if (c == '"') {
      size_t close = text.find('"', i + 1);
      i = close == std::string::npos ? text.size() : close + 1;
      out += "\"\"";
    } else {
      out += c;
      ++i;
    }
  }
  for (const std::string& region : xia::docgen::Regions()) {
    for (size_t at = out.find("/" + region + "/"); at != std::string::npos;
         at = out.find("/" + region + "/", at)) {
      out.replace(at + 1, region.size(), "*");
    }
  }
  return out;
}

/// A seeded pool with exactly kUnseenPerShape queries of every shape the
/// generator produces (in generation order), so the pool's mix of query
/// kinds, and with it the load, is the same for every seed; only the
/// literals and regions vary.
std::vector<std::string> StratifiedPool(
    const std::function<xia::Workload(xia::Random*, int)>& generate,
    xia::Random* rng) {
  constexpr int kDraws = 4096;
  std::map<std::string, int> taken;
  std::vector<std::string> pool;
  for (const std::string& text : Texts(generate(rng, kDraws))) {
    int& n = taken[Shape(text)];
    if (n < kUnseenPerShape) {
      ++n;
      pool.push_back(text);
    }
  }
  return pool;
}

}  // namespace

ReadStream::ReadStream(uint64_t seed, int connection, bool tpox_only)
    : rng_(SubSeed(seed, 100 + static_cast<uint64_t>(connection))) {
  // The unseen pools depend on the seed only, so every connection (and
  // the traced run) draws from the same pool.
  xia::Random pool_rng(SubSeed(seed, 1));
  templates_ = Texts(xia::MakeTpoxWorkload());
  unseen_ = StratifiedPool(
      [](xia::Random* rng, int n) {
        return xia::MakeTpoxUnseenWorkload(rng, n);
      },
      &pool_rng);
  if (!tpox_only) {
    std::vector<std::string> xmark = Texts(xia::MakeXMarkWorkload("xmark"));
    templates_.insert(templates_.end(), xmark.begin(), xmark.end());
    std::vector<std::string> xmark_unseen = StratifiedPool(
        [](xia::Random* rng, int n) {
          return xia::MakeXMarkUnseenWorkload("xmark", rng, n);
        },
        &pool_rng);
    unseen_.insert(unseen_.end(), xmark_unseen.begin(), xmark_unseen.end());
  }
  universe_ = templates_;
  universe_.insert(universe_.end(), unseen_.begin(), unseen_.end());
  std::sort(universe_.begin(), universe_.end());
  universe_.erase(std::unique(universe_.begin(), universe_.end()),
                  universe_.end());
}

std::string ReadStream::Next() {
  const std::vector<std::string>& half =
      rng_.Bernoulli(0.5) ? templates_ : unseen_;
  return "run " + rng_.Choice(half);
}

std::vector<std::string> AdviseVariations(uint64_t seed, int op) {
  xia::Random rng(SubSeed(seed, 1000 + static_cast<uint64_t>(op)));
  std::vector<std::string> out;
  for (const std::string& text : Texts(
           xia::MakeXMarkUnseenWorkload("xmark", &rng, kAdviseVariations))) {
    out.push_back("query 1 " + text);
  }
  return out;
}

WriteStream::WriteStream(uint64_t seed, Ledger* ledger, bool prep)
    : rng_(SubSeed(seed, prep ? 3 : 2)), ledger_(ledger), prep_(prep) {}

WriteOp WriteStream::Next() {
  WriteOp op;
  if (!prep_ && writes_since_checkpoint_ >= kCheckpointEvery) {
    writes_since_checkpoint_ = 0;
    op.kind = WriteOp::Kind::kCheckpoint;
    op.line = "db checkpoint";
    return op;
  }
  ++writes_since_checkpoint_;
  if (prep_ && writes_ < kPrepInserts) {
    op.kind = WriteOp::Kind::kInsert;
  } else {
    // Blocks of 2 inserts, 2 deletes and 1 update in seeded order: exactly
    // 40/40/20, and the live document count never drifts more than two
    // from where it started, so the collection size stays stationary.
    if (block_.empty()) {
      block_ = {WriteOp::Kind::kInsert, WriteOp::Kind::kInsert,
                WriteOp::Kind::kDelete, WriteOp::Kind::kDelete,
                WriteOp::Kind::kUpdate};
      for (size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[static_cast<size_t>(
                                 rng_.Uniform(0, static_cast<int64_t>(i)))]);
      }
    }
    op.kind = block_.back();
    block_.pop_back();
  }
  if (ledger_->live.empty()) op.kind = WriteOp::Kind::kInsert;
  ++writes_;
  if (op.kind != WriteOp::Kind::kInsert) {
    auto it = ledger_->live.begin();
    std::advance(it, rng_.Uniform(0, static_cast<int64_t>(
                                         ledger_->live.size()) - 1));
    op.old_marker = it->first;
    op.doc = it->second;
  }
  if (op.kind != WriteOp::Kind::kDelete) {
    op.new_marker = ledger_->next_marker++;
    xia::Document doc = xia::GenerateTpoxOrder(
        &names_, xia::TpoxParams(), &rng_, static_cast<int>(op.new_marker));
    op.xml = xia::SerializeDocument(doc, names_);
  }
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      op.line = "insert order " + op.xml;
      break;
    case WriteOp::Kind::kDelete:
      op.line = "delete order " + std::to_string(op.doc);
      break;
    case WriteOp::Kind::kUpdate:
      op.line = "update order " + std::to_string(op.doc) + " " + op.xml;
      break;
    case WriteOp::Kind::kCheckpoint:
      break;
  }
  return op;
}

void WriteStream::Ack(const WriteOp& op, int64_t doc) {
  if (op.old_marker >= 0) {
    ledger_->live.erase(op.old_marker);
    ledger_->dead.insert(op.old_marker);
  }
  if (op.new_marker >= 0) ledger_->live[op.new_marker] = doc;
}

const char* DmlVerb(WriteOp::Kind kind) {
  return kind == WriteOp::Kind::kInsert   ? "inserted"
         : kind == WriteOp::Kind::kDelete ? "deleted"
                                          : "updated";
}

std::string MarkerProbe(int64_t marker) {
  return "run for $o in doc(\"order\")/FIXML/Order where $o/@ID = \"O" +
         std::to_string(marker) + "\" return $o/OrderQty";
}

}  // namespace perfbench
