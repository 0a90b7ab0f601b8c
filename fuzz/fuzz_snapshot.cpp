// Fuzz harness for the storage layer's deserializers — the code that
// reads snapshot bytes a crashed, truncated, or hostile writer may have
// left on disk (src/storage/snapshot.*, src/dataset/table_io.*, the
// engine cache payload in src/engine/eval_engine.*, and the monitor
// checkpoint in src/stream/monitor.*).
//
// Properties checked on every input:
//   1. SnapshotReader::Parse either returns a container or throws
//      StorageError (a std::runtime_error) — never crashes, never
//      throws anything else.
//   2. A container that parses re-serializes through SnapshotWriter to
//      bytes that parse again with the same key and sections (the
//      format is canonical: parse-then-write is the identity on
//      accepted inputs).
//   3. DeserializeTable on arbitrary bytes returns a Table whose
//      content hash matches the embedded key, or throws StorageError —
//      a forged key must never produce a silently-wrong table.
//   4. EvalEngine::ImportCacheState over a fixed 300-row table either
//      throws StorageError or accepts under every importing shard plan
//      alike, keeps the payload's predicate ids, and re-slices exactly:
//      a restored shard holds the payload's bits and a shard that needed
//      an evicted payload segment holds a fresh evaluation. For a payload
//      ExportCacheState wrote over this table — the checked-in engine
//      seeds — every restored predicate therefore evaluates identically
//      to a fresh engine. (The payload carries no checksum of its own;
//      the snapshot container's CRC is what catches flipped bits in it.)
//      A compressed segment (tag 1, written by earlier releases) counts
//      as evicted. Two route bytes lead here, so the seeds of the
//      retired segment route keep their place in the corpus.
//   5. StreamMonitor::ImportState of a checkpoint into a fixed monitor
//      over the same table either throws StorageError (or another
//      std::runtime_error), or accepts and has caught up: origin +
//      rows_observed equals the table's row count, and the window holds
//      at most size_rows + slide_rows rows. The seeds cover a valid
//      checkpoint, a table behind it, a window hash mismatch and a
//      next boundary behind the stream position.
//
// Links against libFuzzer under clang (-DCAUSUMX_FUZZERS=ON); under GCC
// the same TU builds as a standalone corpus replayer (see
// standalone_main.h).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <memory>
#include <vector>

#include "dataset/pattern.h"
#include "dataset/table.h"
#include "dataset/table_io.h"
#include "engine/eval_engine.h"
#include "storage/bytes.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "stream/monitor.h"

#include "fuzz/standalone_main.h"

namespace {

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_snapshot: %s: %s\n", what, detail.c_str());
  std::abort();
}

void CheckContainer(const std::string& bytes) {
  bool accepted = false;
  try {
    const causumx::SnapshotReader reader =
        causumx::SnapshotReader::Parse(bytes, "fuzz-kind", 1);
    accepted = true;
    // Accepted input: rebuilding the container must reproduce an
    // equivalent, parseable file.
    causumx::SnapshotWriter writer("fuzz-kind", 1, reader.key());
    for (const std::string& name : reader.SectionNames()) {
      writer.AddSection(name, reader.Section(name));
    }
    const std::string rebuilt = writer.Serialize();
    const causumx::SnapshotReader again =
        causumx::SnapshotReader::Parse(rebuilt, "fuzz-kind", 1);
    if (again.key() != reader.key()) {
      Die("round-trip changed key", again.key());
    }
    if (again.SectionNames() != reader.SectionNames()) {
      Die("round-trip changed section list", "");
    }
    for (const std::string& name : reader.SectionNames()) {
      if (again.Section(name) != reader.Section(name)) {
        Die("round-trip changed section payload", name);
      }
    }
  } catch (const causumx::StorageError& e) {
    // Typed rejection of hostile bytes is correct — but rejecting the
    // writer's own output is a canonicalization bug.
    if (accepted) Die("round-trip of accepted container rejected", e.what());
  }
}

void CheckTable(const std::string& bytes) {
  causumx::Table table;
  try {
    table = causumx::DeserializeTable(bytes);
  } catch (const causumx::StorageError&) {
    return;  // typed rejection is correct
  }
  // An accepted table must re-serialize and parse back identically —
  // in particular the embedded content hash must still verify.
  const std::string rebuilt = causumx::SerializeTable(table);
  const causumx::Table again = causumx::DeserializeTable(rebuilt);
  if (again.NumRows() != table.NumRows() ||
      again.NumColumns() != table.NumColumns()) {
    Die("table round-trip changed shape", "");
  }
  if (causumx::TableContentHash(again) != causumx::TableContentHash(table)) {
    Die("table round-trip changed content hash", "");
  }
}

// The table every engine payload imports over: 300 rows (not a whole
// number of 64-row blocks), one column of each type, some nulls.
const std::shared_ptr<const causumx::Table>& FuzzTable() {
  static const std::shared_ptr<const causumx::Table> table = [] {
    auto t = std::make_shared<causumx::Table>();
    t->AddColumn("c", causumx::ColumnType::kCategorical);
    t->AddColumn("i", causumx::ColumnType::kInt64);
    t->AddColumn("d", causumx::ColumnType::kDouble);
    const char* cats[] = {"x", "y", "z"};
    for (size_t r = 0; r < 300; ++r) {
      t->AddRow({r % 7 == 0 ? causumx::Value() : causumx::Value(cats[r % 3]),
                 causumx::Value(static_cast<int64_t>(r % 10)),
                 r % 11 == 0 ? causumx::Value()
                             : causumx::Value(static_cast<double>(r % 13) -
                                              6.0)});
    }
    return std::shared_ptr<const causumx::Table>(std::move(t));
  }();
  return table;
}

// One predicate of an accepted payload: its definition, its bits on the
// payload's own plan, and which source shards were resident.
struct PayloadPredicate {
  causumx::SimplePredicate pred;
  causumx::Bitset bits;
  std::vector<bool> resident;
};

// Decodes a payload ImportCacheState accepted (so decoding cannot fail).
std::vector<PayloadPredicate> DecodeAccepted(const std::string& bytes,
                                             size_t* shard_rows) {
  causumx::ByteReader r(bytes);
  const size_t rows = r.GetU64();
  const size_t num_shards = r.GetVarint();
  *shard_rows = r.GetVarint();
  r.GetU8();
  r.GetU8();
  std::vector<PayloadPredicate> out(r.GetVarint());
  for (PayloadPredicate& p : out) {
    p.pred.attribute = r.GetString();
    p.pred.op = static_cast<causumx::CompareOp>(r.GetU8());
    switch (r.GetU8()) {
      case 1: p.pred.value = causumx::Value(r.GetVarintSigned()); break;
      case 2: p.pred.value = causumx::Value(r.GetDouble()); break;
      case 3: p.pred.value = causumx::Value(r.GetString()); break;
      default: break;
    }
    p.bits = causumx::Bitset(rows);
    p.resident.assign(r.GetVarint(), false);
    for (size_t s = 0; s < num_shards; ++s) {
      if (r.GetU8() == 0) continue;
      const std::string seg_bytes = r.GetString();
      causumx::ByteReader seg(seg_bytes);
      if (seg.GetU8() != 0) continue;  // compressed: restored as evicted
      causumx::Bitset bits(seg.GetVarint());
      for (size_t i = 0; i < bits.num_words(); ++i) {
        bits.mutable_data()[i] = seg.GetU64();
      }
      p.bits.AssignRange(s * *shard_rows, bits);
      p.resident[s] = true;
    }
  }
  return out;
}

void CheckEngineImport(const std::string& bytes) {
  const std::shared_ptr<const causumx::Table>& table = FuzzTable();
  // One whole-table shard and five 64-row shards: every payload plan
  // gets merged into the first and split (or shared) into the second.
  int accepted = 0;
  for (size_t shards : {size_t{1}, size_t{5}}) {
    causumx::EvalEngineOptions options;
    options.num_shards = shards;
    causumx::EvalEngine engine(table, options);
    try {
      engine.ImportCacheState(bytes);
    } catch (const causumx::StorageError&) {
      continue;  // typed rejection is correct
    }
    ++accepted;
    size_t src_shard_rows = 0;
    const std::vector<PayloadPredicate> payload =
        DecodeAccepted(bytes, &src_shard_rows);
    if (engine.NumInterned() != payload.size()) {
      Die("import changed the predicate count", "");
    }
    const causumx::ShardPlan& plan = engine.plan();
    for (size_t id = 0; id < payload.size(); ++id) {
      const PayloadPredicate& p = payload[id];
      if (engine.Intern(p.pred) != id) {
        Die("import changed a predicate id", p.pred.ToString());
      }
      // Each target shard carries the payload's bits iff every source
      // segment covering it was resident; the others evaluate fresh.
      std::vector<bool> carried(plan.NumShards(), true);
      bool needs_fresh = false;
      for (size_t t = 0; t < plan.NumShards(); ++t) {
        for (size_t s = plan.ShardBegin(t) / src_shard_rows;
             s * src_shard_rows < plan.ShardEnd(t) && s < p.resident.size();
             ++s) {
          carried[t] = carried[t] && p.resident[s];
        }
        needs_fresh = needs_fresh || !carried[t];
      }
      causumx::Bitset fresh;
      if (needs_fresh) {
        try {
          fresh = causumx::Pattern({p.pred}).Evaluate(*table);
        } catch (const std::exception&) {
          continue;  // names no column of this table: nothing to compare
        }
      }
      causumx::Bitset expected(table->NumRows());
      for (size_t t = 0; t < plan.NumShards(); ++t) {
        const size_t begin = plan.ShardBegin(t);
        const size_t end = plan.ShardEnd(t);
        expected.AssignRange(
            begin, (carried[t] ? p.bits : fresh).ExtractRange(begin, end));
      }
      if (!(*engine.PredicateBits(static_cast<causumx::PredicateId>(id)) ==
            expected)) {
        Die("imported predicate evaluates wrongly", p.pred.ToString());
      }
    }
  }
  if (accepted == 1) Die("import acceptance depends on the shard plan", "");
}

// The monitor every checkpoint imports into: a sliding window over the
// fuzz table's columns, created when the table held its first 100 rows.
constexpr char kMonitorSpec[] =
    "{\"table\":\"t\",\"group_by\":[\"c\"],\"avg\":\"d\","
    "\"dag_text\":\"i -> d\\nc -> d\\n\",\"grouping_attrs\":[\"c\"],"
    "\"treatment_attrs\":[\"i\"],\"emit_summaries\":true,"
    "\"window\":{\"kind\":\"sliding\",\"size_rows\":100,"
    "\"slide_rows\":50}}";
constexpr size_t kMonitorOrigin = 100;
constexpr size_t kMonitorMaxWindow = 150;

void CheckMonitorImport(const std::string& bytes) {
  const causumx::Table& watched = *FuzzTable();
  causumx::StreamMonitor monitor("m1",
                                 causumx::MonitorSpec::Parse(kMonitorSpec),
                                 watched.Head(kMonitorOrigin), nullptr);
  try {
    monitor.ImportState(bytes, watched);
  } catch (const std::runtime_error&) {
    return;  // typed rejection (StorageError is a runtime_error)
  }
  const causumx::MonitorStatus status = monitor.Status();
  if (kMonitorOrigin + status.rows_observed != watched.NumRows()) {
    Die("accepted checkpoint did not catch up with the table",
        std::to_string(status.rows_observed));
  }
  if (status.window_rows > kMonitorMaxWindow) {
    Die("accepted checkpoint holds an oversized window",
        std::to_string(status.window_rows));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Bound per-input cost: decoding is linear, but giant inputs just slow
  // the fuzzer down without reaching new states.
  if (size > (1u << 20)) return 0;
  if (size == 0) return 0;
  const std::string bytes(reinterpret_cast<const char*>(data + 1), size - 1);

  // The first byte routes to one deserializer, so one corpus exercises
  // all four entry points and the fuzzer can mutate across them. Routes
  // 2 and 3 both import an engine payload (see property 4).
  switch (data[0] % 5) {
    case 0: CheckContainer(bytes); break;
    case 1: CheckTable(bytes); break;
    case 2:
    case 3: CheckEngineImport(bytes); break;
    case 4: CheckMonitorImport(bytes); break;
  }
  return 0;
}
