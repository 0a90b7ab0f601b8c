// Tests for the storage layer: byte codec, snapshot container, columnar
// table format, segment serialization, durable-write primitives — and
// the service-level warm-restart path, including the corruption suite
// (truncation, bit-flips, version skew, stale keys, killed writers must
// all be detected and fall back to a cold rebuild with bit-identical
// results).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "causal/dag_io.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "dataset/csv.h"
#include "dataset/table_io.h"
#include "server/rest_api.h"
#include "service/batch.h"
#include "service/explanation_service.h"
#include "storage/bytes.h"
#include "storage/crc32.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace causumx {
namespace {

// A scratch directory removed (with its files) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/causumx_storage_XXXXXX";
    path = ::mkdtemp(buf);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& f : ListDirFiles(path)) {
      ::unlink((path + "/" + f).c_str());
    }
    ::rmdir(path.c_str());
  }
};

// ---- byte codec ------------------------------------------------------------

TEST(BytesTest, ScalarsRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutVarint(0);
  w.PutVarint(127);
  w.PutVarint(128);
  w.PutVarint(~0ull);
  w.PutVarintSigned(-1);
  w.PutVarintSigned(INT64_MIN);
  w.PutDouble(-0.0);
  w.PutString("hello\0world");  // embedded NUL truncates the literal; fine
  const std::string bytes = w.TakeBytes();

  ByteReader r(bytes);
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetVarint(), 0u);
  EXPECT_EQ(r.GetVarint(), 127u);
  EXPECT_EQ(r.GetVarint(), 128u);
  EXPECT_EQ(r.GetVarint(), ~0ull);
  EXPECT_EQ(r.GetVarintSigned(), -1);
  EXPECT_EQ(r.GetVarintSigned(), INT64_MIN);
  const double neg_zero = r.GetDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncationThrowsCorrupt) {
  ByteWriter w;
  w.PutU64(42);
  w.PutString("payload");
  const std::string bytes = w.TakeBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    try {
      r.GetU64();
      const std::string s = r.GetString();
      FAIL() << "prefix of length " << len << " parsed as a whole record";
    } catch (const StorageError& e) {
      EXPECT_EQ(e.kind(), StorageErrorKind::kCorrupt);
    }
  }
}

TEST(BytesTest, OverlongVarintRejected) {
  std::string bytes(11, '\x80');  // 11 continuation bytes: > 10-byte cap
  ByteReader r(bytes);
  EXPECT_THROW(r.GetVarint(), StorageError);
}

TEST(Crc32Test, KnownVector) {
  // The standard CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// The byte-at-a-time definition the sliced implementation must match.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(31);
  std::vector<unsigned char> bytes(4096 + 16);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextBounded(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 80; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len),
                BytewiseCrc32(bytes.data() + offset, len, 0))
          << offset << " " << len;
    }
  }
  const uint32_t whole = Crc32(bytes.data(), 4096);
  EXPECT_EQ(whole, BytewiseCrc32(bytes.data(), 4096, 0));
  // Chunked continuation, split off any alignment.
  for (size_t split : {1, 7, 8, 13, 4000}) {
    EXPECT_EQ(Crc32(bytes.data() + split, 4096 - split,
                    Crc32(bytes.data(), split)),
              whole)
        << split;
  }
}

// ---- file primitives -------------------------------------------------------

TEST(FileIoTest, FileStemRoundTrips) {
  const std::string names[] = {"simple", "with space", "a/b\\c", "100%",
                               "mixed_OK-1.2", "\x01\xFF"};
  for (const std::string& name : names) {
    const std::string stem = EncodeFileStem(name);
    EXPECT_EQ(stem.find('/'), std::string::npos) << name;
    EXPECT_EQ(DecodeFileStem(stem), name);
  }
  EXPECT_THROW(DecodeFileStem("trailing%"), StorageError);
  EXPECT_THROW(DecodeFileStem("bad%ZZescape"), StorageError);
}

TEST(FileIoTest, DurableWriteRoundTripsAndLeavesNoTemp) {
  TempDir dir;
  const std::string path = dir.path + "/file.bin";
  std::string payload(100000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  WriteFileDurable(path, payload);
  EXPECT_EQ(ReadFileBytes(path), payload);
  EXPECT_FALSE(FileExists(path + ".tmp"));

  // Overwrite: the new bytes fully replace the old.
  WriteFileDurable(path, "second");
  EXPECT_EQ(ReadFileBytes(path), "second");
}

TEST(FileIoTest, ReadMissingFileThrowsIo) {
  try {
    ReadFileBytes("/nonexistent/causumx/file");
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kIo);
  }
}

// ---- snapshot container ----------------------------------------------------

std::string MakeBigPayload(size_t n) {
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 8));
  }
  return payload;
}

TEST(SnapshotTest, ContainerRoundTrips) {
  SnapshotWriter w("test-kind", 3, "key|v1|abc");
  w.AddSection("alpha", "first payload");
  w.AddSection("beta", "");  // empty sections are legal
  w.AddSection("gamma", MakeBigPayload(3 * kStoragePageSize + 17));
  const std::string bytes = w.Serialize();

  const SnapshotReader r = SnapshotReader::Parse(bytes, "test-kind", 3);
  EXPECT_EQ(r.key(), "key|v1|abc");
  ASSERT_EQ(r.SectionNames().size(), 3u);
  EXPECT_EQ(r.SectionNames()[0], "alpha");
  EXPECT_EQ(r.SectionNames()[2], "gamma");
  EXPECT_EQ(r.Section("alpha"), "first payload");
  EXPECT_EQ(r.Section("beta"), "");
  EXPECT_EQ(r.Section("gamma"), MakeBigPayload(3 * kStoragePageSize + 17));
  EXPECT_TRUE(r.HasSection("beta"));
  EXPECT_FALSE(r.HasSection("delta"));
  EXPECT_THROW(r.Section("delta"), StorageError);
}

TEST(SnapshotTest, KindAndVersionSkewAreStale) {
  SnapshotWriter w("kind-a", 1, "k");
  w.AddSection("s", "p");
  const std::string bytes = w.Serialize();
  try {
    SnapshotReader::Parse(bytes, "kind-b", 1);
    FAIL() << "wrong kind accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kStale);
  }
  try {
    SnapshotReader::Parse(bytes, "kind-a", 2);
    FAIL() << "wrong version accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kStale);
  }
}

TEST(SnapshotTest, EveryTruncationIsDetected) {
  SnapshotWriter w("test-kind", 1, "key");
  w.AddSection("a", "some section payload data");
  w.AddSection("b", MakeBigPayload(300));
  const std::string bytes = w.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        SnapshotReader::Parse(bytes.substr(0, len), "test-kind", 1),
        StorageError)
        << "prefix of length " << len << " of " << bytes.size()
        << " parsed cleanly";
  }
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  SnapshotWriter w("test-kind", 1, "key");
  w.AddSection("a", "some section payload data");
  w.AddSection("b", MakeBigPayload(200));
  const std::string bytes = w.Serialize();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string damaged = bytes;
      damaged[i] = static_cast<char>(damaged[i] ^ mask);
      EXPECT_THROW(SnapshotReader::Parse(damaged, "test-kind", 1),
                   StorageError)
          << "flip of bit mask " << int{mask} << " at byte " << i
          << " went unnoticed";
    }
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  SnapshotWriter w("test-kind", 1, "key");
  w.AddSection("a", "p");
  std::string bytes = w.Serialize();
  bytes += "extra";
  EXPECT_THROW(SnapshotReader::Parse(bytes, "test-kind", 1), StorageError);
}

// ---- columnar table format -------------------------------------------------

// Mixed-type table exercising nulls, negatives, wide ranges, shared and
// per-row dictionary codes, and non-block-aligned row counts.
Table MakeMixedTable(size_t rows) {
  Table t;
  t.AddColumn("id", ColumnType::kInt64);
  t.AddColumn("score", ColumnType::kDouble);
  t.AddColumn("city", ColumnType::kCategorical);
  const char* cities[] = {"tokyo", "lima", "oslo", "cairo", "quito"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row(3);
    if (i % 7 == 3) {
      row[0] = Value();  // null int
    } else {
      row[0] = Value(static_cast<int64_t>(i) * 1000003 - 5000000);
    }
    if (i % 11 == 5) {
      row[1] = Value();  // null double
    } else {
      row[1] = Value(static_cast<double>(i) * 0.37 - 21.5);
    }
    if (i % 13 == 6) {
      row[2] = Value();  // null categorical
    } else {
      row[2] = Value(std::string(cities[(i * i) % 5]));
    }
    t.AddRow(row);
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.column(c).name(), b.column(c).name());
    ASSERT_EQ(a.column(c).type(), b.column(c).type());
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(a.column(c).IsNull(r), b.column(c).IsNull(r))
          << "null mismatch at row " << r << " col " << c;
      if (!a.column(c).IsNull(r)) {
        ASSERT_EQ(a.column(c).GetValue(r), b.column(c).GetValue(r))
            << "cell mismatch at row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
}

TEST(TableIoTest, MixedTableRoundTrips) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{130}, size_t{1000}}) {
    const Table t = MakeMixedTable(rows);
    const Table back = DeserializeTable(SerializeTable(t));
    ExpectTablesEqual(t, back);
  }
}

TEST(TableIoTest, ContentHashIsOrderAndValueSensitive) {
  Table a;
  a.AddColumn("x", ColumnType::kInt64);
  a.AddRow({Value(int64_t{1})});
  a.AddRow({Value(int64_t{2})});
  Table b;
  b.AddColumn("x", ColumnType::kInt64);
  b.AddRow({Value(int64_t{2})});
  b.AddRow({Value(int64_t{1})});
  EXPECT_NE(TableContentHash(a), TableContentHash(b));
  Table c;
  c.AddColumn("y", ColumnType::kInt64);  // same cells, renamed column
  c.AddRow({Value(int64_t{1})});
  c.AddRow({Value(int64_t{2})});
  EXPECT_NE(TableContentHash(a), TableContentHash(c));
}

TEST(TableIoTest, SplicedKeyRejected) {
  // Re-wrap the real sections under a key claiming a different content
  // hash: the reader must notice the table does not match its key.
  const Table t = MakeMixedTable(50);
  const std::string bytes = SerializeTable(t);
  const SnapshotReader real = SnapshotReader::Parse(bytes, "causumx-table", 1);
  SnapshotWriter forged("causumx-table", 1,
                        "h0000000000000000" + real.key().substr(17));
  for (const std::string& name : real.SectionNames()) {
    forged.AddSection(name, real.Section(name));
  }
  try {
    DeserializeTable(forged.Serialize());
    FAIL() << "forged key accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kCorrupt);
  }
}

TEST(TableIoTest, TruncationsAndBitFlipsRejected) {
  const Table t = MakeMixedTable(80);
  const std::string bytes = SerializeTable(t);
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_THROW(DeserializeTable(bytes.substr(0, len)), StorageError);
  }
  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    EXPECT_THROW(DeserializeTable(damaged), StorageError)
        << "flip at byte " << i;
  }
}

// ---- CSV stream-failure regression (satellites 1 + 2) ----------------------

// A streambuf that serves `data` and then fails the stream (underflow
// throws, which istream converts to badbit) — simulating a disk error
// mid-read rather than a clean EOF.
class FailingReadBuf : public std::streambuf {
 public:
  explicit FailingReadBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::runtime_error("simulated device failure");
  }

 private:
  std::string data_;
};

// A streambuf that accepts nothing: every overflow fails, so the first
// buffered flush sets badbit on the ostream — simulating a full disk.
class FailingWriteBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(CsvStreamFailureTest, ReadCsvDistinguishesFailureFromEof) {
  FailingReadBuf buf("a,b\n1,x\n2,y\n");  // fails after the buffered rows
  std::istream in(&buf);
  try {
    ReadCsv(in);
    FAIL() << "mid-stream failure read as clean EOF";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kIo);
  }
}

TEST(CsvStreamFailureTest, ReadCsvDeltaDistinguishesFailureFromEof) {
  Table schema;
  schema.AddColumn("a", ColumnType::kInt64);
  schema.AddColumn("b", ColumnType::kCategorical);
  FailingReadBuf buf("a,b\n7,z\n");
  std::istream in(&buf);
  try {
    ReadCsvDelta(schema, in);
    FAIL() << "mid-stream failure read as clean EOF";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kIo);
  }
}

TEST(CsvStreamFailureTest, CleanEofStillParses) {
  std::istringstream in("a,b\n1,x\n2,y\n");
  const Table t = ReadCsv(in);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(CsvStreamFailureTest, WriteCsvReportsStreamFailure) {
  Table t;
  t.AddColumn("a", ColumnType::kInt64);
  for (int i = 0; i < 1000; ++i) t.AddRow({Value(int64_t{i})});
  FailingWriteBuf buf;
  std::ostream out(&buf);
  try {
    WriteCsv(t, out);
    FAIL() << "write failure went unreported";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kIo);
  }
}

// ---- JSON non-finite doubles (satellite 3) ---------------------------------

TEST(JsonNonFiniteTest, NumberTokenNullsNonFinite) {
  EXPECT_EQ(JsonNumberToken(1.5, 6), FormatDouble(1.5, 6));
  EXPECT_EQ(JsonNumberToken(std::nan(""), 6), "null");
  EXPECT_EQ(JsonNumberToken(INFINITY, 8), "null");
  EXPECT_EQ(JsonNumberToken(-INFINITY, 8), "null");
}

TEST(JsonNonFiniteTest, EffectWithNonFiniteFieldsIsValidJson) {
  EffectEstimate e;
  e.valid = false;
  e.cate = std::nan("");
  e.std_error = INFINITY;
  e.p_value = -INFINITY;
  const std::string json = EffectToJson(e);
  // A bare nan/inf token would make this throw.
  const JsonValue parsed = JsonValue::Parse(json);
  EXPECT_TRUE(parsed.Find("cate")->is_null());
  EXPECT_TRUE(parsed.Find("std_error")->is_null());
  EXPECT_TRUE(parsed.Find("p_value")->is_null());
  EXPECT_TRUE(parsed.Find("ci95")->AsArray()[0].is_null());
}

TEST(JsonNonFiniteTest, PredicateWithNonFiniteValueIsValidJson) {
  const SimplePredicate pred("x", CompareOp::kGt, Value(std::nan("")));
  const JsonValue parsed = JsonValue::Parse(PredicateToJson(pred));
  EXPECT_TRUE(parsed.Find("value")->is_null());
}

// ---- engine cache export/import --------------------------------------------

TEST(EngineCacheSerdeTest, RestoredEngineEvaluatesIdentically) {
  const auto table =
      std::make_shared<const Table>(MakeMixedTable(500));
  EvalEngineOptions opts;
  opts.num_shards = 4;
  EvalEngine a(table, opts);
  const Pattern pattern({
      SimplePredicate("city", CompareOp::kEq, Value(std::string("tokyo"))),
      SimplePredicate("id", CompareOp::kGt, Value(int64_t{0})),
  });
  const Bitset expected = a.Evaluate(pattern);
  ASSERT_GT(a.NumInterned(), 0u);

  const std::string state = a.ExportCacheState();
  EvalEngine b(table, opts);
  const size_t restored = b.ImportCacheState(state);
  EXPECT_GT(restored, 0u);
  EXPECT_EQ(b.NumInterned(), a.NumInterned());
  EXPECT_EQ(b.CacheBytes(), a.CacheBytes());
  EXPECT_TRUE(b.Evaluate(pattern) == expected);

  // Import into a non-fresh engine is a programming error.
  EXPECT_THROW(b.ImportCacheState(state), std::logic_error);

  // A different shard plan re-slices the exported segments onto the
  // importing engine's shards: bit-identical, and nothing rebuilds.
  EvalEngineOptions resharded = opts;
  resharded.num_shards = 2;
  EvalEngine c(table, resharded);
  ASSERT_NE(c.plan().shard_rows(), a.plan().shard_rows());
  EXPECT_GT(c.ImportCacheState(state), 0u);
  EXPECT_EQ(c.NumInterned(), a.NumInterned());
  EXPECT_TRUE(c.Evaluate(pattern) == expected);
  EXPECT_EQ(c.Stats().bitsets_materialized, 0u);
}

// An engine payload holding one predicate, `city = tokyo`, over the
// single-shard plan of `rows` rows, whose segment is `segment` (its tag
// byte first).
std::string OnePredicatePayload(size_t rows, const std::string& segment) {
  ByteWriter w;
  w.PutU64(rows);
  w.PutVarint(1);    // shards
  w.PutVarint(512);  // shard rows: a 64-multiple covering every row
  w.PutU8(0);        // segment policy byte
  w.PutU8(1);        // cache enabled
  w.PutVarint(1);    // predicates
  w.PutString("city");
  w.PutU8(static_cast<uint8_t>(CompareOp::kEq));
  w.PutU8(3);  // string value
  w.PutString("tokyo");
  w.PutVarint(1);  // segments
  w.PutU8(1);      // resident
  w.PutString(segment);
  return w.TakeBytes();
}

// Earlier releases could store a segment compressed (tag 1: a
// Roaring-style array container here). Such a segment is skipped: the
// predicate keeps its id and its shard rematerializes on demand.
TEST(EngineCacheSerdeTest, CompressedSegmentOfEarlierReleasesIsRebuilt) {
  const auto table = std::make_shared<const Table>(MakeMixedTable(500));
  const SimplePredicate tokyo("city", CompareOp::kEq,
                              Value(std::string("tokyo")));
  EvalEngine fresh(table);
  const Bitset expected = fresh.Evaluate(Pattern({tokyo}));

  ByteWriter seg;
  seg.PutU8(1);  // compressed
  seg.PutVarint(table->NumRows());
  seg.PutVarint(expected.Count());
  seg.PutVarint(1);  // chunks
  seg.PutU8(0);      // array container
  seg.PutVarint(expected.Count());
  seg.PutVarint(expected.Count());
  for (size_t r = 0; r < expected.size(); ++r) {
    if (expected.Test(r)) {
      seg.PutU8(static_cast<uint8_t>(r & 0xFF));
      seg.PutU8(static_cast<uint8_t>(r >> 8));
    }
  }
  seg.PutVarint(0);  // bitmap words
  const std::string payload =
      OnePredicatePayload(table->NumRows(), seg.TakeBytes());

  EvalEngine engine(table);
  EXPECT_EQ(engine.ImportCacheState(payload), 0u);
  EXPECT_EQ(engine.NumInterned(), 1u);
  EXPECT_EQ(engine.CacheBytes(), 0u);
  EXPECT_EQ(engine.Intern(tokyo), 0u);
  EXPECT_TRUE(engine.Evaluate(Pattern({tokyo})) == expected);
  EXPECT_EQ(engine.Stats().bitsets_materialized, 1u);
}

TEST(EngineCacheSerdeTest, MalformedSegmentsRejected) {
  const auto table = std::make_shared<const Table>(MakeMixedTable(500));
  auto expect_corrupt = [&](const std::string& payload) {
    EvalEngine engine(table);
    try {
      engine.ImportCacheState(payload);
      FAIL() << "malformed payload accepted";
    } catch (const StorageError& e) {
      EXPECT_EQ(e.kind(), StorageErrorKind::kCorrupt) << e.what();
    }
  };
  // A plain segment as ExportCacheState writes it: tag 0, size, words.
  auto plain = [](uint8_t tag, size_t size, uint64_t last_word) {
    ByteWriter seg;
    seg.PutU8(tag);
    seg.PutVarint(size);
    for (size_t i = 0; i + 1 < (size + 63) / 64; ++i) seg.PutU64(0);
    seg.PutU64(last_word);
    return seg.TakeBytes();
  };
  const std::string valid = OnePredicatePayload(500, plain(0, 500, 1));
  {
    EvalEngine engine(table);
    EXPECT_EQ(engine.ImportCacheState(valid), 1u);
  }
  // Only tags 0 (plain) and 1 (compressed) were ever written.
  expect_corrupt(OnePredicatePayload(500, plain(7, 500, 1)));
  // A size other than the shard's, and padding bits past the last row.
  expect_corrupt(OnePredicatePayload(500, plain(0, 499, 1)));
  expect_corrupt(OnePredicatePayload(500, plain(0, 500, uint64_t{1} << 60)));
  // Every truncation of a valid payload is rejected.
  for (size_t len = 0; len < valid.size(); len += 5) {
    EvalEngine engine(table);
    EXPECT_THROW(engine.ImportCacheState(valid.substr(0, len)), StorageError)
        << "length " << len;
  }
}

// ---- service warm restarts -------------------------------------------------

GeneratedDataset MakeData() {
  SyntheticOptions opt;
  opt.num_rows = 1200;
  opt.num_treatment_attrs = 3;
  return MakeSyntheticDataset(opt);
}

CauSumXConfig MakeConfig(const GeneratedDataset& ds) {
  CauSumXConfig config;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  return config;
}

ServiceOptions PersistentOptions(const std::string& data_dir) {
  ServiceOptions o;
  o.data_dir = data_dir;
  return o;
}

// Runs one query on a fresh persistent service registered with
// deterministic synthetic data; returns the summary JSON.
std::string RunOnFreshService(const std::string& data_dir,
                              ServiceStats* stats_out = nullptr) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  ExplanationService service(PersistentOptions(data_dir));
  service.RegisterTable("t", std::move(ds.table));
  const CauSumXResult r = service.Explain("t", ds.default_query, ds.dag,
                                          config);
  if (stats_out != nullptr) *stats_out = service.Stats();
  return SummaryToJson(r.summary);
}

TEST(ServicePersistenceTest, WarmRestartIsBitIdenticalAndServedFromMemo) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);

  std::string cold_json;
  {
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    const CauSumXResult cold =
        service.Explain("t", ds.default_query, ds.dag, config);
    cold_json = SummaryToJson(cold.summary);
    EXPECT_EQ(service.Stats().snapshots_restored, 0u);
    service.SaveSnapshot("t");
    EXPECT_EQ(service.Stats().snapshots_written, 1u);
    EXPECT_GT(service.Stats().last_snapshot_unix_ms, 0u);
  }

  // Restart: same data content re-registered; the snapshot key matches,
  // so the caches restore and the first query is warm and bit-identical.
  GeneratedDataset ds2 = MakeData();
  ExplanationService restarted(PersistentOptions(dir.path));
  restarted.RegisterTable("t", std::move(ds2.table));
  EXPECT_EQ(restarted.Stats().snapshots_restored, 1u);
  EXPECT_EQ(restarted.Stats().snapshots_rejected, 0u);
  const CauSumXResult warm =
      restarted.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(SummaryToJson(warm.summary), cold_json);
  EXPECT_GT(warm.cache_stats.estimator.memo_hits, 0u);
  EXPECT_EQ(warm.cache_stats.estimator.memo_misses, 0u);
}

// A snapshot written after appends is taken over a table whose engine
// kept its registration-time shard size, while a restart plans the
// grown table afresh. The restore re-slices the cache onto the new plan
// and stays warm and bit-identical.
TEST(ServicePersistenceTest, RestoreAfterAppendIsWarmAndBitIdentical) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = total - 300;

  ExplanationService reference;
  reference.RegisterTable("t", ds.table.Head(total));
  const std::string cold_json = SummaryToJson(
      reference.Explain("t", ds.default_query, ds.dag, config).summary);

  // Any pool size (here four workers, so four shards) plans the grown
  // table with a different shard size than its derived engine.
  ServiceOptions options = PersistentOptions(dir.path);
  options.num_threads = 4;
  size_t written_shard_rows = 0;
  {
    ExplanationService service(options);
    service.RegisterTable("t", ds.table.Head(base_rows));
    service.Explain("t", ds.default_query, ds.dag, config);
    service.Append("t", ds.table.MaterializeRows(base_rows, total));
    EXPECT_EQ(SummaryToJson(service.Explain("t", ds.default_query, ds.dag,
                                            config)
                                .summary),
              cold_json);
    service.SaveSnapshot("t");
    written_shard_rows = service.Engine("t")->plan().shard_rows();
  }

  ExplanationService restored(options);
  ASSERT_TRUE(restored.RestoreTable("t"));
  EXPECT_EQ(restored.Stats().snapshots_restored, 1u);
  EXPECT_EQ(restored.Stats().snapshots_rejected, 0u);
  ASSERT_NE(restored.Engine("t")->plan().shard_rows(), written_shard_rows);
  EXPECT_GT(restored.Engine("t")->CacheBytes(), 0u);
  const CauSumXResult warm =
      restored.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(SummaryToJson(warm.summary), cold_json);
  EXPECT_GT(warm.cache_stats.estimator.memo_hits, 0u);
  EXPECT_EQ(warm.cache_stats.estimator.memo_misses, 0u);
}

// A snapshot write that fails after an append is counted, never
// rethrown: the append has landed in memory. Removing data_dir makes the
// write fail (permission bits would not stop a root test run).
TEST(ServicePersistenceTest, FailedSnapshotWriteAfterAppendIsCounted) {
  TempDir dir;
  const std::string data_dir = dir.path + "/data";
  ASSERT_EQ(::mkdir(data_dir.c_str(), 0755), 0);
  GeneratedDataset ds = MakeData();
  const size_t total = ds.table.NumRows();
  ExplanationService service(PersistentOptions(data_dir));
  service.RegisterTable("t", ds.table.Head(total - 100));
  ASSERT_EQ(::rmdir(data_dir.c_str()), 0);

  EXPECT_NO_THROW(
      service.Append("t", ds.table.MaterializeRows(total - 100, total)));
  EXPECT_EQ(service.GetTable("t")->NumRows(), total);
  EXPECT_EQ(service.Stats().appends_executed, 1u);
  EXPECT_EQ(service.Stats().snapshots_written, 0u);
  EXPECT_EQ(service.Stats().snapshot_write_failures, 1u);

  // /v1/stats serves both swallowed-failure counters.
  HttpRequest req;
  req.method = "GET";
  req.path = "/v1/stats";
  const JsonValue stats =
      JsonValue::Parse(MakeRestHandler(service)(req).body);
  EXPECT_EQ(stats.Find("snapshots")->GetNumber("write_failures", -1), 1.0);
  EXPECT_EQ(
      stats.Find("service")->GetNumber("append_observer_failures", -1), 0.0);
}

TEST(ServicePersistenceTest, SnapshotBytesAreDeterministic) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  ExplanationService service(PersistentOptions(dir.path));
  service.RegisterTable("t", std::move(ds.table));
  service.Explain("t", ds.default_query, ds.dag, MakeConfig(ds));
  service.SaveSnapshot("t");
  const std::string first = ReadFileBytes(service.SnapshotPath("t"));
  service.SaveSnapshot("t");
  const std::string second = ReadFileBytes(service.SnapshotPath("t"));
  EXPECT_EQ(first, second);
}

TEST(ServicePersistenceTest, ColdStartFromSnapshotAlone) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  std::string cold_json;
  {
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    cold_json = SummaryToJson(
        service.Explain("t", ds.default_query, ds.dag, config).summary);
    service.SaveSnapshot("t");
  }

  // No CSV, no RegisterTable: the snapshot alone rebuilds the table and
  // its warm caches.
  ExplanationService restored(PersistentOptions(dir.path));
  EXPECT_EQ(restored.RestoreAll(), 1u);
  ASSERT_TRUE(restored.HasTable("t"));
  const CauSumXResult warm =
      restored.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(SummaryToJson(warm.summary), cold_json);
  EXPECT_GT(warm.cache_stats.estimator.memo_hits, 0u);
}

// Writes a valid snapshot, damages it with `mutate`, then asserts a
// restart detects the damage, falls back to a cold rebuild, and still
// answers bit-identically.
void ExpectDamageDetectedAndColdFallback(
    const std::function<void(const std::string& path)>& mutate) {
  TempDir dir;
  ServiceStats cold_stats;
  const std::string cold_json = RunOnFreshService(dir.path, &cold_stats);
  {
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    service.Explain("t", ds.default_query, ds.dag,
                    MakeConfig(MakeData()));
    service.SaveSnapshot("t");
  }
  ExplanationService victim(PersistentOptions(dir.path));
  mutate(victim.SnapshotPath("t"));

  GeneratedDataset ds = MakeData();
  victim.RegisterTable("t", std::move(ds.table));
  EXPECT_EQ(victim.Stats().snapshots_restored, 0u);
  EXPECT_GE(victim.Stats().snapshots_rejected, 1u);
  const CauSumXResult r =
      victim.Explain("t", ds.default_query, ds.dag, MakeConfig(MakeData()));
  EXPECT_EQ(SummaryToJson(r.summary), cold_json);
}

TEST(ServicePersistenceTest, TruncatedSnapshotFallsBackCold) {
  ExpectDamageDetectedAndColdFallback([](const std::string& path) {
    const std::string bytes = ReadFileBytes(path);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  });
}

TEST(ServicePersistenceTest, BitFlippedSnapshotFallsBackCold) {
  ExpectDamageDetectedAndColdFallback([](const std::string& path) {
    std::string bytes = ReadFileBytes(path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x04);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

TEST(ServicePersistenceTest, FormatVersionSkewFallsBackCold) {
  ExpectDamageDetectedAndColdFallback([](const std::string& path) {
    SnapshotWriter future("causumx-snapshot", 999, "whatever");
    future.AddSection("table", "from a future format");
    future.WriteFile(path);
  });
}

TEST(ServicePersistenceTest, GarbageFileFallsBackCold) {
  ExpectDamageDetectedAndColdFallback([](const std::string& path) {
    WriteFileDurable(path, "this is not a snapshot container at all");
  });
}

TEST(ServicePersistenceTest, StaleSnapshotOfDifferentDataRejected) {
  TempDir dir;
  {
    // Snapshot of the *appended* table: five more rows.
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(dir.path));
    ServiceOptions o = PersistentOptions(dir.path);
    o.snapshot_on_append = false;  // snapshot manually below
    ExplanationService svc(o);
    svc.RegisterTable("t", std::move(ds.table));
    svc.Append("t", svc.GetTable("t")->MaterializeRows(0, 5));
    svc.SaveSnapshot("t");
  }
  // Restart registers the *original* table: other rows, so the content
  // hash in the key no longer matches and the snapshot is rejected.
  GeneratedDataset ds = MakeData();
  ExplanationService restarted(PersistentOptions(dir.path));
  restarted.RegisterTable("t", std::move(ds.table));
  EXPECT_EQ(restarted.Stats().snapshots_restored, 0u);
  EXPECT_EQ(restarted.Stats().snapshots_rejected, 1u);
  const CauSumXResult r = restarted.Explain("t", ds.default_query, ds.dag,
                                            MakeConfig(MakeData()));
  EXPECT_FALSE(SummaryToJson(r.summary).empty());
}

// A snapshot's identity is its content, not the table version: a table
// registered at version 0 with exactly the rows of a post-append
// snapshot restores warm.
TEST(ServicePersistenceTest, SameRowsAtVersionZeroRestoreWarm) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();

  ExplanationService reference;
  reference.RegisterTable("t", ds.table.Clone());
  const std::string cold_json = SummaryToJson(
      reference.Explain("t", ds.default_query, ds.dag, config).summary);

  {
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", ds.table.Head(total - 200));
    service.Append("t", ds.table.MaterializeRows(total - 200, total - 100));
    service.Append("t", ds.table.MaterializeRows(total - 100, total));
    service.Explain("t", ds.default_query, ds.dag, config);
    service.SaveSnapshot("t");
    ASSERT_EQ(service.TableVersion("t"), 2u);
  }
  ASSERT_EQ(ds.table.version(), 0u);

  ExplanationService restarted(PersistentOptions(dir.path));
  restarted.RegisterTable("t", ds.table.Clone());
  EXPECT_EQ(restarted.Stats().snapshots_restored, 1u);
  EXPECT_EQ(restarted.Stats().snapshots_rejected, 0u);
  const CauSumXResult warm =
      restarted.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(SummaryToJson(warm.summary), cold_json);
  EXPECT_GT(warm.cache_stats.estimator.memo_hits, 0u);
  EXPECT_EQ(warm.cache_stats.estimator.memo_misses, 0u);
}

// Rewrites the snapshot at `path` under `key`, sections unchanged.
void RekeySnapshot(const std::string& path, const std::string& key) {
  const SnapshotReader old =
      SnapshotReader::ReadFile(path, "causumx-snapshot", 1);
  SnapshotWriter rekeyed("causumx-snapshot", 1, key);
  for (const std::string& name : old.SectionNames()) {
    rekeyed.AddSection(name, old.Section(name));
  }
  rekeyed.WriteFile(path);
}

// Snapshots written while the key carried the table version
// (`h…|vN|s…|c1|z0`) still restore warm through both paths.
TEST(ServicePersistenceTest, VersionedKeyOfEarlierReleasesRestoresWarm) {
  TempDir dir;
  std::string path;
  std::string key;
  {
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    service.Explain("t", ds.default_query, ds.dag, MakeConfig(MakeData()));
    service.SaveSnapshot("t");
    path = service.SnapshotPath("t");
    key = SnapshotReader::ReadFile(path, "causumx-snapshot", 1).key();
  }
  ASSERT_EQ(key.substr(17), "|s0|c1|z0");
  RekeySnapshot(path, key.substr(0, 17) + "|v3" + key.substr(17));

  {
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    EXPECT_EQ(service.Stats().snapshots_restored, 1u);
    EXPECT_EQ(service.Stats().snapshots_rejected, 0u);
    EXPECT_GT(service.Engine("t")->CacheBytes(), 0u);
  }
  ExplanationService service(PersistentOptions(dir.path));
  ASSERT_TRUE(service.RestoreTable("t"));
  EXPECT_EQ(service.Stats().snapshots_restored, 1u);
  EXPECT_GT(service.Engine("t")->CacheBytes(), 0u);

  // A key naming other content is rejected, and RestoreTable registers
  // nothing (ForeignEngineSuffixRestoresCold covers the other keys).
  RekeySnapshot(path, "h0000000000000000" + key.substr(17));
  ExplanationService rejecting(PersistentOptions(dir.path));
  EXPECT_FALSE(rejecting.RestoreTable("t"));
  EXPECT_FALSE(rejecting.HasTable("t"));
  EXPECT_EQ(rejecting.Stats().snapshots_rejected, 1u);
}

// A snapshot whose key names this content under another engine
// configuration (e.g. one written with an explicit shard count) cannot
// warm the engine, but its checksummed table section holds every row:
// RestoreTable installs the table cold and counts the snapshot rejected.
TEST(ServicePersistenceTest, ForeignEngineSuffixRestoresCold) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  ExplanationService fresh;
  fresh.RegisterTable("t", ds.table.Clone());
  const std::string fresh_json = SummaryToJson(
      fresh.Explain("t", ds.default_query, ds.dag, config).summary);

  std::string path;
  std::string key;
  {
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", ds.table.Clone());
    service.Explain("t", ds.default_query, ds.dag, config);
    service.SaveSnapshot("t");
    path = service.SnapshotPath("t");
    key = SnapshotReader::ReadFile(path, "causumx-snapshot", 1).key();
  }
  for (const std::string& foreign :
       {key.substr(0, 17) + "|s4|c1|z0", key.substr(0, 17)}) {
    RekeySnapshot(path, foreign);
    ExplanationService service(PersistentOptions(dir.path));
    ASSERT_TRUE(service.RestoreTable("t")) << foreign;
    ASSERT_TRUE(service.HasTable("t"));
    EXPECT_EQ(service.Stats().snapshots_rejected, 1u);
    EXPECT_EQ(service.Stats().snapshots_restored, 0u);
    EXPECT_EQ(service.Engine("t")->CacheBytes(), 0u);  // cold
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, config);
    EXPECT_EQ(SummaryToJson(r.summary), fresh_json) << foreign;
  }
}

// A JSONL batch line that names a CSV registers it through EnsureCsv,
// which restores the data dir's snapshot of the same rows warm.
TEST(ServicePersistenceTest, BatchCsvLineRestoresWarm) {
  TempDir csv_dir;
  TempDir dir;
  GeneratedDataset ds = MakeData();
  const std::string csv_path = csv_dir.path + "/t.csv";
  WriteCsvFile(ds.table, csv_path);
  JsonWriter w;
  w.BeginObject()
      .Key("table").String("t")
      .Key("csv").String(csv_path)
      .Key("group_by").BeginArray().String(ds.default_query.group_by[0])
      .EndArray()
      .Key("avg").String(ds.default_query.avg_attribute)
      .Key("dag_text").String(DagToText(ds.dag));
  w.Key("grouping_attrs").BeginArray();
  for (const std::string& a : ds.grouping_attribute_hint) w.String(a);
  w.EndArray().Key("treatment_attrs").BeginArray();
  for (const std::string& a : ds.treatment_attribute_hint) w.String(a);
  w.EndArray().EndObject();
  const std::string line = w.str() + "\n";
  BatchOptions options;
  options.emit_cache_stats = true;
  // Runs the line on `service` and returns the result line.
  auto run = [&](ExplanationService& service) {
    std::istringstream in(line);
    std::ostringstream out;
    EXPECT_EQ(RunBatch(service, in, out, options).failed, 0u) << out.str();
    return out.str();
  };
  // The summary member of a result line, verbatim.
  auto summary_of = [](const std::string& result) {
    const size_t begin = result.find("\"summary\":");
    return result.substr(begin, result.find(",\"cache\":") - begin);
  };

  std::string cold;
  {
    ExplanationService service(PersistentOptions(dir.path));
    cold = run(service);
    EXPECT_EQ(service.Stats().snapshots_restored, 0u);
    service.SaveSnapshot("t");
  }
  ExplanationService service(PersistentOptions(dir.path));
  const std::string warm = run(service);
  EXPECT_EQ(service.Stats().snapshots_restored, 1u);
  EXPECT_EQ(service.Stats().snapshots_rejected, 0u);
  const JsonValue parsed = JsonValue::Parse(warm);
  const JsonValue* cache = parsed.Find("cache");
  ASSERT_NE(cache, nullptr) << warm;
  EXPECT_GT(cache->GetNumber("memo_hits", 0), 0.0);
  EXPECT_EQ(cache->GetNumber("memo_misses", -1), 0.0);
  // Gram blocks are not snapshotted, and a warm run fits nothing.
  EXPECT_EQ(cache->GetNumber("gram_builds", -1), 0.0);
  EXPECT_EQ(cache->GetNumber("gram_hits", -1), 0.0);
  // The object carries every engine and estimator counter /v1/stats has.
  for (const char* key : {"predicates_interned", "bitsets_retracted",
                          "num_shards", "memo_entries", "gram_bytes"}) {
    EXPECT_NE(cache->Find(key), nullptr) << key;
  }
  EXPECT_EQ(summary_of(warm), summary_of(cold));
}

// A configured data dir is created with its missing parents, so the
// first snapshot write cannot fail for want of it.
TEST(ServicePersistenceTest, MissingDataDirIsCreated) {
  TempDir dir;
  const std::string data_dir = dir.path + "/a/b";
  {
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(data_dir));
    EXPECT_TRUE(std::filesystem::is_directory(data_dir));
    service.RegisterTable("t", std::move(ds.table));
    EXPECT_GT(service.SaveSnapshot("t"), 0u);
  }
  // An existing data dir is fine too.
  ExplanationService again(PersistentOptions(data_dir));
  EXPECT_TRUE(again.RestoreTable("t"));
  std::filesystem::remove_all(dir.path + "/a");
}

// A data dir that cannot be created fails construction with kIo instead
// of failing every later write.
TEST(ServicePersistenceTest, UncreatableDataDirThrowsIo) {
  TempDir dir;
  const std::string file = dir.path + "/file";
  WriteFileDurable(file, "not a directory");
  for (const std::string& data_dir : {file, file + "/sub"}) {
    try {
      ExplanationService service(PersistentOptions(data_dir));
      FAIL() << "accepted data_dir " << data_dir;
    } catch (const StorageError& e) {
      EXPECT_EQ(e.kind(), StorageErrorKind::kIo) << data_dir;
    }
  }
}

TEST(ServicePersistenceTest, KilledWriterLeavesPreviousSnapshotLoadable) {
  TempDir dir;
  std::string cold_json;
  {
    GeneratedDataset ds = MakeData();
    ExplanationService service(PersistentOptions(dir.path));
    service.RegisterTable("t", std::move(ds.table));
    cold_json = SummaryToJson(
        service.Explain("t", ds.default_query, ds.dag,
                        MakeConfig(MakeData()))
            .summary);
    service.SaveSnapshot("t");
  }
  // Simulate a writer killed mid-snapshot: a half-written temp file next
  // to the durable one. Readers must ignore it.
  ExplanationService restarted(PersistentOptions(dir.path));
  {
    std::ofstream tmp(restarted.SnapshotPath("t") + ".tmp",
                      std::ios::binary);
    tmp << "half-written garbage from a crashed process";
  }
  GeneratedDataset ds = MakeData();
  restarted.RegisterTable("t", std::move(ds.table));
  EXPECT_EQ(restarted.Stats().snapshots_restored, 1u);
  const CauSumXResult warm = restarted.Explain(
      "t", ds.default_query, ds.dag, MakeConfig(MakeData()));
  EXPECT_EQ(SummaryToJson(warm.summary), cold_json);

  // RestoreAll must skip the .tmp too (and restore the one real table).
  ExplanationService scanner(PersistentOptions(dir.path));
  EXPECT_EQ(scanner.RestoreAll(), 1u);
}

TEST(ServicePersistenceTest, AppendWritesSnapshotAutomatically) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  ExplanationService service(PersistentOptions(dir.path));
  service.RegisterTable("t", std::move(ds.table));
  EXPECT_FALSE(FileExists(service.SnapshotPath("t")));
  service.Append("t", service.GetTable("t")->MaterializeRows(0, 3));
  EXPECT_TRUE(FileExists(service.SnapshotPath("t")));
  EXPECT_GE(service.Stats().snapshots_written, 1u);
  // And the snapshot matches the post-append state: a restart that
  // rebuilds the same appended table restores warm.
  const uint64_t version = service.TableVersion("t");
  EXPECT_EQ(version, 1u);
}

TEST(ServicePersistenceTest, StatsEndpointReportsSnapshots) {
  TempDir dir;
  GeneratedDataset ds = MakeData();
  ExplanationService service(PersistentOptions(dir.path));
  service.RegisterTable("t", std::move(ds.table));
  service.SaveSnapshot("t");

  auto handler = MakeRestHandler(service);
  HttpRequest req;
  req.method = "GET";
  req.path = "/v1/stats";
  const HttpResponse resp = handler(req);
  EXPECT_EQ(resp.status, 200);
  const JsonValue parsed = JsonValue::Parse(resp.body);
  const JsonValue* snaps = parsed.Find("snapshots");
  ASSERT_NE(snaps, nullptr);
  EXPECT_TRUE(snaps->GetBool("enabled", false));
  EXPECT_EQ(snaps->GetNumber("written", 0), 1.0);
  EXPECT_GE(snaps->GetNumber("last_written_age_seconds", -1), 0.0);
}

TEST(ServicePersistenceTest, ExplainResponseIsParseableJson) {
  // Regression for the non-finite leak: whatever estimates a query
  // produces, the REST explain body must parse as JSON.
  GeneratedDataset ds = MakeData();
  ExplanationService service;
  service.RegisterTable("synthetic", std::move(ds.table));
  auto handler = MakeRestHandler(service);

  JsonWriter body;
  body.BeginObject().Key("table").String("synthetic")
      .Key("group_by").BeginArray();
  for (const auto& a : ds.default_query.group_by) body.String(a);
  body.EndArray().Key("avg").String(ds.default_query.avg_attribute)
      .Key("discover").String("nodag")
      .Key("per_group_patterns").Bool(false)
      .EndObject();

  HttpRequest req;
  req.method = "POST";
  req.path = "/v1/explain";
  req.body = body.str();
  const HttpResponse resp = handler(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NO_THROW(JsonValue::Parse(resp.body));
}

}  // namespace
}  // namespace causumx
