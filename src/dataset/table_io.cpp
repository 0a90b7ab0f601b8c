#include "dataset/table_io.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "storage/bytes.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/string_utils.h"

namespace causumx {
namespace {

constexpr const char* kTableKind = "causumx-table";
constexpr uint32_t kTableFormatVersion = 1;

// Rows per encoded block — the same 64-row granularity as the engine's
// summation blocks, so segment boundaries line up across the stack.
constexpr size_t kBlockRows = 64;

[[noreturn]] void Corrupt(const char* what) {
  throw StorageError(StorageErrorKind::kCorrupt,
                     std::string("table file: ") + what);
}

int BitWidth(uint64_t max_value) {
  return max_value == 0 ? 0 : 64 - std::countl_zero(max_value);
}

// Packs 64 `width`-bit values into `width` little-endian words.
void PackBlock(const uint64_t* vals, int width, ByteWriter* w) {
  if (width == 0) return;
  uint64_t words[64] = {0};
  for (size_t i = 0; i < kBlockRows; ++i) {
    const size_t bitpos = i * static_cast<size_t>(width);
    const size_t wd = bitpos >> 6;
    const size_t off = bitpos & 63;
    words[wd] |= vals[i] << off;
    if (off + static_cast<size_t>(width) > 64) {
      words[wd + 1] |= vals[i] >> (64 - off);
    }
  }
  for (int j = 0; j < width; ++j) w->PutU64(words[j]);
}

// Inverse of PackBlock.
void UnpackBlock(ByteReader* r, int width, uint64_t* vals) {
  if (width == 0) {
    std::fill(vals, vals + kBlockRows, uint64_t{0});
    return;
  }
  uint64_t words[64];
  for (int j = 0; j < width; ++j) words[j] = r->GetU64();
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  for (size_t i = 0; i < kBlockRows; ++i) {
    const size_t bitpos = i * static_cast<size_t>(width);
    const size_t wd = bitpos >> 6;
    const size_t off = bitpos & 63;
    uint64_t v = words[wd] >> off;
    if (off + static_cast<size_t>(width) > 64) {
      v |= words[wd + 1] << (64 - off);
    }
    vals[i] = v & mask;
  }
}

// int64 columns: 64-row frame-of-reference blocks. Per block: null
// mask, zigzag-varint minimum over the non-null values, bit width, and
// bit-packed unsigned deltas from the minimum (null slots pack as 0).
std::string EncodeInt64Column(const int64_t* v, size_t n) {
  ByteWriter w;
  for (size_t b = 0; b < n; b += kBlockRows) {
    const size_t m = std::min(kBlockRows, n - b);
    uint64_t null_mask = 0;
    int64_t mn = 0;
    bool any = false;
    for (size_t i = 0; i < m; ++i) {
      if (v[b + i] == Column::kNullInt) {
        null_mask |= uint64_t{1} << i;
      } else if (!any || v[b + i] < mn) {
        mn = v[b + i];
        any = true;
      }
    }
    uint64_t deltas[kBlockRows] = {0};
    uint64_t max_delta = 0;
    for (size_t i = 0; i < m; ++i) {
      if ((null_mask >> i) & 1) continue;
      const uint64_t d =
          static_cast<uint64_t>(v[b + i]) - static_cast<uint64_t>(mn);
      deltas[i] = d;
      max_delta = std::max(max_delta, d);
    }
    const int width = BitWidth(max_delta);
    w.PutU64(null_mask);
    w.PutVarintSigned(any ? mn : 0);
    w.PutU8(static_cast<uint8_t>(width));
    PackBlock(deltas, width, &w);
  }
  return w.TakeBytes();
}

// double columns: raw IEEE-754 bit patterns (NaN nulls travel in-band,
// bit-exact).
std::string EncodeDoubleColumn(const double* v, size_t n) {
  ByteWriter w;
  for (size_t i = 0; i < n; ++i) w.PutDouble(v[i]);
  return w.TakeBytes();
}

// categorical columns: the dictionary verbatim, then 64-row blocks of
// bit-packed (code + 1) with a per-block width (null code -1 packs as 0).
std::string EncodeCategoricalColumn(const Column& col, size_t n) {
  ByteWriter w;
  const auto& dict = col.dictionary();
  w.PutVarint(dict.size());
  for (const std::string& s : dict) w.PutString(s);
  const int32_t* codes = col.codes_data();
  for (size_t b = 0; b < n; b += kBlockRows) {
    const size_t m = std::min(kBlockRows, n - b);
    uint64_t vals[kBlockRows] = {0};
    uint64_t max_val = 0;
    for (size_t i = 0; i < m; ++i) {
      vals[i] = static_cast<uint64_t>(static_cast<int64_t>(codes[b + i]) + 1);
      max_val = std::max(max_val, vals[i]);
    }
    const int width = BitWidth(max_val);
    w.PutU8(static_cast<uint8_t>(width));
    PackBlock(vals, width, &w);
  }
  return w.TakeBytes();
}

std::string TableKey(const Table& table, uint64_t hash) {
  return StrFormat("h%016llx|v%llu|r%llu",
                   static_cast<unsigned long long>(hash),
                   static_cast<unsigned long long>(table.version()),
                   static_cast<unsigned long long>(table.NumRows()));
}

}  // namespace

uint64_t TableContentHash(const Table& table) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_u64 = [&](uint64_t v) { mix(&v, sizeof(v)); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    mix(s.data(), s.size());
  };

  mix_u64(table.NumRows());
  mix_u64(table.NumColumns());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const Column& col = table.column(c);
    mix_str(col.name());
    mix_u64(static_cast<uint64_t>(col.type()));
    const size_t n = table.NumRows();
    switch (col.type()) {
      case ColumnType::kInt64:
        mix(col.ints_data(), n * sizeof(int64_t));
        break;
      case ColumnType::kDouble:
        // Bit patterns, so NaN nulls hash stably.
        mix(col.doubles_data(), n * sizeof(double));
        break;
      case ColumnType::kCategorical:
        mix(col.codes_data(), n * sizeof(int32_t));
        mix_u64(col.dictionary().size());
        for (const std::string& s : col.dictionary()) mix_str(s);
        break;
    }
  }
  return h;
}

std::string SerializeTable(const Table& table) {
  const size_t n = table.NumRows();

  ByteWriter schema;
  schema.PutVarint(n);
  schema.PutVarint(table.NumColumns());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    schema.PutString(table.column(c).name());
    schema.PutU8(static_cast<uint8_t>(table.column(c).type()));
  }

  SnapshotWriter out(kTableKind, kTableFormatVersion,
                     TableKey(table, TableContentHash(table)));
  out.AddSection("schema", schema.TakeBytes());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const Column& col = table.column(c);
    std::string payload;
    switch (col.type()) {
      case ColumnType::kInt64:
        payload = EncodeInt64Column(col.ints_data(), n);
        break;
      case ColumnType::kDouble:
        payload = EncodeDoubleColumn(col.doubles_data(), n);
        break;
      case ColumnType::kCategorical:
        payload = EncodeCategoricalColumn(col, n);
        break;
    }
    out.AddSection(StrFormat("col/%llu", static_cast<unsigned long long>(c)),
                   std::move(payload));
  }
  return out.Serialize();
}

Table DeserializeTable(const std::string& bytes, uint64_t* content_hash) {
  const SnapshotReader snap =
      SnapshotReader::Parse(bytes, kTableKind, kTableFormatVersion);

  ByteReader schema(snap.Section("schema"));
  const uint64_t n = schema.GetVarint();
  const uint64_t n_cols = schema.GetVarint();
  // Plausibility bounds before any allocation is sized from the header:
  // a row costs at least a packed bit per column, a column at least a
  // couple of header bytes.
  if (n > bytes.size() * 64 || n_cols > bytes.size()) {
    Corrupt("implausible row/column count");
  }

  Table table;
  std::vector<ColumnType> types;
  types.reserve(n_cols);
  for (uint64_t c = 0; c < n_cols; ++c) {
    const std::string name = schema.GetString();
    const uint8_t t = schema.GetU8();
    if (t > static_cast<uint8_t>(ColumnType::kCategorical)) {
      Corrupt("unknown column type");
    }
    types.push_back(static_cast<ColumnType>(t));
    table.AddColumn(name, types.back());
  }
  if (!schema.AtEnd()) Corrupt("trailing bytes in schema");

  // Decode every column straight into the table's columns. Categorical
  // cells append by string on a stored code's first use, so the
  // dictionary interns in first-occurrence order exactly as the original
  // build did; later uses reuse the code.
  table.ReserveRows(n);
  for (uint64_t c = 0; c < n_cols; ++c) {
    ByteReader r(snap.Section(
        StrFormat("col/%llu", static_cast<unsigned long long>(c))));
    Column& out = table.column(c);
    switch (types[c]) {
      case ColumnType::kInt64: {
        for (uint64_t b = 0; b < n; b += kBlockRows) {
          const size_t m = static_cast<size_t>(
              std::min<uint64_t>(kBlockRows, n - b));
          const uint64_t null_mask = r.GetU64();
          const int64_t mn = r.GetVarintSigned();
          const uint8_t width = r.GetU8();
          if (width > 64) Corrupt("int block width out of range");
          uint64_t deltas[kBlockRows];
          UnpackBlock(&r, width, deltas);
          for (size_t i = 0; i < m; ++i) {
            if ((null_mask >> i) & 1) {
              out.AppendNull();
            } else {
              const int64_t v = static_cast<int64_t>(
                  static_cast<uint64_t>(mn) + deltas[i]);
              if (v == Column::kNullInt) Corrupt("int value is the null sentinel");
              out.AppendInt(v);
            }
          }
        }
        break;
      }
      case ColumnType::kDouble: {
        for (uint64_t i = 0; i < n; ++i) {
          const double v = r.GetDouble();
          if (std::isnan(v)) {
            out.AppendNull();
          } else {
            out.AppendDouble(v);
          }
        }
        break;
      }
      case ColumnType::kCategorical: {
        const uint64_t dict_size = r.GetVarint();
        if (dict_size > r.remaining() + 1) Corrupt("implausible dictionary");
        std::vector<std::string> dict;
        dict.reserve(dict_size);
        for (uint64_t i = 0; i < dict_size; ++i) dict.push_back(r.GetString());
        // Stored code (1-based) -> column code, once appended.
        std::vector<int32_t> code_of(dict_size, Column::kNullCode);
        for (uint64_t b = 0; b < n; b += kBlockRows) {
          const size_t m = static_cast<size_t>(
              std::min<uint64_t>(kBlockRows, n - b));
          const uint8_t width = r.GetU8();
          if (width > 64) Corrupt("code block width out of range");
          uint64_t vals[kBlockRows];
          UnpackBlock(&r, width, vals);
          for (size_t i = 0; i < m; ++i) {
            if (vals[i] == 0) {
              out.AppendNull();
            } else if (vals[i] > dict_size) {
              Corrupt("code out of dictionary range");
            } else if (code_of[vals[i] - 1] == Column::kNullCode) {
              out.AppendCategorical(dict[vals[i] - 1]);
              code_of[vals[i] - 1] = out.GetCode(out.size() - 1);
            } else {
              out.AppendCode(code_of[vals[i] - 1]);
            }
          }
        }
        break;
      }
    }
    if (!r.AtEnd()) Corrupt("trailing bytes in column section");
  }
  table.CommitColumnarRows(n);

  // The stored key pins the content hash of the table that was written;
  // recomputing over what we decoded closes the loop on any damage the
  // per-page CRCs cannot see (e.g. a tampered dictionary with a fixed-up
  // checksum).
  const uint64_t hash = TableContentHash(table);
  if (TableKey(table, hash).substr(0, 17) != snap.key().substr(0, 17)) {
    Corrupt("content hash does not match stored key");
  }
  if (content_hash != nullptr) *content_hash = hash;
  return table;
}

}  // namespace causumx
