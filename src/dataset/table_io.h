// On-disk columnar table format.
//
// A table file is a snapshot container (storage/snapshot.h) of kind
// "causumx-table": a schema section plus one section per column, each
// encoded in compressed segments aligned to the 64-row summation blocks
// the engine's ShardPlan uses —
//
//   int64        64-row frame-of-reference blocks: null mask, zigzag
//                varint minimum, bit width, bit-packed deltas
//   double       raw IEEE-754 bit patterns (NaN nulls in-band)
//   categorical  the dictionary verbatim, then 64-row blocks of
//                bit-packed (code + 1) with per-block bit width
//
// Decoding rebuilds the table through the normal append path, so a
// restored table is structurally identical to re-parsing the source
// rows (same dictionary order, same sentinels) and hashes equal under
// TableContentHash — which the reader verifies against the stored key
// before returning.

#ifndef CAUSUMX_DATASET_TABLE_IO_H_
#define CAUSUMX_DATASET_TABLE_IO_H_

#include <cstdint>
#include <string>

#include "dataset/table.h"

namespace causumx {

/// Order-sensitive FNV-1a content hash over schema and cells (names,
/// types, sentinels, dictionary order included). Two tables compare
/// equal under this hash iff they would behave identically everywhere
/// downstream; it is the first component of every snapshot key.
uint64_t TableContentHash(const Table& table);

/// Serializes `table` into columnar container bytes.
std::string SerializeTable(const Table& table);

/// Parses container bytes back into a table. Throws StorageError —
/// kCorrupt for structural damage (bad magic/CRC/encoding, or a content
/// hash that does not match the stored key), kStale for format-version
/// skew. The returned table has version 0, like a freshly parsed CSV.
/// `content_hash` (optional) receives its verified TableContentHash.
Table DeserializeTable(const std::string& bytes,
                       uint64_t* content_hash = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_DATASET_TABLE_IO_H_
