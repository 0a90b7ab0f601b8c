// Single-relation in-memory table — the database substrate the paper's
// framework operates on (Section 4: "We consider a single-relation
// database over a schema A").

#ifndef CAUSUMX_DATASET_TABLE_H_
#define CAUSUMX_DATASET_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/column.h"
#include "dataset/value.h"

namespace causumx {

/// Column-major table over a fixed schema.
///
/// Rows are appended via AddRow (values in schema order). Column lookup by
/// name is O(1). The table owns its columns.
class Table {
 public:
  Table() = default;

  /// Declares a column; must happen before any rows are appended.
  /// Returns the column index. Throws on duplicate names.
  size_t AddColumn(const std::string& name, ColumnType type);

  /// Appends one row; `values` must match the schema arity and order.
  void AddRow(const std::vector<Value>& values);

  /// Appends a batch of rows atomically: every row is validated first
  /// (arity, and no string value in a numeric column — numeric values
  /// cross-coerce and nulls are accepted anywhere, as in AddRow), so a
  /// bad row leaves the table untouched. Categorical cells grow the
  /// dictionary as needed. Bumps the table version once per batch.
  /// Throws std::invalid_argument naming the offending row/column.
  void AppendRows(const std::vector<std::vector<Value>>& rows);

  /// Monotone data version: 0 at construction, +1 per AppendRows batch.
  /// Snapshot consumers (EvalEngine delta extension, the service's
  /// copy-on-write registry) use it to tell table generations apart;
  /// row-at-a-time AddRow is the bulk-construction path and does not
  /// version.
  uint64_t version() const { return version_; }

  /// Deep copy (schema, rows, dictionaries, version). The copy-on-write
  /// append path clones the current snapshot, appends to the clone, and
  /// swaps it in so in-flight readers of the original are undisturbed.
  Table Clone() const;

  /// The first min(n, NumRows()) rows as a new table (fresh version 0).
  /// Streaming tests/benches use this to split a dataset into a base
  /// prefix plus append deltas.
  Table Head(size_t n) const;

  /// The rows [begin, NumRows()) as a new table (fresh version 0, fresh
  /// dictionaries in survivor first-appearance order — exactly what a
  /// from-scratch rebuild over the surviving rows would build). The
  /// windowed-retention path compacts expired prefixes with this.
  Table Tail(size_t begin) const;

  /// Materializes rows [begin, end) as AppendRows-ready value rows
  /// (categoricals decode to strings, nulls to null Values).
  std::vector<std::vector<Value>> MaterializeRows(size_t begin,
                                                  size_t end) const;

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  /// Index of a column by name, or nullopt.
  std::optional<size_t> ColumnIndex(const std::string& name) const;

  /// Column by index / name; throws on a bad name.
  const Column& column(size_t i) const { return *columns_[i]; }
  Column& column(size_t i) { return *columns_[i]; }
  const Column& column(const std::string& name) const;

  std::vector<std::string> ColumnNames() const;

  /// Materializes a new table containing only the rows whose indices are
  /// listed (in the given order). Used for WHERE pushdown and sampling.
  Table SelectRows(const std::vector<size_t>& rows) const;

  /// Materializes a new table with only the named columns (schema order
  /// follows `names`). Throws if a name is unknown.
  Table SelectColumns(const std::vector<std::string>& names) const;

  void ReserveRows(size_t n);

  /// Counts `n` rows that a columnar loader has appended to every column
  /// through column(i). Throws std::logic_error unless each column now
  /// holds NumRows() + n values.
  void CommitColumnarRows(size_t n);

 private:
  // Concurrency contract (checked at the owners, not here): a Table has
  // no internal locking. Mutation is single-writer-before-publication —
  // builders (CSV reader, datagen) fill a private instance, and the
  // streaming path mutates only a private Clone() under
  // ExplanationService::append_mu_, publishing the result as a new
  // shared_ptr<const Table> snapshot (copy-on-write). Once published
  // const, every member below is immutable; `version_` tells the
  // generations apart. Clang's -Wthread-safety leg enforces the
  // publication discipline in service/explanation_service.h.
  std::vector<std::unique_ptr<Column>> columns_;
  std::unordered_map<std::string, size_t> index_;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;
};

/// Non-owning handle to a caller's table, for the entry points that take
/// `const Table&` but build a run-private engine (which holds its table
/// by shared_ptr). Aliasing constructor with an empty owner: no copy, no
/// control block, no refcount. The caller keeps `table` alive for as
/// long as anything built from the handle is in use.
inline std::shared_ptr<const Table> BorrowTable(const Table& table) {
  return std::shared_ptr<const Table>(std::shared_ptr<const Table>(),
                                      &table);
}

}  // namespace causumx

#endif  // CAUSUMX_DATASET_TABLE_H_
