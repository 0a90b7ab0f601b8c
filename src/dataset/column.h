// Typed column storage.
//
// Categorical columns are dictionary-encoded: the column stores int32
// codes plus a dictionary of distinct strings. This keeps the hot paths
// (predicate evaluation, grouping, Apriori item extraction) integer-only.

#ifndef CAUSUMX_DATASET_COLUMN_H_
#define CAUSUMX_DATASET_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/value.h"

namespace causumx {

/// A single named, typed column. Null entries are represented by a
/// sentinel (kNullCode for categorical, NaN for double, kNullInt for int).
class Column {
 public:
  static constexpr int32_t kNullCode = -1;
  static constexpr int64_t kNullInt = INT64_MIN;

  Column(std::string name, ColumnType type);

  /// Deep copy (the atomic distinct-count cache carries its value over).
  /// Used by Table::Clone for copy-on-write append snapshots.
  Column(const Column& other);
  Column& operator=(const Column&) = delete;

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const;

  // --- Appending ----------------------------------------------------------
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendCategorical(const std::string& v);
  /// Appends a categorical cell by an existing dictionary code.
  void AppendCode(int32_t code);
  void AppendNull();
  void AppendValue(const Value& v);
  /// Appends `src`'s cells at `rows` (same type), as AppendValue of each
  /// GetValue would, but looks each distinct dictionary string up once.
  void AppendRowsFrom(const Column& src, const std::vector<size_t>& rows);

  // --- Access -------------------------------------------------------------
  bool IsNull(size_t row) const;
  int64_t GetInt(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  int32_t GetCode(size_t row) const { return codes_[row]; }
  const std::string& DictString(int32_t code) const { return dict_[code]; }

  /// Numeric view of any row: ints/doubles as-is, categorical as its code.
  /// Null rows return NaN. Used by the regression encoder and CI tests.
  double GetNumeric(size_t row) const;

  /// Cell as a Value (categoricals decode to strings).
  Value GetValue(size_t row) const;

  /// Dictionary code for a string; kNullCode when absent. Categorical only.
  int32_t CodeOf(const std::string& s) const;

  /// Dictionary size (categorical) or count of distinct values (numeric;
  /// computed on demand, O(n log n) first call, cached until next append).
  size_t NumDistinct() const;

  /// Distinct non-null values in this column, ascending.
  std::vector<Value> DistinctValues() const;

  /// DistinctValues() of this column, given `prefix_distinct` =
  /// DistinctValues() of its first `prefix_rows` rows as they were
  /// before rows were appended: merges in the appended rows' values in
  /// O(appended rows). A value already in the prefix keeps the prefix's
  /// representative of equal doubles (-0.0, +0.0), as a full scan in row
  /// order would.
  std::vector<Value> DistinctValuesAfterAppend(
      const std::vector<Value>& prefix_distinct, size_t prefix_rows) const;

  const std::vector<std::string>& dictionary() const { return dict_; }

  /// Raw typed storage for the kernel layer (util/kernels.h), size()
  /// elements each; nulls are in-band sentinels (kNullCode / kNullInt /
  /// NaN). Each accessor is only meaningful for the matching type() —
  /// the others return an empty array's data pointer.
  const int32_t* codes_data() const { return codes_.data(); }
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }

  void Reserve(size_t n);

 private:
  std::string name_;
  ColumnType type_;

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;

  /// Lazily computed distinct count; -1 = stale. Atomic so concurrent
  /// readers (phase-2 mining workers, service queries) may race only
  /// into recomputing the same idempotent value.
  mutable std::atomic<int64_t> cached_distinct_{-1};
};

}  // namespace causumx

#endif  // CAUSUMX_DATASET_COLUMN_H_
