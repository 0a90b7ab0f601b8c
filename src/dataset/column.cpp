#include "dataset/column.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace causumx {

Column::Column(std::string name, ColumnType type)
    : name_(std::move(name)), type_(type) {}

Column::Column(const Column& other)
    : name_(other.name_),
      type_(other.type_),
      ints_(other.ints_),
      doubles_(other.doubles_),
      codes_(other.codes_),
      dict_(other.dict_),
      dict_index_(other.dict_index_),
      cached_distinct_(
          other.cached_distinct_.load(std::memory_order_relaxed)) {}

size_t Column::size() const {
  switch (type_) {
    case ColumnType::kInt64:
      return ints_.size();
    case ColumnType::kDouble:
      return doubles_.size();
    case ColumnType::kCategorical:
      return codes_.size();
  }
  return 0;
}

void Column::AppendInt(int64_t v) {
  if (type_ != ColumnType::kInt64) {
    throw std::logic_error("AppendInt on non-int column " + name_);
  }
  ints_.push_back(v);
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

void Column::AppendDouble(double v) {
  if (type_ != ColumnType::kDouble) {
    throw std::logic_error("AppendDouble on non-double column " + name_);
  }
  doubles_.push_back(v);
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

void Column::AppendCategorical(const std::string& v) {
  if (type_ != ColumnType::kCategorical) {
    throw std::logic_error("AppendCategorical on non-categorical column " +
                           name_);
  }
  auto it = dict_index_.find(v);
  int32_t code;
  if (it == dict_index_.end()) {
    code = static_cast<int32_t>(dict_.size());
    dict_.push_back(v);
    dict_index_.emplace(v, code);
  } else {
    code = it->second;
  }
  codes_.push_back(code);
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

void Column::AppendCode(int32_t code) {
  if (type_ != ColumnType::kCategorical || code < 0 ||
      static_cast<size_t>(code) >= dict_.size()) {
    throw std::logic_error("AppendCode: no such code in column " + name_);
  }
  codes_.push_back(code);
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

void Column::AppendNull() {
  switch (type_) {
    case ColumnType::kInt64:
      ints_.push_back(kNullInt);
      break;
    case ColumnType::kDouble:
      doubles_.push_back(std::nan(""));
      break;
    case ColumnType::kCategorical:
      codes_.push_back(kNullCode);
      break;
  }
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ColumnType::kInt64:
      AppendInt(v.is_int() ? v.AsInt() : static_cast<int64_t>(v.AsDouble()));
      break;
    case ColumnType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ColumnType::kCategorical:
      AppendCategorical(v.is_string() ? v.AsString() : v.ToString());
      break;
  }
}

void Column::AppendRowsFrom(const Column& src,
                            const std::vector<size_t>& rows) {
  if (src.type_ != type_) {
    throw std::logic_error("AppendRowsFrom across types into " + name_);
  }
  switch (type_) {
    case ColumnType::kInt64:
      ints_.reserve(ints_.size() + rows.size());
      for (size_t r : rows) ints_.push_back(src.ints_[r]);
      break;
    case ColumnType::kDouble:
      doubles_.reserve(doubles_.size() + rows.size());
      for (size_t r : rows) {
        const double v = src.doubles_[r];
        doubles_.push_back(std::isnan(v) ? std::nan("") : v);
      }
      break;
    case ColumnType::kCategorical: {
      // Source code -> this column's code, resolved by string on first
      // use: the same codes and dictionary order as appending by string.
      std::vector<int32_t> remap(src.dict_.size(), kNullCode);
      codes_.reserve(codes_.size() + rows.size());
      for (size_t r : rows) {
        const int32_t code = src.codes_[r];
        if (code == kNullCode) {
          codes_.push_back(kNullCode);
          continue;
        }
        if (remap[code] == kNullCode) {
          AppendCategorical(src.dict_[code]);
          remap[code] = codes_.back();
          continue;
        }
        codes_.push_back(remap[code]);
      }
      break;
    }
  }
  cached_distinct_.store(-1, std::memory_order_relaxed);
}

bool Column::IsNull(size_t row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return ints_[row] == kNullInt;
    case ColumnType::kDouble:
      return std::isnan(doubles_[row]);
    case ColumnType::kCategorical:
      return codes_[row] == kNullCode;
  }
  return true;
}

double Column::GetNumeric(size_t row) const {
  if (IsNull(row)) return std::nan("");
  switch (type_) {
    case ColumnType::kInt64:
      return static_cast<double>(ints_[row]);
    case ColumnType::kDouble:
      return doubles_[row];
    case ColumnType::kCategorical:
      return static_cast<double>(codes_[row]);
  }
  return std::nan("");
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value();
  switch (type_) {
    case ColumnType::kInt64:
      return Value(ints_[row]);
    case ColumnType::kDouble:
      return Value(doubles_[row]);
    case ColumnType::kCategorical:
      return Value(dict_[codes_[row]]);
  }
  return Value();
}

int32_t Column::CodeOf(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? kNullCode : it->second;
}

namespace {

// The distinct non-null values of `values`, ascending, keeping the first
// in row order of values that compare equal (as inserting every value
// into a std::set would). Small domains grow a sorted vector by binary
// search; a domain that outgrows it is finished by one stable sort.
template <typename T, typename IsNull>
std::vector<T> SortedDistinct(const std::vector<T>& values, IsNull is_null) {
  constexpr size_t kSmallDomain = 64;
  std::vector<T> out;
  for (const T v : values) {
    if (is_null(v)) continue;
    const auto it = std::lower_bound(out.begin(), out.end(), v);
    if (it != out.end() && !(v < *it)) continue;
    if (out.size() == kSmallDomain) {
      std::vector<T> all;
      all.reserve(values.size());
      for (const T x : values) {
        if (!is_null(x)) all.push_back(x);
      }
      std::stable_sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      return all;
    }
    out.insert(it, v);
  }
  return out;
}

bool IsNullInt(int64_t v) { return v == Column::kNullInt; }
bool IsNullDouble(double v) { return std::isnan(v); }

// SortedDistinct for integers: a narrow value range is marked in a
// presence table in one pass (equal integers are identical, so no
// representative is to be kept).
std::vector<int64_t> SortedDistinctInts(const std::vector<int64_t>& values) {
  constexpr uint64_t kMaxRange = 1 << 12;
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const int64_t v : values) {
    if (IsNullInt(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (lo > hi) return {};
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (range >= kMaxRange) return SortedDistinct(values, IsNullInt);
  std::vector<uint8_t> present(range + 1, 0);
  for (const int64_t v : values) {
    if (!IsNullInt(v)) {
      present[static_cast<uint64_t>(v) - static_cast<uint64_t>(lo)] = 1;
    }
  }
  std::vector<int64_t> out;
  for (uint64_t i = 0; i <= range; ++i) {
    if (present[i]) {
      out.push_back(static_cast<int64_t>(static_cast<uint64_t>(lo) + i));
    }
  }
  return out;
}

}  // namespace

size_t Column::NumDistinct() const {
  const int64_t cached = cached_distinct_.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<size_t>(cached);
  // Concurrent first calls may each compute the (identical) count; the
  // last store wins. No data is published through the atomic, so
  // relaxed ordering suffices.
  size_t n = 0;
  switch (type_) {
    case ColumnType::kCategorical:
      n = dict_.size();
      break;
    case ColumnType::kInt64:
      n = SortedDistinctInts(ints_).size();
      break;
    case ColumnType::kDouble:
      n = SortedDistinct(doubles_, IsNullDouble).size();
      break;
  }
  cached_distinct_.store(static_cast<int64_t>(n), std::memory_order_relaxed);
  return n;
}

std::vector<Value> Column::DistinctValues() const {
  std::vector<Value> out;
  switch (type_) {
    case ColumnType::kCategorical: {
      std::vector<std::string> sorted = dict_;
      std::sort(sorted.begin(), sorted.end());
      out.reserve(sorted.size());
      for (auto& s : sorted) out.emplace_back(std::move(s));
      break;
    }
    case ColumnType::kInt64:
      for (int64_t v : SortedDistinctInts(ints_)) out.emplace_back(v);
      break;
    case ColumnType::kDouble:
      for (double v : SortedDistinct(doubles_, IsNullDouble)) {
        out.emplace_back(v);
      }
      break;
  }
  return out;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ColumnType::kInt64:
      ints_.reserve(n);
      break;
    case ColumnType::kDouble:
      doubles_.reserve(n);
      break;
    case ColumnType::kCategorical:
      codes_.reserve(n);
      break;
  }
}

namespace {

// The sorted distinct values `prefix` of a column's first rows, merged
// with those of `values[from, end)` (appended rows): a value already in
// the prefix keeps the prefix's representative, as a scan in row order
// would.
template <typename T, typename IsNull>
std::vector<Value> MergeAppended(const std::vector<Value>& prefix,
                                 T (Value::*get)() const,
                                 const std::vector<T>& values, size_t from,
                                 IsNull is_null) {
  const std::vector<T> fresh = SortedDistinct(
      std::vector<T>(values.begin() + static_cast<ptrdiff_t>(from),
                     values.end()),
      is_null);
  std::vector<Value> out;
  out.reserve(prefix.size() + fresh.size());
  size_t j = 0;
  for (const Value& p : prefix) {
    const T pv = (p.*get)();
    for (; j < fresh.size() && fresh[j] < pv; ++j) out.emplace_back(fresh[j]);
    if (j < fresh.size() && !(pv < fresh[j])) ++j;  // equal: keep the prefix's
    out.push_back(p);
  }
  for (; j < fresh.size(); ++j) out.emplace_back(fresh[j]);
  return out;
}

}  // namespace

std::vector<Value> Column::DistinctValuesAfterAppend(
    const std::vector<Value>& prefix_distinct, size_t prefix_rows) const {
  switch (type_) {
    case ColumnType::kCategorical:
      // The dictionary holds exactly the values appended so far.
      return DistinctValues();
    case ColumnType::kInt64:
      return MergeAppended(prefix_distinct, &Value::AsInt, ints_, prefix_rows,
                           IsNullInt);
    case ColumnType::kDouble:
      return MergeAppended(prefix_distinct, &Value::AsDouble, doubles_,
                           prefix_rows, IsNullDouble);
  }
  return {};
}

}  // namespace causumx
