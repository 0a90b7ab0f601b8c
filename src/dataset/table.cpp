#include "dataset/table.h"

#include <algorithm>
#include <stdexcept>

namespace causumx {

size_t Table::AddColumn(const std::string& name, ColumnType type) {
  if (num_rows_ > 0) {
    throw std::logic_error("AddColumn after rows were appended");
  }
  if (index_.count(name)) {
    throw std::logic_error("duplicate column name: " + name);
  }
  const size_t idx = columns_.size();
  columns_.push_back(std::make_unique<Column>(name, type));
  index_.emplace(name, idx);
  return idx;
}

void Table::AddRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    throw std::logic_error("row arity mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i]->AppendValue(values[i]);
  }
  ++num_rows_;
}

void Table::AppendRows(const std::vector<std::vector<Value>>& rows) {
  // Validate the whole batch before touching any column so a bad row
  // cannot leave the table half-appended.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != columns_.size()) {
      throw std::invalid_argument(
          "AppendRows: row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values, expected " +
          std::to_string(columns_.size()));
    }
    for (size_t c = 0; c < rows[i].size(); ++c) {
      const Value& v = rows[i][c];
      if (v.is_null()) continue;
      if (columns_[c]->type() != ColumnType::kCategorical && v.is_string()) {
        throw std::invalid_argument(
            "AppendRows: row " + std::to_string(i) + " column '" +
            columns_[c]->name() + "': string value in a " +
            ColumnTypeName(columns_[c]->type()) + " column");
      }
    }
  }
  for (auto& c : columns_) c->Reserve(num_rows_ + rows.size());
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      columns_[c]->AppendValue(row[c]);
    }
    ++num_rows_;
  }
  ++version_;
}

Table Table::Clone() const {
  Table out;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) {
    out.columns_.push_back(std::make_unique<Column>(*c));
  }
  out.index_ = index_;
  out.num_rows_ = num_rows_;
  out.version_ = version_;
  return out;
}

Table Table::Head(size_t n) const {
  std::vector<size_t> rows(std::min(n, num_rows_));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return SelectRows(rows);
}

Table Table::Tail(size_t begin) const {
  begin = std::min(begin, num_rows_);
  std::vector<size_t> rows(num_rows_ - begin);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = begin + i;
  return SelectRows(rows);
}

std::vector<std::vector<Value>> Table::MaterializeRows(size_t begin,
                                                       size_t end) const {
  end = std::min(end, num_rows_);
  std::vector<std::vector<Value>> rows;
  rows.reserve(end > begin ? end - begin : 0);
  for (size_t r = begin; r < end; ++r) {
    std::vector<Value> row;
    row.reserve(columns_.size());
    for (const auto& c : columns_) row.push_back(c->GetValue(r));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::optional<size_t> Table::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const Column& Table::column(const std::string& name) const {
  auto idx = ColumnIndex(name);
  if (!idx) throw std::out_of_range("unknown column: " + name);
  return *columns_[*idx];
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c->name());
  return names;
}

Table Table::SelectRows(const std::vector<size_t>& rows) const {
  Table out;
  for (const auto& c : columns_) out.AddColumn(c->name(), c->type());
  for (size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i]->AppendRowsFrom(*columns_[i], rows);
  }
  out.num_rows_ = rows.size();
  return out;
}

Table Table::SelectColumns(const std::vector<std::string>& names) const {
  Table out;
  std::vector<size_t> src_idx;
  src_idx.reserve(names.size());
  for (const auto& n : names) {
    auto idx = ColumnIndex(n);
    if (!idx) throw std::out_of_range("unknown column: " + n);
    src_idx.push_back(*idx);
    out.AddColumn(n, columns_[*idx]->type());
  }
  out.ReserveRows(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t j = 0; j < src_idx.size(); ++j) {
      const Column& src = *columns_[src_idx[j]];
      Column& dst = *out.columns_[j];
      if (src.IsNull(r)) {
        dst.AppendNull();
        continue;
      }
      switch (src.type()) {
        case ColumnType::kInt64:
          dst.AppendInt(src.GetInt(r));
          break;
        case ColumnType::kDouble:
          dst.AppendDouble(src.GetDouble(r));
          break;
        case ColumnType::kCategorical:
          dst.AppendCategorical(src.DictString(src.GetCode(r)));
          break;
      }
    }
  }
  out.num_rows_ = num_rows_;
  return out;
}

void Table::CommitColumnarRows(size_t n) {
  for (const auto& c : columns_) {
    if (c->size() != num_rows_ + n) {
      throw std::logic_error("columnar append: column " + c->name() +
                             " has the wrong length");
    }
  }
  num_rows_ += n;
}

void Table::ReserveRows(size_t n) {
  for (auto& c : columns_) c->Reserve(n);
}

}  // namespace causumx
