#include "service/explain_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "causal/dag_io.h"
#include "causal/discovery.h"
#include "util/string_utils.h"

namespace causumx {

namespace {

[[noreturn]] void FieldError(const std::string& field,
                             const std::string& what) {
  throw std::runtime_error("\"" + field + "\" " + what);
}

// `text` as exactly one finite number: no trailing characters, no
// inf/nan.
std::optional<double> FiniteNumber(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

const std::string& StringField(const JsonValue& value,
                               const std::string& field) {
  if (value.kind() != JsonValue::Kind::kString) {
    FieldError(field, "must be a string");
  }
  return value.AsString();
}

// A number inside an interval; `open_lo` / `open_hi` exclude its ends.
double RangeField(const JsonValue& value, const std::string& field,
                  double lo, double hi, bool open_lo, bool open_hi) {
  const double v = value.kind() == JsonValue::Kind::kNumber
                       ? value.AsNumber()
                       : std::nan("");
  if (!((open_lo ? v > lo : v >= lo) && (open_hi ? v < hi : v <= hi))) {
    FieldError(field, StrFormat("must be a number in %c%g, %g%c",
                                open_lo ? '(' : '[', lo, hi,
                                open_hi ? ')' : ']'));
  }
  return v;
}

// An attribute list: a JSON array of names, or an "A,B" comma string
// (an empty string is the empty list).
std::vector<std::string> ListField(const JsonValue& value,
                                   const std::string& field) {
  std::vector<std::string> names;
  if (value.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& item : value.AsArray()) {
      names.push_back(StringField(item, field));
    }
  } else if (value.kind() != JsonValue::Kind::kString) {
    FieldError(field, "must be an array of names or an \"A,B\" string");
  } else if (!Trim(value.AsString()).empty()) {
    for (const std::string& part : Split(value.AsString(), ',')) {
      names.push_back(Trim(part));
    }
  }
  for (const std::string& name : names) {
    if (name.empty()) FieldError(field, "has an empty attribute name");
  }
  return names;
}

std::optional<DiscoveryAlgorithm> FindDiscovery(const std::string& name) {
  static const std::pair<const char*, DiscoveryAlgorithm> kAlgorithms[] = {
      {"pc", DiscoveryAlgorithm::kPc},
      {"fci", DiscoveryAlgorithm::kFci},
      {"lingam", DiscoveryAlgorithm::kLingam},
      {"nodag", DiscoveryAlgorithm::kNoDag},
  };
  for (const auto& [key, algorithm] : kAlgorithms) {
    if (name == key) return algorithm;
  }
  return std::nullopt;
}

}  // namespace

SimplePredicate ParseWherePredicate(const std::string& expr,
                                    const Table& table) {
  static const std::pair<const char*, CompareOp> kOps[] = {
      {">=", CompareOp::kGe}, {"<=", CompareOp::kLe}, {"=", CompareOp::kEq},
      {"<", CompareOp::kLt},  {">", CompareOp::kGt},
  };
  auto fail = [&expr](const std::string& what) {
    return std::runtime_error("where: " + what + " in '" + expr + "'");
  };
  for (const auto& [symbol, op] : kOps) {
    const size_t pos = expr.find(symbol);
    if (pos == std::string::npos) continue;
    const std::string attr = Trim(expr.substr(0, pos));
    const std::string value = Trim(expr.substr(pos + std::strlen(symbol)));
    if (attr.empty() || value.empty()) throw fail("empty attribute or value");
    auto idx = table.ColumnIndex(attr);
    if (!idx) throw fail("unknown attribute " + attr);
    if (table.column(*idx).type() == ColumnType::kCategorical) {
      return SimplePredicate(attr, op, Value(value));
    }
    const std::optional<double> number = FiniteNumber(value);
    if (!number) throw fail("'" + value + "' is not a finite number");
    return SimplePredicate(attr, op, Value(*number));
  }
  throw fail("no operator found");
}

size_t JsonCountField(const JsonValue& object, const std::string& key,
                      size_t fallback, size_t min) {
  const JsonValue* value = object.Find(key);
  // Past 2^53 a double no longer holds every integer (and the cast to
  // size_t may be undefined).
  const double v = value == nullptr ? static_cast<double>(fallback)
                   : value->kind() == JsonValue::Kind::kNumber
                       ? value->AsNumber()
                       : std::nan("");
  if (!(v >= static_cast<double>(min) && v <= 9007199254740992.0) ||
      v != std::floor(v)) {
    FieldError(key, "must be an integer in [" + std::to_string(min) +
                        ", 2^53]");
  }
  return static_cast<size_t>(v);
}

ExplainSpec ExplainSpec::Parse(
    const JsonValue& request,
    std::initializer_list<std::string_view> caller_keys) {
  using S = ExplainSpec;
  static const std::map<std::string_view, std::string S::*> kStrings = {
      {"table", &S::table}, {"csv", &S::csv},           {"avg", &S::avg},
      {"where", &S::where}, {"dag_text", &S::dag_text}, {"dag", &S::dag},
      {"discover", &S::discover}};
  static const std::map<std::string_view, std::vector<std::string> S::*>
      kLists = {{"group_by", &S::group_by},
                {"grouping_attrs", &S::grouping_attrs},
                {"treatment_attrs", &S::treatment_attrs}};
  if (request.kind() != JsonValue::Kind::kObject) {
    throw std::runtime_error("request must be a JSON object");
  }
  ExplainSpec spec;
  for (const auto& [key, value] : request.AsObject()) {
    if (const auto str = kStrings.find(key); str != kStrings.end()) {
      spec.*str->second = StringField(value, key);
    } else if (const auto list = kLists.find(key); list != kLists.end()) {
      spec.*list->second = ListField(value, key);
    } else if (key == "k") {
      spec.k = JsonCountField(request, key, 0, 1);
    } else if (key == "min_group_size") {
      spec.min_group_size = JsonCountField(request, key, 0, 1);
    } else if (key == "theta") {
      spec.theta = RangeField(value, key, 0.0, 1.0, false, false);
    } else if (key == "support") {
      spec.support = RangeField(value, key, 0.0, 1.0, true, false);
    } else if (key == "alpha") {
      spec.alpha = RangeField(value, key, 0.0, 1.0, true, true);
    } else if (key == "per_group_patterns") {
      if (value.kind() != JsonValue::Kind::kBool) {
        FieldError(key, "must be true or false");
      }
      spec.per_group_patterns = value.AsBool();
    } else if (std::find(caller_keys.begin(), caller_keys.end(), key) ==
               caller_keys.end()) {
      FieldError(key, "is not a request field");
    }
  }
  spec.discover = ToLower(spec.discover);
  if (!spec.discover.empty() && !FindDiscovery(spec.discover)) {
    FieldError("discover", "must be one of pc, fci, lingam, nodag");
  }
  if (spec.group_by.empty()) {
    throw std::runtime_error("request is missing \"group_by\"");
  }
  if (spec.avg.empty()) throw std::runtime_error("request is missing \"avg\"");
  return spec;
}

ExplainSpec ExplainSpec::FromText(
    const std::map<std::string, std::string>& fields) {
  static const std::set<std::string_view> kNumeric = {
      "k", "theta", "support", "alpha", "min_group_size"};
  JsonWriter w;
  w.BeginObject();
  for (const auto& [field, text] : fields) {
    // Numeric text becomes a number; anything else stays a string, which
    // Parse rejects for a numeric field, naming it.
    const std::optional<double> number =
        kNumeric.count(field) > 0 ? FiniteNumber(text) : std::nullopt;
    w.Key(field);
    if (number) {
      w.Double(*number);
    } else {
      w.String(text);
    }
  }
  w.EndObject();
  return Parse(JsonValue::Parse(w.str()));
}

std::string ExplainSpec::TableName(const std::string& fallback) const {
  if (!table.empty()) return table;
  return csv.empty() ? fallback : csv;
}

BoundExplain ExplainSpec::Bind(const Table& data) const {
  BoundExplain bound;
  bound.query.group_by = group_by;
  bound.query.avg_attribute = avg;
  if (!where.empty()) {
    bound.query.where = Pattern({ParseWherePredicate(where, data)});
  }

  if (!dag_text.empty()) {
    bound.dag = ParseDagText(dag_text);
  } else if (!dag.empty()) {
    bound.dag = ReadDagFile(dag);
  } else if (!discover.empty()) {
    bound.dag = DiscoverDag(data, *FindDiscovery(discover), avg);
  } else {
    bound.dag = MakeNoDag(data, avg);
  }

  CauSumXConfig& config = bound.config;
  config.k = k;
  config.theta = theta;
  config.apriori_support = support;
  config.treatment.alpha = alpha;
  config.grouping_attribute_allowlist = grouping_attrs;
  config.treatment_attribute_allowlist = treatment_attrs;
  config.grouping.include_per_group_patterns = per_group_patterns;
  config.estimator.min_group_size = min_group_size;
  return bound;
}

}  // namespace causumx
