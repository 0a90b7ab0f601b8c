#include "core/json_export.h"

#include "util/json.h"

namespace causumx {

namespace {

// Every double is written as JsonNumberToken(value, digits): a fixed
// digit count keeps the summary bytes stable, and non-finite values
// (an invalid estimate carries NaN in every double field) become null
// instead of bare nan tokens, which no JSON parser accepts.

void WritePredicate(JsonWriter& w, const SimplePredicate& pred) {
  w.BeginObject()
      .Key("attribute").String(pred.attribute)
      .Key("op").String(CompareOpSymbol(pred.op))
      .Key("value");
  if (pred.value.is_null()) {
    w.Null();
  } else if (pred.value.is_string()) {
    w.String(pred.value.AsString());
  } else if (pred.value.is_double()) {
    w.Raw(JsonNumberToken(pred.value.AsDouble(), 6));
  } else {
    w.Int(pred.value.AsInt());
  }
  w.EndObject();
}

void WritePattern(JsonWriter& w, const Pattern& pattern) {
  w.BeginArray();
  for (const SimplePredicate& pred : pattern.predicates()) {
    WritePredicate(w, pred);
  }
  w.EndArray();
}

void WriteEffect(JsonWriter& w, const EffectEstimate& effect) {
  const auto [lo, hi] = effect.ConfidenceInterval();
  w.BeginObject().Key("valid").Bool(effect.valid);
  w.Key("cate").Raw(JsonNumberToken(effect.cate, 8));
  w.Key("std_error").Raw(JsonNumberToken(effect.std_error, 8));
  w.Key("p_value").Raw(JsonNumberToken(effect.p_value, 8));
  w.Key("ci95").BeginArray()
      .Raw(JsonNumberToken(lo, 8))
      .Raw(JsonNumberToken(hi, 8))
      .EndArray();
  w.Key("n_treated").Uint(effect.n_treated);
  w.Key("n_control").Uint(effect.n_control);
  w.EndObject();
}

void WriteSide(JsonWriter& w, const char* name, const TreatmentSide& side) {
  w.Key(name).BeginObject().Key("pattern");
  WritePattern(w, side.pattern);
  w.Key("effect");
  WriteEffect(w, side.effect);
  w.EndObject();
}

void WriteExplanation(JsonWriter& w, const Explanation& exp) {
  w.BeginObject().Key("grouping_pattern");
  WritePattern(w, exp.grouping_pattern);
  w.Key("groups_covered").BeginArray();
  for (size_t g : exp.group_coverage.ToIndices()) w.Uint(g);
  w.EndArray().Key("weight").Raw(JsonNumberToken(exp.Weight(), 8));
  if (exp.positive) WriteSide(w, "positive", *exp.positive);
  if (exp.negative) WriteSide(w, "negative", *exp.negative);
  w.EndObject();
}

}  // namespace

std::string JsonEscape(const std::string& s) { return JsonEscapeString(s); }

std::string PredicateToJson(const SimplePredicate& pred) {
  JsonWriter w;
  WritePredicate(w, pred);
  return w.str();
}

std::string PatternToJson(const Pattern& pattern) {
  JsonWriter w;
  WritePattern(w, pattern);
  return w.str();
}

std::string EffectToJson(const EffectEstimate& effect) {
  JsonWriter w;
  WriteEffect(w, effect);
  return w.str();
}

std::string ExplanationToJson(const Explanation& exp) {
  JsonWriter w;
  WriteExplanation(w, exp);
  return w.str();
}

std::string SummaryToJson(const ExplanationSummary& summary,
                          const GroupByAvgQuery* query) {
  JsonWriter w;
  w.BeginObject();
  if (query != nullptr) w.Key("query").String(query->ToSql());
  w.Key("num_groups").Uint(summary.num_groups)
      .Key("covered_groups").Uint(summary.covered_groups)
      .Key("coverage_satisfied").Bool(summary.coverage_satisfied)
      .Key("total_explainability")
      .Raw(JsonNumberToken(summary.total_explainability, 8))
      .Key("explanations")
      .BeginArray();
  for (const Explanation& exp : summary.explanations) {
    WriteExplanation(w, exp);
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace causumx
