#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/string_utils.h"

namespace causumx {

namespace {

[[noreturn]] void Fail(size_t pos, const std::string& what) {
  throw std::runtime_error(
      StrFormat("json: %s at offset %zu", what.c_str(), pos));
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail(pos_, "trailing characters");
    return v;
  }

 private:
  char Peek() {
    if (pos_ >= text_.size()) Fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(pos_, StrFormat("expected '%c', got '%c'", c, text_[pos_]));
    }
    ++pos_;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  // The parser recurses once per nesting level, so untrusted input could
  // otherwise overflow the stack with a run of '[' — the HTTP server
  // parses request bodies with this (fuzzing found the segfault). 256
  // levels is far beyond any document we produce or accept.
  static constexpr size_t kMaxDepth = 256;

  JsonValue ParseValue() {
    SkipWhitespace();
    JsonValue v;
    switch (Peek()) {
      case '{':
        if (++depth_ > kMaxDepth) Fail(pos_, "nesting too deep");
        v = ParseObject();
        --depth_;
        return v;
      case '[':
        if (++depth_ > kMaxDepth) Fail(pos_, "nesting too deep");
        v = ParseArray();
        --depth_;
        return v;
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = ParseString();
        return v;
      case 't':
        if (!ConsumeLiteral("true")) Fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!ConsumeLiteral("false")) Fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!ConsumeLiteral("null")) Fail(pos_, "bad literal");
        return v;
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    Expect('{');
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      v.object_.emplace(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    Expect('[');
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const char c = Peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = Peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': AppendUtf8(ParseHex4(), &out); break;
        default: Fail(pos_ - 1, "bad escape");
      }
    }
  }

  unsigned ParseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = Peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else Fail(pos_ - 1, "bad \\u escape");
    }
    return code;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    // Surrogate pairs are not recombined (BMP-only inputs expected for
    // attribute names/values); lone surrogates encode as-is.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) Fail(pos_, "unexpected character");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') Fail(start, "bad number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = d;
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

JsonValue JsonValue::Parse(const std::string& text) {
  return JsonParser(text).ParseDocument();
}

namespace {

[[noreturn]] void KindMismatch(const char* want) {
  throw std::runtime_error(StrFormat("json: value is not a %s", want));
}

}  // namespace

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) KindMismatch("bool");
  return bool_;
}

double JsonValue::AsNumber() const {
  if (kind_ != Kind::kNumber) KindMismatch("number");
  return number_;
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) KindMismatch("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) KindMismatch("array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  if (kind_ != Kind::kObject) KindMismatch("object");
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsString();
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsNumber();
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsBool();
}

// ---- writer ----------------------------------------------------------------

std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumberToken(double value, int digits) {
  if (!std::isfinite(value)) return "null";
  return FormatDouble(value, digits);
}

namespace {

[[noreturn]] void Misuse(const char* what) {
  throw std::logic_error(std::string("JsonWriter: ") + what);
}

}  // namespace

void JsonWriter::BeginValue() {
  if (done_) Misuse("document already complete");
  if (!stack_.empty() && stack_.back() == Frame::kObject && !key_pending_) {
    Misuse("object member needs Key() before its value");
  }
  if (!stack_.empty() && !key_pending_ && has_value_.back()) out_ += ',';
  if (!stack_.empty()) has_value_.back() = true;
  key_pending_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  BeginValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    Misuse("EndObject without a matching open object");
  }
  out_ += '}';
  stack_.pop_back();
  has_value_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeginValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    Misuse("EndArray without a matching open array");
  }
  out_ += ']';
  stack_.pop_back();
  has_value_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    Misuse("Key() is only valid directly inside an object");
  }
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
  out_ += '"';
  out_ += JsonEscapeString(key);
  out_ += "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeginValue();
  out_ += '"';
  out_ += JsonEscapeString(value);
  out_ += '"';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeginValue();
  out_ += value ? "true" : "false";
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeginValue();
  out_ += "null";
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeginValue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeginValue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeginValue();
  if (!std::isfinite(value)) {
    out_ += "null";
  } else {
    // %.17g round-trips every double; shrink to the shortest formatting
    // that still parses back exactly.
    char buf[32];
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, value);
      if (std::strtod(buf, nullptr) == value) break;
    }
    out_ += buf;
  }
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeginValue();
  out_ += json;
  if (stack_.empty()) done_ = true;
  return *this;
}

const std::string& JsonWriter::str() const {
  if (!done_) Misuse("str() called with open containers");
  return out_;
}

}  // namespace causumx
