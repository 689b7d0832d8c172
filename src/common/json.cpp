#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>

#include "common/error.hpp"

namespace adept::json {

namespace {

const char* type_name(Value::Type type) {
  switch (type) {
    case Value::Type::Null: return "null";
    case Value::Type::Bool: return "bool";
    case Value::Type::Number: return "number";
    case Value::Type::String: return "string";
    case Value::Type::Array: return "array";
    case Value::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Value::Type got) {
  throw Error(std::string("JSON value is ") + type_name(got) + ", expected " +
              wanted);
}

void write_escaped(std::string_view s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void write_number(double value, std::string& out) {
  ADEPT_CHECK(std::isfinite(value),
              "JSON cannot represent a non-finite number");
  char buffer[32];
  // Shortest representation that round-trips to the identical double —
  // the property the wire round-trip tests depend on.
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  ADEPT_ASSERT(result.ec == std::errc(), "number formatting failed");
  out.append(buffer, result.ptr);
}

/// Containers deeper than this fail to parse. The recursive-descent
/// parser spends stack per nesting level; without a ceiling one hostile
/// line ("[[[[...") would overflow the stack of whatever is serving.
constexpr std::size_t kMaxDepth = 192;

/// Strict recursive-descent parser over a string_view with 1-based
/// line/column diagnostics.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing input after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw Error("JSON parse error at " + std::to_string(line) + ":" +
                std::to_string(column) + ": " + message);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'" +
           (eof() ? " but input ended" : ""));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  bool digit() const { return !eof() && peek() >= '0' && peek() <= '9'; }

  Value parse_number() {
    // Enforce the JSON number grammar ('-'? int frac? exp?, no leading
    // zeros) before handing the span to from_chars, which is laxer.
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (!digit()) {
      pos_ = start;
      fail("malformed number");
    }
    if (peek() == '0') {
      ++pos_;
      if (digit()) {
        pos_ = start;
        fail("number has a leading zero");
      }
    } else {
      while (digit()) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digit()) {
        pos_ = start;
        fail("malformed number");
      }
      while (digit()) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digit()) {
        pos_ = start;
        fail("malformed number");
      }
      while (digit()) ++pos_;
    }
    double value = 0.0;
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    const auto result = std::from_chars(begin, end, value);
    if (result.ec != std::errc() || result.ptr != end) {
      pos_ = start;
      fail("malformed number");
    }
    return Value(value);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    std::uint32_t code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
      if (!consume_literal("\\u")) fail("unpaired surrogate");
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth) parser_.fail("nesting too deep");
    }
    ~DepthGuard() { --parser_.depth_; }
    Parser& parser_;
  };

  Value parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    Value out = Value::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  Value parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    Value out = Value::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (out.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

std::size_t Value::as_index() const {
  const double n = as_number();
  ADEPT_CHECK(n >= 0.0 && std::floor(n) == n && n <= 9.007199254740992e15,
              "JSON number is not a non-negative integer index");
  return static_cast<std::size_t>(n);
}

void Value::push_back(Value item) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(item));
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (type_ != Type::Object) type_error("object", type_);
  const Value* found = find(key);
  ADEPT_CHECK(found != nullptr,
              "JSON object is missing key '" + std::string(key) + "'");
  return *found;
}

void Value::set(std::string key, Value value) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return number_ == other.number_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

void Value::write(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: write_number(number_, out); return;
    case Type::String: write_escaped(string_, out); return;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        array_[i].write(out);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        write_escaped(object_[i].first, out);
        out += ':';
        object_[i].second.write(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out);
  return out;
}

Value parse(std::string_view text) { return Parser(text).run(); }

std::string quote(std::string_view s) {
  std::string out;
  write_escaped(s, out);
  return out;
}

}  // namespace adept::json
