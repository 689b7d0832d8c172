#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
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

/// A byte the reader copies verbatim inside a string: not the closing
/// quote, not the start of an escape, not a raw control character.
bool plain_string_byte(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
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

/// Counts one container level for the span of a recursive parse call.
struct DepthGuard {
  explicit DepthGuard(Reader& reader) : reader_(reader) { reader_.enter(); }
  ~DepthGuard() { reader_.leave(); }
  Reader& reader_;
};

/// Moves `stack[base..]` into a vector of exactly that size and pops it.
template <class T>
std::vector<T> take_from(std::vector<T>& stack, std::size_t base) {
  std::vector<T> out(std::make_move_iterator(stack.begin() +
                                             static_cast<std::ptrdiff_t>(base)),
                     std::make_move_iterator(stack.end()));
  stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(base), stack.end());
  return out;
}

}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", type());
}

double Value::as_number() const {
  if (const double* n = std::get_if<double>(&data_)) return *n;
  type_error("number", type());
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

const Value::Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

const Value::Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

std::size_t Value::as_index() const {
  const double n = as_number();
  ADEPT_CHECK(n >= 0.0 && std::floor(n) == n && n <= 9.007199254740992e15,
              "JSON number is not a non-negative integer index");
  return static_cast<std::size_t>(n);
}

void Value::push_back(Value item) {
  Array* array = std::get_if<Array>(&data_);
  if (array == nullptr) type_error("array", type());
  array->push_back(std::move(item));
}

const Value* Value::find(std::string_view key) const {
  const Object* object = std::get_if<Object>(&data_);
  if (object == nullptr) return nullptr;
  for (const auto& [k, v] : *object)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (!is_object()) type_error("object", type());
  const Value* found = find(key);
  ADEPT_CHECK(found != nullptr,
              "JSON object is missing key '" + std::string(key) + "'");
  return *found;
}

void Value::set(std::string key, Value value) {
  Object* object = std::get_if<Object>(&data_);
  if (object == nullptr) type_error("object", type());
  for (auto& [k, v] : *object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object->emplace_back(std::move(key), std::move(value));
}

bool Value::operator==(const Value& other) const {
  return data_ == other.data_;
}

void Value::write(std::string& out) const {
  switch (type()) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += std::get<bool>(data_) ? "true" : "false"; return;
    case Type::Number: write_number(std::get<double>(data_), out); return;
    case Type::String: write_escaped(std::get<std::string>(data_), out); return;
    case Type::Array: {
      const Array& array = std::get<Array>(data_);
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        array[i].write(out);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      const Object& object = std::get<Object>(data_);
      out += '{';
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i != 0) out += ',';
        write_escaped(object[i].first, out);
        out += ':';
        object[i].second.write(out);
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

// ------------------------------------------------------------------ Reader --

void Reader::fail(const std::string& message) const {
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

void Reader::skip_whitespace() {
  while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                    peek() == '\r'))
    ++pos_;
}

bool Reader::consume(char c) {
  skip_whitespace();
  if (eof() || peek() != c) return false;
  ++pos_;
  return true;
}

void Reader::expect(char c) {
  skip_whitespace();
  if (eof() || peek() != c)
    fail(std::string("expected '") + c + "'" +
         (eof() ? " but input ended" : ""));
  ++pos_;
}

void Reader::enter() {
  if (++depth_ > kMaxDepth) fail("nesting too deep");
}

void Reader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing input after JSON document");
}

bool Reader::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

Value Reader::value() {
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
    case '"': return Value(string());
    case '[': return array();
    case '{': return object();
    default: return Value(number());
  }
}

double Reader::number() {
  // Enforce the JSON number grammar ('-'? int frac? exp?, no leading
  // zeros) before handing the span to from_chars, which is laxer.
  skip_whitespace();
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
  return value;
}

std::string Reader::string() {
  expect('"');
  std::string out;
  while (true) {
    // One append per run of plain bytes; only escapes go byte by byte.
    const std::size_t run = pos_;
    while (!eof() && plain_string_byte(peek())) ++pos_;
    out.append(text_.data() + run, pos_ - run);
    if (eof()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') fail("raw control character in string");
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

std::optional<std::string_view> Reader::plain_string() {
  skip_whitespace();
  if (eof() || peek() != '"') return std::nullopt;
  std::size_t end = pos_ + 1;
  while (end < text_.size() && plain_string_byte(text_[end])) ++end;
  if (end == text_.size() || text_[end] != '"') return std::nullopt;
  const std::string_view out = text_.substr(pos_ + 1, end - pos_ - 1);
  pos_ = end + 1;
  return out;
}

std::uint32_t Reader::parse_hex4() {
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

void Reader::append_unicode_escape(std::string& out) {
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

Value Reader::array() {
  const DepthGuard guard(*this);
  expect('[');
  skip_whitespace();
  if (!eof() && peek() == ']') {
    ++pos_;
    return Value::array();
  }
  const std::size_t base = items_.size();
  while (true) {
    Value item = value();
    items_.push_back(std::move(item));
    skip_whitespace();
    if (eof()) fail("unterminated array");
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    return Value(take_from(items_, base));
  }
}

Value Reader::object() {
  const DepthGuard guard(*this);
  expect('{');
  skip_whitespace();
  if (!eof() && peek() == '}') {
    ++pos_;
    return Value::object();
  }
  const std::size_t base = members_.size();
  while (true) {
    skip_whitespace();
    if (eof() || peek() != '"') fail("expected object key string");
    std::string key = string();
    for (std::size_t i = base; i < members_.size(); ++i)
      if (members_[i].first == key)
        fail("duplicate object key '" + key + "'");
    skip_whitespace();
    expect(':');
    Value member = value();
    members_.emplace_back(std::move(key), std::move(member));
    skip_whitespace();
    if (eof()) fail("unterminated object");
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    return Value::object(take_from(members_, base));
  }
}

Value parse(std::string_view text) {
  Reader reader(text);
  Value value = reader.value();
  reader.finish();
  return value;
}

std::string quote(std::string_view s) {
  std::string out;
  write_escaped(s, out);
  return out;
}

}  // namespace adept::json
