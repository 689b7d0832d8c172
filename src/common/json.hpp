#pragma once
/// \file json.hpp
/// \brief Dependency-free JSON value type, parser and writer.
///
/// The planning front door speaks JSON-lines (io/wire.hpp, `adept serve`),
/// and the workers' answers must round-trip bit-exactly — both need a
/// small, exact JSON kernel rather than a third-party library:
///
///   - Numbers are written with the shortest representation that parses
///     back to the identical double (std::to_chars), so
///     parse(dump(x)) == x holds bit-for-bit and dumps are canonical.
///     Non-finite numbers are rejected by the writer (JSON cannot carry
///     them); wire.cpp encodes the one domain value that needs them
///     (unlimited demand) symbolically.
///   - Objects preserve insertion order, so a serializer that always
///     emits keys in one order produces one canonical byte string.
///   - The parser is strict (complete-input, no trailing garbage) and
///     reports 1-based line/column on malformed input, matching the
///     platform-file parser's error style.
///   - A Value is one tagged variant (null | bool | double | string |
///     array | object, 40 bytes on LP64). The parser builds every array
///     and object once, at its exact size, from element stacks it keeps
///     for the whole document, and copies runs of unescaped string bytes
///     in bulk.
///   - The lexical layer (whitespace, literals, the strict number
///     grammar, string and escape scanning, the nesting limit) is the
///     public json::Reader, so a decoder for one fixed schema can walk a
///     document without building its tree (io/wire.hpp's serve-line
///     decoder) and still agree with parse() byte for byte.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace adept::json {

/// One JSON value: null, bool, number (double), string, array or object.
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Value>;
  /// Insertion-ordered key→value sequence (keys unique, writer emits in
  /// stored order — the canonical-form property the cache relies on).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;  ///< null
  Value(std::nullptr_t) {}
  Value(bool b) : data_(std::in_place_type<bool>, b) {}
  Value(double n) : data_(std::in_place_type<double>, n) {}
  Value(int n) : data_(std::in_place_type<double>, n) {}
  Value(long long n)
      : data_(std::in_place_type<double>, static_cast<double>(n)) {}
  Value(std::size_t n)
      : data_(std::in_place_type<double>, static_cast<double>(n)) {}
  Value(const char* s) : data_(std::in_place_type<std::string>, s) {}
  Value(std::string s) : data_(std::in_place_type<std::string>, std::move(s)) {}
  Value(Array items) : data_(std::in_place_type<Array>, std::move(items)) {}

  static Value array() { return Value(Array{}); }
  /// An object holding `members` as given; the keys must be unique.
  static Value object(Object members = {}) {
    Value v;
    v.data_.emplace<Object>(std::move(members));
    return v;
  }

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_number() const { return type() == Type::Number; }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  /// Typed accessors; throw adept::Error naming the actual type on a
  /// mismatch (wire deserializers lean on this for schema errors).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// as_number() narrowed to a non-negative integer; throws when the
  /// value is negative, non-integral or out of std::size_t range.
  std::size_t as_index() const;

  // -- array building ------------------------------------------------------
  void push_back(Value item);

  // -- object access -------------------------------------------------------
  /// Member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Member lookup; throws adept::Error when absent.
  const Value& at(std::string_view key) const;
  /// Inserts or replaces a member (insertion order kept on replace).
  void set(std::string key, Value value);

  bool operator==(const Value& other) const;

  /// Serialises to the canonical compact form (no whitespace, object keys
  /// in stored order, shortest round-trip numbers). Throws adept::Error
  /// on non-finite numbers.
  std::string dump() const;

 private:
  void write(std::string& out) const;

  /// Alternatives in Type order, so index() is the Type.
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      data_;
};

static_assert(sizeof(Value) <= 48,
              "json::Value must stay one compact tagged variant");

/// Parses exactly one JSON document (trailing whitespace allowed, other
/// trailing input is an error). Throws adept::Error with 1-based
/// line:column on malformed input.
Value parse(std::string_view text);

/// A strict JSON cursor over one text: the lexer and tree builder behind
/// parse(), public so a schema-specific decoder can read the members it
/// knows token by token and hand any other member to value(). Every
/// token reader skips leading whitespace, and every failure throws
/// adept::Error with 1-based line:column, exactly as parse() does.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// One complete value (a whole subtree) at the cursor.
  Value value();
  /// Consumes `c` after whitespace when it is next; false otherwise.
  bool consume(char c);
  /// Like consume(), but the character is required.
  void expect(char c);
  /// A number under the strict JSON grammar.
  double number();
  /// A string value or key with its escapes resolved.
  std::string string();
  /// A string with no escape in it, as a view into the text; nullopt,
  /// with the cursor left at the opening quote, when the next token is
  /// not a string, or the string holds a backslash or a raw control
  /// byte, or is unterminated.
  std::optional<std::string_view> plain_string();
  /// Counts one container level into the nesting limit (parse() allows
  /// 192); call when a hand-read container opens, leave() when it
  /// closes, so value() calls inside it see the same depth parse() does.
  void enter();
  void leave() { --depth_; }
  /// Requires that only whitespace remains.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& message) const;
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool digit() const { return !eof() && peek() >= '0' && peek() <= '9'; }
  void skip_whitespace();
  bool consume_literal(std::string_view literal);
  std::uint32_t parse_hex4();
  void append_unicode_escape(std::string& out);
  Value array();
  Value object();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  // Elements and members of the containers still open, innermost last:
  // a finished container moves its run off the top into a vector of
  // exactly its size, and the stacks are reused for the whole document.
  std::vector<Value> items_;
  Value::Object members_;
};

/// Escapes and quotes a string the way dump() does.
std::string quote(std::string_view s);

}  // namespace adept::json
