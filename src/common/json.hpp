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

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
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
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double n) : type_(Type::Number), number_(n) {}
  Value(int n) : type_(Type::Number), number_(n) {}
  Value(long long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Value(std::size_t n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(Array items) : type_(Type::Array), array_(std::move(items)) {}

  static Value array() { return Value(Array{}); }
  static Value object() {
    Value v;
    v.type_ = Type::Object;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

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

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, other
/// trailing input is an error). Throws adept::Error with 1-based
/// line:column on malformed input.
Value parse(std::string_view text);

/// Escapes and quotes a string the way dump() does.
std::string quote(std::string_view s);

}  // namespace adept::json
