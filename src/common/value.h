#ifndef CREW_COMMON_VALUE_H_
#define CREW_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace crew {

/// A typed workflow data item. Steps read and write named Values; the
/// WFMS treats them opaquely except where conditions reference them.
///
/// The variant order defines Kind numbering; keep in sync.
class Value {
 public:
  enum class Kind { kNull = 0, kBool, kInt, kDouble, kString };

  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(int i) : v_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Preconditions: the matching is_*() holds.
  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric widening: int or double -> double. Precondition: is_numeric().
  double NumericValue() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// Truthiness used by rule/arc conditions: false for null, 0, 0.0, "",
  /// false; true otherwise.
  bool Truthy() const;

  /// Deep equality; int 3 == double 3.0.
  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// Renders for logs and display: null, true, 42, 4.5, "text" (strings
  /// are quoted with backslash escaping). Records that are read back
  /// use the binary form (common/binio.h).
  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

}  // namespace crew

#endif  // CREW_COMMON_VALUE_H_
