#include "common/value.h"

#include <cstdio>

namespace crew {
namespace {

std::string QuoteString(const std::string& s) {
  std::string out = "\"";
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
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

bool Value::Truthy() const {
  switch (kind()) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return AsBool();
    case Kind::kInt:
      return AsInt() != 0;
    case Kind::kDouble:
      return AsDouble() != 0.0;
    case Kind::kString:
      return !AsString().empty();
  }
  return false;
}

bool Value::operator==(const Value& o) const {
  if (is_numeric() && o.is_numeric()) {
    return NumericValue() == o.NumericValue();
  }
  return v_ == o.v_;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return AsBool() ? "true" : "false";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      // Enough digits to round-trip, with a trailing marker so 4.0
      // reads differently from int 4.
      char buf[64];
      snprintf(buf, sizeof(buf), "%.17g", AsDouble());
      std::string s(buf);
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Kind::kString:
      return QuoteString(AsString());
  }
  return "null";
}

}  // namespace crew
