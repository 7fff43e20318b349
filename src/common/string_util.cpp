#include "dvf/common/string_util.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dvf {

std::string format_significant(double value, int digits) {
  if (std::isnan(value)) {
    return "nan";
  }
  if (std::isinf(value)) {
    return value > 0 ? "inf" : "-inf";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

std::string json_escape_string(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
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
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  // General format at precision 17 is defined to match printf's "%.17g".
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  return std::string(buf, end);
}

}  // namespace dvf
