#include "dvf/serve/json.hpp"

#include <charconv>

namespace dvf::serve {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    if (it->first == key) {
      return &it->second;
    }
  }
  return nullptr;
}

namespace {

/// Recursive-descent decoder over a bounded input. Depth is charged on
/// every container so adversarial nesting fails fast; every failure path
/// records the byte offset it was detected at.
class Decoder {
 public:
  Decoder(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonParsed run() {
    JsonParsed parsed;
    skip_whitespace();
    if (!parse_value(parsed.value, 0)) {
      parsed.error = error_;
      parsed.offset = error_offset_;
      return parsed;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      parsed.error = "trailing characters after JSON document";
      parsed.offset = pos_;
      return parsed;
    }
    parsed.ok = true;
    return parsed;
  }

 private:
  bool fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
      error_offset_ = pos_;
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (at_end()) {
      return fail("unexpected end of input");
    }
    switch (peek()) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    if (depth >= max_depth_) {
      return fail("nesting exceeds depth limit");
    }
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') {
        return fail("expected object key string");
      }
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_whitespace();
      if (at_end() || peek() != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_whitespace();
      JsonValue member;
      if (!parse_value(member, depth + 1)) {
        return false;
      }
      out.object.emplace_back(std::move(key), std::move(member));
      skip_whitespace();
      if (at_end()) {
        return fail("unterminated object");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    if (depth >= max_depth_) {
      return fail("nesting exceeds depth limit");
    }
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      JsonValue element;
      if (!parse_value(element, depth + 1)) {
        return false;
      }
      out.array.push_back(std::move(element));
      skip_whitespace();
      if (at_end()) {
        return fail("unterminated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return fail("truncated \\u escape");
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape digit");
      }
      out = out * 16 + digit;
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control character in one append.
      const std::size_t run_start = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) {
          break;
        }
        ++pos_;
      }
      out.append(text_.data() + run_start, pos_ - run_start);
      if (at_end()) {
        return fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') {
        return fail("unescaped control character in string");
      }
      ++pos_;  // '\'
      if (at_end()) {
        return fail("truncated escape sequence");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) {
            return false;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate in \\u escape");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) {
              return false;
            }
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape sequence");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') {
      ++pos_;
    }
    if (at_end() || peek() < '0' || peek() > '9') {
      return fail("invalid value");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit required after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) {
        ++pos_;
      }
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit required in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (end != token.data() + token.size() ||
        (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      return fail("malformed number");
    }
    // result_out_of_range: from_chars already saturated to ±inf / ±0; keep
    // the saturated value (consumers validate finiteness where it matters).
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    return true;
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t error_offset_ = 0;
};

}  // namespace

JsonParsed parse_json(std::string_view text, std::size_t max_depth) {
  return Decoder(text, max_depth).run();
}

}  // namespace dvf::serve
