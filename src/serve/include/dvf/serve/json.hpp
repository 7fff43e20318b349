// A small, total JSON decoder for the serve wire protocol.
//
// The daemon's first line of defense: every request frame a client sends —
// truncated, mutated, adversarial — goes through parse_json before anything
// else looks at it, so the decoder must be total. It never throws, never
// recurses past an explicit depth cap (a "[[[[..." bomb degrades into a
// typed error, not a stack overflow), and its memory use is linear in the
// input, which the transport has already bounded (max_request_bytes).
//
// Scope: full RFC 8259 input syntax (objects, arrays, strings with escapes
// and \uXXXX, numbers, true/false/null). Numbers decode to double — the
// protocol carries no integers that need more than 53 bits (budgets clamp).
// Duplicate object keys keep the LAST occurrence, documented in
// docs/serve.md. Encoding helpers cover the response side: every string the
// daemon emits goes through json_escape_string, and doubles render through
// json_number (finite shortest round-trip; non-finite never escapes the
// evaluators' totality layer, but the encoder still maps it to null rather
// than emitting bare `inf`).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dvf/common/string_util.hpp"

namespace dvf::serve {

/// One decoded JSON value. A tagged aggregate rather than a variant so the
/// decoder can build it without exceptions and consumers can pattern-match
/// with plain field access.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members; duplicate keys keep the last occurrence
  /// (find() honors that by scanning from the back).
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Member lookup on an object (last occurrence wins); nullptr when the
  /// key is absent or this is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Mutable lookup, so a consumer can move a member's payload out.
  [[nodiscard]] JsonValue* find(std::string_view key) noexcept {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }
};

/// Outcome of parse_json. On failure `error` describes the first problem
/// and `offset` is the byte position it was detected at.
struct JsonParsed {
  bool ok = false;
  JsonValue value;
  std::string error;
  std::size_t offset = 0;
};

/// Decodes exactly one JSON document from `text` (leading/trailing ASCII
/// whitespace allowed, anything else after the document is an error).
/// Total: never throws, never overflows the stack (containers deeper than
/// `max_depth` fail with a typed error).
[[nodiscard]] JsonParsed parse_json(std::string_view text,
                                    std::size_t max_depth = 64);

// The encoders live in dvf_common (string_util.hpp), shared by every JSON
// writer in the project; these names keep the serve-side spelling.
using dvf::json_escape_string;
using dvf::json_number;

}  // namespace dvf::serve
