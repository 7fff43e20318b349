// Small string utilities shared by the reporters and every JSON writer.
#pragma once

#include <string>
#include <string_view>

namespace dvf {

/// Formats a double with `digits` significant digits, trimming trailing
/// zeros — the reporters use this for table cells.
[[nodiscard]] std::string format_significant(double value, int digits = 4);

/// `text` as a quoted JSON string literal (escapes ", \, control chars).
[[nodiscard]] std::string json_escape_string(std::string_view text);

/// A double as a JSON number token (17 significant digits, round-trip
/// exact). Non-finite values encode as null so no output ever carries a
/// bare inf/nan token.
[[nodiscard]] std::string json_number(double value);

}  // namespace dvf
