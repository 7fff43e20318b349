// Unit tests for the string utilities used by the reporters and the JSON
// writers.
#include "dvf/common/string_util.hpp"

#include <gtest/gtest.h>

namespace dvf {
namespace {

TEST(FormatSignificant, RoundsToSignificantDigits) {
  EXPECT_EQ(format_significant(1234.5678, 4), "1235");
  EXPECT_EQ(format_significant(0.00012345, 3), "0.000123");
  EXPECT_EQ(format_significant(1.0, 4), "1");
}

TEST(FormatSignificant, SpecialValues) {
  EXPECT_EQ(format_significant(std::numeric_limits<double>::quiet_NaN()),
            "nan");
  EXPECT_EQ(format_significant(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(format_significant(-std::numeric_limits<double>::infinity()),
            "-inf");
}

TEST(JsonEscapeString, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape_string("plain"), "\"plain\"");
  EXPECT_EQ(json_escape_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_escape_string("x\n\t\r"), "\"x\\n\\t\\r\"");
  EXPECT_EQ(json_escape_string(std::string_view("\x01", 1)), "\"\\u0001\"");
}

}  // namespace
}  // namespace dvf
