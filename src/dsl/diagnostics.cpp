#include "dvf/dsl/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "dvf/common/string_util.hpp"

namespace dvf::dsl {

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

void DiagnosticEngine::report(Diagnostic diagnostic) {
  switch (diagnostic.severity) {
    case Severity::kError: ++error_count_; break;
    case Severity::kWarning: ++warning_count_; break;
    case Severity::kNote: break;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticEngine::error(const char* code, SourceSpan span,
                             std::string message, std::string hint) {
  report({code, Severity::kError, span, std::move(message), std::move(hint)});
}

void DiagnosticEngine::warning(const char* code, SourceSpan span,
                               std::string message, std::string hint) {
  report({code, Severity::kWarning, span, std::move(message),
          std::move(hint)});
}

void DiagnosticEngine::note(const char* code, SourceSpan span,
                            std::string message, std::string hint) {
  report({code, Severity::kNote, span, std::move(message), std::move(hint)});
}

const Diagnostic* DiagnosticEngine::first_error() const noexcept {
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) {
      return &d;
    }
  }
  return nullptr;
}

std::vector<Diagnostic> DiagnosticEngine::sorted() const {
  std::vector<Diagnostic> out = diagnostics_;
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.line != b.span.line) {
                       return a.span.line < b.span.line;
                     }
                     if (a.span.column != b.span.column) {
                       return a.span.column < b.span.column;
                     }
                     return static_cast<int>(a.severity) <
                            static_cast<int>(b.severity);
                   });
  return out;
}

namespace {

/// The 1-based `line` of `source`, without its trailing newline / CR.
std::string_view source_line(std::string_view source, int line) {
  std::size_t begin = 0;
  for (int l = 1; l < line; ++l) {
    const std::size_t nl = source.find('\n', begin);
    if (nl == std::string_view::npos) {
      return {};
    }
    begin = nl + 1;
  }
  std::size_t end = source.find('\n', begin);
  if (end == std::string_view::npos) {
    end = source.size();
  }
  std::string_view text = source.substr(begin, end - begin);
  if (!text.empty() && text.back() == '\r') {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::string render_human(std::span<const Diagnostic> diagnostics,
                         std::string_view source, std::string_view filename) {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << filename;
    if (d.span.line > 0) {
      out << ':' << d.span.line << ':' << d.span.column;
    }
    out << ": " << to_string(d.severity) << '[' << d.code
        << "]: " << d.message << '\n';

    const std::string_view excerpt =
        d.span.line > 0 ? source_line(source, d.span.line)
                        : std::string_view{};
    if (!excerpt.empty()) {
      char gutter[16];
      std::snprintf(gutter, sizeof(gutter), "%5d", d.span.line);
      out << gutter << " | " << excerpt << '\n';
      out << "      | ";
      // Pad up to the caret column, copying tabs from the source line so the
      // underline stays aligned however the terminal expands them.
      const int col = std::max(1, d.span.column);
      for (int c = 1; c < col; ++c) {
        const std::size_t i = static_cast<std::size_t>(c - 1);
        out << (i < excerpt.size() && excerpt[i] == '\t' ? '\t' : ' ');
      }
      const int available =
          std::max(1, static_cast<int>(excerpt.size()) - (col - 1));
      const int underline = std::clamp(d.span.length, 1, available);
      out << '^';
      for (int c = 1; c < underline; ++c) {
        out << '~';
      }
      out << '\n';
    }
    if (!d.hint.empty()) {
      out << "  hint: " << d.hint << '\n';
    }
  }
  return out.str();
}

std::string render_json_object(const Diagnostic& d,
                               std::string_view filename) {
  std::ostringstream out;
  out << "{\"file\":" << json_escape_string(filename)
      << ",\"line\":" << d.span.line << ",\"column\":" << d.span.column
      << ",\"length\":" << d.span.length << ",\"severity\":\""
      << to_string(d.severity) << "\",\"code\":\"" << d.code
      << "\",\"message\":" << json_escape_string(d.message);
  if (!d.hint.empty()) {
    out << ",\"hint\":" << json_escape_string(d.hint);
  }
  out << "}";
  return out.str();
}

std::string render_json(std::span<const Diagnostic> diagnostics,
                        std::string_view filename) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const Diagnostic& d : diagnostics) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "  " << render_json_object(d, filename);
  }
  out << (first ? "]\n" : "\n]\n");
  return out.str();
}

}  // namespace dvf::dsl
