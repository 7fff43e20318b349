#include "dvf/obs/trace_export.hpp"

#include <cstdio>

#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/robust_io.hpp"
#include "dvf/common/string_util.hpp"

namespace dvf::obs {

namespace {

/// ts/dur are microseconds in the trace-event format; keep nanosecond
/// precision as a fixed three-decimal fraction.
std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string render_chrome_trace(const std::vector<SpanRecord>& spans,
                                const MetricsSnapshot& metrics,
                                const std::vector<std::string>& thread_names,
                                const std::string& process_name) {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& event) {
    out += first ? "  " : ",\n  ";
    first = false;
    out += event;
  };

  {
    std::string meta =
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": ";
    meta += json_escape_string(process_name);
    meta += "}}";
    emit(meta);
  }
  for (std::size_t tid = 0; tid < thread_names.size(); ++tid) {
    if (thread_names[tid].empty() && tid != 0) {
      continue;
    }
    std::string meta = "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                       "\"tid\": " + std::to_string(tid) + ", \"args\": "
                       "{\"name\": ";
    meta += json_escape_string(thread_names[tid].empty() ? "main"
                                                         : thread_names[tid]);
    meta += "}}";
    emit(meta);
  }

  std::uint64_t last_ns = 0;
  for (const SpanRecord& span : spans) {
    last_ns = std::max(last_ns, span.end_ns);
    std::string event = "{\"ph\": \"X\", \"name\": ";
    event += json_escape_string(span.name);
    event += ", \"cat\": \"dvf\", \"pid\": 1, \"tid\": " +
             std::to_string(span.tid) + ", \"ts\": " + micros(span.start_ns) +
             ", \"dur\": " + micros(span.end_ns - span.start_ns) +
             ", \"args\": {\"id\": " + std::to_string(span.id) +
             ", \"parent\": " + std::to_string(span.parent) +
             ", \"depth\": " + std::to_string(span.depth) + "}}";
    emit(event);
  }

  // Final counter samples, so the totals are visible on the trace timeline.
  for (const auto& [name, value] : metrics.counters) {
    std::string event = "{\"ph\": \"C\", \"name\": ";
    event += json_escape_string(name);
    event += ", \"pid\": 1, \"tid\": 0, \"ts\": " + micros(last_ns) +
             ", \"args\": {\"value\": " + std::to_string(value) + "}}";
    emit(event);
  }

  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::string& process_name) {
  const std::string rendered = render_chrome_trace(
      snapshot_spans(), snapshot_metrics(), thread_names(), process_name);
  if (auto fp = DVF_FAILPOINT("obs.trace.write")) {
    throw Error(io::errno_message(
        "obs: error writing trace file " + path + " (injected)",
        fp.error_code));
  }
  // Atomic write-temp-then-rename: an export interrupted by a crash or a
  // full disk leaves either the old artifact or the complete new one.
  auto written = io::write_file_atomic(path, rendered);
  if (!written.ok()) {
    throw Error("obs: error writing trace file: " +
                written.error().describe());
  }
}

}  // namespace dvf::obs
