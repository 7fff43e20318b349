// Trace serialization: persist a kernel's memory-reference stream together
// with its data-structure table, and replay it later against any cache
// configuration (dvfc trace / dvfc replay). This decouples the expensive
// part of a verification study (generating references) from the cheap part
// (simulating caches), the same split the paper's Pin-based flow used.
//
// One wire format (version 2): explicitly little-endian with byte-order
// conversion on read, so traces are portable across hosts. Records are
// delta-encoded (zigzag varint address deltas, size/ds elided when
// repeated, constant-stride runs collapsed) and framed into self-contained
// chunks, which is what lets dvf::TraceReader stream multi-GB traces without
// materializing them. Wire details: src/trace/wire_format.hpp. Readers
// reject any other version, including the flat native-endian version 1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf {

/// A deserialized trace: the structure table plus the reference stream.
struct TraceFile {
  std::vector<DataStructureInfo> structures;
  std::vector<MemoryRecord> records;
};

/// Serializes a trace. Throws Error on I/O failure.
void write_trace(std::ostream& out,
                 std::span<const DataStructureInfo> structures,
                 std::span<const MemoryRecord> records);
void write_trace(std::ostream& out, const DataStructureRegistry& registry,
                 const std::vector<MemoryRecord>& records);
void write_trace_file(const std::string& path,
                      const DataStructureRegistry& registry,
                      const std::vector<MemoryRecord>& records);

/// Deserializes a trace into memory. Throws Error on
/// malformed input (bad magic, unsupported version, truncated stream,
/// out-of-range structure ids). For streams too large to materialize, use
/// dvf::TraceReader (dvf/trace/trace_reader.hpp) instead.
[[nodiscard]] TraceFile read_trace(std::istream& in);
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

}  // namespace dvf
