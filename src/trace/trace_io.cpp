#include "dvf/trace/trace_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/robust_io.hpp"
#include "dvf/trace/trace_reader.hpp"
#include "wire_format.hpp"

namespace dvf {

namespace {

void put_le32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  wire::store_le32(bytes, value);
  out.write(bytes, sizeof(bytes));
}

void put_le64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  wire::store_le64(bytes, value);
  out.write(bytes, sizeof(bytes));
}

/// Encodes records[begin, end) as one self-contained chunk payload; decoder
/// state resets per chunk (see wire_format.hpp for the op layout).
void encode_chunk(std::span<const MemoryRecord> records, std::size_t begin,
                  std::size_t end, std::string& payload) {
  payload.clear();
  std::uint64_t prev_addr = 0;
  std::uint32_t prev_size = 0;
  DsId prev_ds = kNoDs;
  std::size_t i = begin;
  while (i < end) {
    const MemoryRecord& head = records[i];
    const std::uint64_t delta = head.address - prev_addr;

    // Collapse a constant-stride run: followers identical to the head
    // except for the address, which keeps advancing by the head's delta.
    std::size_t run = 1;
    std::uint64_t expected = head.address + delta;
    while (i + run < end) {
      const MemoryRecord& next = records[i + run];
      if (next.address != expected || next.size != head.size ||
          next.ds != head.ds || next.is_write != head.is_write) {
        break;
      }
      expected += delta;
      ++run;
    }

    std::uint8_t flags = 0;
    if (head.is_write) {
      flags |= wire::kOpWrite;
    }
    if (head.size == prev_size) {
      flags |= wire::kOpSameSize;
    }
    if (head.ds == prev_ds) {
      flags |= wire::kOpSameDs;
    }
    if (run >= 2) {
      flags |= wire::kOpRun;
    }
    payload.push_back(static_cast<char>(flags));
    wire::put_varint(payload, wire::zigzag_encode(delta));
    if ((flags & wire::kOpSameSize) == 0) {
      wire::put_varint(payload, head.size);
    }
    if ((flags & wire::kOpSameDs) == 0) {
      wire::put_varint(payload, head.ds == kNoDs
                                    ? 0
                                    : static_cast<std::uint64_t>(head.ds) + 1);
    }
    if ((flags & wire::kOpRun) != 0) {
      wire::put_varint(payload, run - 2);
    }

    prev_addr = head.address + (run - 1) * delta;
    prev_size = head.size;
    prev_ds = head.ds;
    i += run;
  }
}

}  // namespace

void write_trace(std::ostream& out,
                 std::span<const DataStructureInfo> structures,
                 std::span<const MemoryRecord> records) {
  if (auto fp = DVF_FAILPOINT("trace.write")) {
    if (fp.kind == failpoint::ActionKind::kShortWrite) {
      // A torn write: the magic lands, the rest does not — the reader must
      // classify the result as truncation, never crash on it.
      out.write(wire::kMagic, sizeof(wire::kMagic));
    }
    out.setstate(std::ios::failbit);
    throw Error(io::errno_message("trace write failed (injected)",
                                  fp.error_code));
  }
  out.write(wire::kMagic, sizeof(wire::kMagic));
  put_le32(out, wire::kVersion);

  put_le32(out, static_cast<std::uint32_t>(structures.size()));
  for (const DataStructureInfo& info : structures) {
    put_le32(out, static_cast<std::uint32_t>(info.name.size()));
    out.write(info.name.data(),
              static_cast<std::streamsize>(info.name.size()));
    put_le64(out, info.base_address);
    put_le64(out, info.size_bytes);
    put_le32(out, info.element_bytes);
  }

  put_le64(out, static_cast<std::uint64_t>(records.size()));
  std::string payload;
  for (std::size_t begin = 0; begin < records.size();
       begin += wire::kWriterChunkRecords) {
    const std::size_t end =
        std::min<std::size_t>(records.size(), begin + wire::kWriterChunkRecords);
    encode_chunk(records, begin, end, payload);
    put_le32(out, static_cast<std::uint32_t>(end - begin));
    put_le32(out, static_cast<std::uint32_t>(payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out) {
    throw Error("trace write failed");
  }
}

void write_trace(std::ostream& out, const DataStructureRegistry& registry,
                 const std::vector<MemoryRecord>& records) {
  write_trace(out,
              std::span<const DataStructureInfo>(registry.begin(),
                                                 registry.end()),
              std::span<const MemoryRecord>(records));
}

void write_trace_file(const std::string& path,
                      const DataStructureRegistry& registry,
                      const std::vector<MemoryRecord>& records) {
  // Render in memory, then land atomically (write-temp-then-rename), so a
  // crash or full disk mid-write can never leave a torn trace under `path`.
  std::ostringstream out(std::ios::binary);
  write_trace(out, registry, records);
  auto written = io::write_file_atomic(path, out.str());
  if (!written.ok()) {
    throw Error("cannot write trace file: " + written.error().describe());
  }
}

TraceFile read_trace(std::istream& in) {
  if (auto fp = DVF_FAILPOINT("trace.read")) {
    throw Error(io::errno_message("trace read failed (injected)",
                                  fp.error_code));
  }
  TraceReader reader(in);
  TraceFile trace;
  trace.structures = reader.structures();
  // Reserve from the untrusted header count only up to a sane bound; a
  // corrupt count detects as truncation instead of a huge allocation.
  trace.records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.total_records(), 1u << 20)));
  while (!reader.done()) {
    const std::span<const MemoryRecord> chunk = reader.next_chunk();
    trace.records.insert(trace.records.end(), chunk.begin(), chunk.end());
  }
  return trace;
}

TraceFile read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open trace file: " + path);
  }
  return read_trace(in);
}

}  // namespace dvf
