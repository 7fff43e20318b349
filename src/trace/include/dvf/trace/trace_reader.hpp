// Chunked streaming trace reader: replays multi-gigabyte reference streams
// without materializing a std::vector<MemoryRecord> of the whole trace.
//
// The reader parses the header (structure table, total record count) at
// construction, then hands out decoded records one chunk at a time:
//
//   TraceReader reader(path);
//   sim.reserve_structures(reader.structures().size());
//   while (!reader.done()) {
//     sim.replay(reader.next_chunk());
//   }
//
// The trace is chunked on the wire and each chunk decodes standalone (see
// src/trace/wire_format.hpp). The spans returned by next_chunk() alias an
// internal buffer and are invalidated by the next call.
//
// All header fields are treated as untrusted: structure-name lengths, chunk
// record counts and payload sizes are capped, so a corrupt or truncated
// stream raises dvf::Error before it can drive an unbounded allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf {

class TraceReader {
 public:
  /// Reads the header from `in`; the stream must outlive the reader.
  /// Throws Error on malformed input, including any version but the current
  /// one.
  explicit TraceReader(std::istream& in);
  /// Opens `path` and reads the header. Throws Error if the file cannot be
  /// opened or the header is malformed.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const std::vector<DataStructureInfo>& structures()
      const noexcept {
    return structures_;
  }
  [[nodiscard]] std::uint64_t total_records() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t records_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] bool done() const noexcept { return delivered_ == total_; }

  /// Decodes and returns the next chunk of records; empty once every record
  /// has been delivered. The span aliases an internal buffer that the next
  /// call overwrites. Throws Error on truncation or corruption.
  [[nodiscard]] std::span<const MemoryRecord> next_chunk();

 private:
  void read_header();
  void read_exact(char* dst, std::size_t bytes);
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();

  std::unique_ptr<std::ifstream> owned_;  ///< set by the path constructor
  std::istream* in_ = nullptr;
  std::vector<DataStructureInfo> structures_;
  std::uint64_t total_ = 0;
  std::uint64_t delivered_ = 0;
  std::vector<char> scratch_;          ///< raw chunk payload
  std::vector<MemoryRecord> buffer_;   ///< decoded records handed out
};

}  // namespace dvf
