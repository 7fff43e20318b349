#include "dvf/trace/trace_reader.hpp"

#include <cstring>
#include <fstream>
#include <istream>

#include "dvf/common/error.hpp"
#include "wire_format.hpp"

namespace dvf {

TraceReader::TraceReader(std::istream& in) : in_(&in) { read_header(); }

TraceReader::TraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*owned_) {
    throw Error("cannot open trace file: " + path);
  }
  in_ = owned_.get();
  read_header();
}

TraceReader::~TraceReader() = default;

void TraceReader::read_exact(char* dst, std::size_t bytes) {
  in_->read(dst, static_cast<std::streamsize>(bytes));
  if (!*in_) {
    throw Error("truncated trace stream");
  }
}

std::uint32_t TraceReader::get_u32() {
  char bytes[4];
  read_exact(bytes, sizeof(bytes));
  return wire::load_le32(bytes);
}

std::uint64_t TraceReader::get_u64() {
  char bytes[8];
  read_exact(bytes, sizeof(bytes));
  return wire::load_le64(bytes);
}

void TraceReader::read_header() {
  char magic[4] = {};
  in_->read(magic, sizeof(magic));
  if (!*in_ || std::memcmp(magic, wire::kMagic, sizeof(magic)) != 0) {
    throw Error("not a DVF trace (bad magic)");
  }

  // Every field is little-endian on the wire, so a trace parses on any host.
  // Version 1 (flat native-endian records) and byte-swapped headers fail
  // this check like any other unknown version.
  const std::uint32_t version = get_u32();
  if (version != wire::kVersion) {
    throw Error("unsupported trace version " + std::to_string(version) +
                " (expected " + std::to_string(wire::kVersion) +
                "); re-record the trace with dvfc trace");
  }

  const std::uint32_t n_structures = get_u32();
  structures_.reserve(
      std::min<std::uint32_t>(n_structures, wire::kMaxChunkRecords));
  for (std::uint32_t i = 0; i < n_structures; ++i) {
    DataStructureInfo info;
    const std::uint32_t name_len = get_u32();
    if (name_len > wire::kMaxNameLength) {
      throw Error("implausible structure name length in trace");
    }
    info.name.resize(name_len);
    read_exact(info.name.data(), name_len);
    info.base_address = get_u64();
    info.size_bytes = get_u64();
    info.element_bytes = get_u32();
    structures_.push_back(std::move(info));
  }

  total_ = get_u64();
}

std::span<const MemoryRecord> TraceReader::next_chunk() {
  if (done()) {
    return {};
  }
  const std::uint32_t count = get_u32();
  const std::uint32_t payload_len = get_u32();
  if (count == 0) {
    throw Error("empty trace chunk");
  }
  if (count > wire::kMaxChunkRecords) {
    throw Error("trace chunk record count exceeds the format cap");
  }
  if (count > total_ - delivered_) {
    throw Error("trace chunk overruns the declared record count");
  }
  if (payload_len > wire::kMaxChunkPayload) {
    throw Error("trace chunk payload exceeds the format cap");
  }
  scratch_.resize(payload_len);
  read_exact(scratch_.data(), payload_len);

  const char* cursor = scratch_.data();
  const char* const end = cursor + payload_len;
  std::uint64_t prev_addr = 0;
  std::uint32_t prev_size = 0;
  DsId prev_ds = kNoDs;
  buffer_.clear();
  buffer_.reserve(count);
  while (buffer_.size() < count) {
    if (cursor == end) {
      throw Error("trace chunk payload underruns its record count");
    }
    const auto flags = static_cast<unsigned char>(*cursor++);
    if ((flags & wire::kOpReservedMask) != 0) {
      throw Error("reserved op bits set in trace chunk");
    }
    const std::uint64_t delta =
        wire::zigzag_decode(wire::get_varint(cursor, end));
    std::uint64_t address = prev_addr + delta;

    std::uint32_t size = prev_size;
    if ((flags & wire::kOpSameSize) == 0) {
      const std::uint64_t raw = wire::get_varint(cursor, end);
      if (raw > 0xFFFFFFFFull) {
        throw Error("record size overflows 32 bits in trace chunk");
      }
      size = static_cast<std::uint32_t>(raw);
    }

    DsId ds = prev_ds;
    if ((flags & wire::kOpSameDs) == 0) {
      const std::uint64_t raw = wire::get_varint(cursor, end);
      if (raw == 0) {
        ds = kNoDs;
      } else if (raw - 1 >= kNoDs) {
        throw Error("structure id overflows 32 bits in trace chunk");
      } else {
        ds = static_cast<DsId>(raw - 1);
      }
    }
    if (ds != kNoDs && ds >= structures_.size()) {
      throw Error("trace record references an unknown structure id");
    }

    std::uint64_t run = 1;
    if ((flags & wire::kOpRun) != 0) {
      run = 2 + wire::get_varint(cursor, end);
      if (run < 2 || run > count - buffer_.size()) {
        throw Error("run overruns trace chunk record count");
      }
    }

    const bool is_write = (flags & wire::kOpWrite) != 0;
    for (std::uint64_t k = 0; k < run; ++k) {
      buffer_.push_back(MemoryRecord{address, size, ds, is_write});
      address += delta;
    }
    prev_addr = address - delta;  // last emitted address
    prev_size = size;
    prev_ds = ds;
  }
  if (cursor != end) {
    throw Error("trailing bytes in trace chunk payload");
  }
  delivered_ += count;
  return buffer_;
}

}  // namespace dvf
