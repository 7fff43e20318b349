// Private wire-format helpers shared by the trace writer (trace_io.cpp) and
// the streaming reader (trace_reader.cpp). Not installed; include relative.
//
// The format ("DVFT", version 2) is explicitly little-endian everywhere,
// with the record stream split into self-contained chunks:
//
//   magic "DVFT", u32le version = 2,
//   u32le structure count, then per structure:
//     u32le name length, name bytes, u64le base, u64le size, u32le elem size
//   u64le total record count, then chunks until the count is exhausted:
//     u32le record count in chunk, u32le payload byte length, payload
//
// Each chunk's payload is a sequence of ops; decoder state (previous
// address/size/ds) resets at every chunk boundary so any chunk decodes
// standalone. One op encodes one record — or a run of records marching
// through memory at a constant stride:
//
//   u8 flags:
//     0x01 kOpWrite    record(s) are stores
//     0x02 kOpSameSize size equals the previous record's (else varint size)
//     0x04 kOpSameDs   ds equals the previous record's (else varint ds+1,
//                      with kNoDs encoded as 0)
//     0x08 kOpRun      a run: varint (count - 2) extra records follow the
//                      head, each advancing the address by the head's delta
//     0xF0 reserved, must be zero (decoder rejects)
//   zigzag varint address delta vs previous record (previous = 0 at chunk
//   start; wraparound arithmetic on u64)
//   [varint size]   when !kOpSameSize
//   [varint ds+1]   when !kOpSameDs
//   [varint count-2] when kOpRun
//
// Varints are LEB128 (7 bits per byte, high bit = continuation), at most 10
// bytes for a u64. Zigzag maps signed deltas to unsigned:
// (d << 1) ^ (d >> 63).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "dvf/common/error.hpp"

namespace dvf::wire {

inline constexpr char kMagic[4] = {'D', 'V', 'F', 'T'};
/// The only version written and read. Version 1 (flat native-endian
/// records) is rejected.
inline constexpr std::uint32_t kVersion = 2;

/// Caps on untrusted header fields, so a corrupt stream cannot drive a
/// multi-gigabyte allocation before truncation is detected.
inline constexpr std::uint32_t kMaxNameLength = 4096;
inline constexpr std::uint32_t kMaxChunkRecords = 1u << 22;
inline constexpr std::uint32_t kMaxChunkPayload = 1u << 26;

/// Records per chunk the writer emits (small enough that a streaming reader
/// holds ~1.1 MiB of decoded records, large enough to amortize chunk
/// framing).
inline constexpr std::uint32_t kWriterChunkRecords = 1u << 16;

inline constexpr std::uint8_t kOpWrite = 0x01;
inline constexpr std::uint8_t kOpSameSize = 0x02;
inline constexpr std::uint8_t kOpSameDs = 0x04;
inline constexpr std::uint8_t kOpRun = 0x08;
inline constexpr std::uint8_t kOpReservedMask = 0xF0;

/// Byte-at-a-time little-endian stores/loads: portable regardless of host
/// endianness, and the compiler collapses them to plain moves on LE hosts.
inline void store_le32(char* dst, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

inline void store_le64(char* dst, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

[[nodiscard]] inline std::uint32_t load_le32(const char* src) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(src[i]))
             << (8 * i);
  }
  return value;
}

[[nodiscard]] inline std::uint64_t load_le64(const char* src) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[i]))
             << (8 * i);
  }
  return value;
}

[[nodiscard]] inline std::uint64_t zigzag_encode(std::uint64_t delta) {
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

[[nodiscard]] inline std::uint64_t zigzag_decode(std::uint64_t value) {
  return (value >> 1) ^ (~(value & 1) + 1);
}

/// Appends a LEB128 varint to `out`.
inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// Reads a LEB128 varint from [cursor, end). Throws Error on truncation or
/// a varint longer than a u64 can hold.
[[nodiscard]] inline std::uint64_t get_varint(const char*& cursor,
                                              const char* end) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (cursor == end) {
      throw Error("truncated varint in trace chunk");
    }
    const auto byte = static_cast<unsigned char>(*cursor++);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7E) != 0) {
        throw Error("varint overflow in trace chunk");
      }
      return value;
    }
  }
  throw Error("varint overflow in trace chunk");
}

}  // namespace dvf::wire
