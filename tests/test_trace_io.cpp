// Tests for trace serialization: round-trip fidelity, format validation,
// and replay equivalence (serialized trace simulates identically to the
// live run).
#include "dvf/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/error.hpp"
#include "dvf/trace/trace_reader.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"

namespace dvf {
namespace {

TEST(TraceIo, RoundTripsStructuresAndRecords) {
  DataStructureRegistry registry;
  double a[8] = {};
  int b[16] = {};
  (void)registry.register_structure("alpha", a, sizeof(a), 8);
  (void)registry.register_structure("beta", b, sizeof(b), 4);

  std::vector<MemoryRecord> records = {
      {0x1000, 8, 0, false},
      {0x2000, 4, 1, true},
      {0x3000, 2, kNoDs, false},
  };

  std::stringstream stream;
  write_trace(stream, registry, records);
  const TraceFile trace = read_trace(stream);

  ASSERT_EQ(trace.structures.size(), 2u);
  EXPECT_EQ(trace.structures[0].name, "alpha");
  EXPECT_EQ(trace.structures[0].size_bytes, sizeof(a));
  EXPECT_EQ(trace.structures[1].element_bytes, 4u);
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.records[0], records[0]);
  EXPECT_EQ(trace.records[1], records[1]);
  EXPECT_EQ(trace.records[2], records[2]);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  DataStructureRegistry registry;
  std::stringstream stream;
  write_trace(stream, registry, {});
  const TraceFile trace = read_trace(stream);
  EXPECT_TRUE(trace.structures.empty());
  EXPECT_TRUE(trace.records.empty());
}

TEST(TraceIo, RejectsMalformedStreams) {
  {
    std::stringstream bad("not a trace at all");
    EXPECT_THROW((void)read_trace(bad), Error);
  }
  {
    // Valid magic, then truncation.
    std::stringstream truncated;
    truncated.write("DVFT", 4);
    EXPECT_THROW((void)read_trace(truncated), Error);
  }
  {
    // Records referencing an unknown structure id.
    DataStructureRegistry registry;
    int x[4] = {};
    (void)registry.register_structure("x", x, sizeof(x), 4);
    std::stringstream stream;
    write_trace(stream, registry, {{0, 4, 7, false}});
    EXPECT_THROW((void)read_trace(stream), Error);
  }
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file("/nonexistent/path.dvft"), Error);
}

TEST(TraceIo, ByteSwappedHeaderIsRejectedWithAClearError) {
  // Only a little-endian version 2 is read. Version 1 (the retired flat
  // native-endian format) and a version field written big-endian (a host of
  // foreign byte order) are refused with the version read and the fix.
  struct Case {
    std::string version_bytes;
    const char* read_as;
  };
  const Case cases[] = {
      {std::string("\x01\x00\x00\x00", 4), "version 1 "},
      {std::string("\x00\x00\x00\x01", 4), "version 16777216 "},
      {std::string("\x00\x00\x00\x02", 4), "version 33554432 "},
  };
  for (const Case& c : cases) {
    std::stringstream stream;
    write_trace(stream, DataStructureRegistry{}, {});
    std::string bytes = stream.str();
    bytes.replace(4, 4, c.version_bytes);
    std::stringstream rejected(bytes);
    try {
      TraceReader reader(rejected);
      FAIL() << "header accepted, expected " << c.read_as << "rejected";
    } catch (const Error& err) {
      const std::string message = err.what();
      EXPECT_NE(message.find(c.read_as), std::string::npos) << message;
      EXPECT_NE(message.find("re-record"), std::string::npos) << message;
      EXPECT_NE(message.find("dvfc trace"), std::string::npos) << message;
    }
  }
}

// --- Format v2 -------------------------------------------------------------

std::vector<MemoryRecord> v2_sample_records() {
  return {
      {0x1000, 8, 0, false},
      {0x1008, 8, 0, false},   // constant stride: candidate run
      {0x1010, 8, 0, false},
      {0x2000, 4, 1, true},
      {0x0800, 2, kNoDs, false},  // negative delta
      {0x0800, 2, kNoDs, false},  // repeat (delta 0)
  };
}

DataStructureRegistry v2_sample_registry() {
  DataStructureRegistry registry;
  static double a[8];
  static int b[16];
  (void)registry.register_structure("alpha", a, sizeof(a), 8);
  (void)registry.register_structure("beta", b, sizeof(b), 4);
  return registry;
}

std::string serialized(const DataStructureRegistry& registry,
                       const std::vector<MemoryRecord>& records) {
  std::stringstream stream;
  write_trace(stream, registry, records);
  return stream.str();
}

/// Bytes of one record in the flat layout of the retired version-1 format:
/// u64 address, u32 size, u32 structure id, u8 write flag. The compression
/// floors below are stated against it.
constexpr double kFlatRecordBytes = 8 + 4 + 4 + 1;

double bytes_per_record(const std::string& bytes, std::size_t records) {
  return static_cast<double>(bytes.size()) / static_cast<double>(records);
}

TEST(TraceIoV2, RunsAndNegativeDeltasRoundTrip) {
  std::stringstream stream(
      serialized(v2_sample_registry(), v2_sample_records()));
  const TraceFile trace = read_trace(stream);
  ASSERT_EQ(trace.structures.size(), 2u);
  EXPECT_EQ(trace.structures[0].name, "alpha");
  const auto records = v2_sample_records();
  ASSERT_EQ(trace.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(trace.records[i], records[i]) << "record " << i;
  }
}

TEST(TraceIoV2, HeaderIsExplicitlyLittleEndian) {
  const std::string bytes = serialized(DataStructureRegistry{}, {});
  // magic, u32le version 2, u32le structure count 0, u64le record count 0.
  ASSERT_EQ(bytes.size(), 20u);
  EXPECT_EQ(bytes.substr(0, 4), "DVFT");
  const std::string le2({'\x02', '\x00', '\x00', '\x00'});
  EXPECT_EQ(bytes.substr(4, 4), le2);
  EXPECT_EQ(bytes.substr(8, 4), std::string(4, '\0'));
  EXPECT_EQ(bytes.substr(12, 8), std::string(8, '\0'));
}

TEST(TraceIoV2, DeltaEncodingBeatsV1OnSequentialStreams) {
  // The acceptance corpus: a long sequential kernel-like sweep (constant
  // stride, cycling structures, periodic stores) must take at most a third
  // of a flat record per record.
  DataStructureRegistry registry;
  static char blob[64];
  for (int i = 0; i < 8; ++i) {
    (void)registry.register_structure("s" + std::to_string(i), blob,
                                      sizeof(blob), 8);
  }
  std::vector<MemoryRecord> records;
  std::uint64_t addr = 1 << 20;
  for (int i = 0; i < 100000; ++i) {
    records.push_back({addr, 8, static_cast<DsId>(i % 8), (i & 7) == 0});
    addr += 8;
  }
  const std::string bytes = serialized(registry, records);
  EXPECT_LE(bytes_per_record(bytes, records.size()), kFlatRecordBytes / 3)
      << "bytes=" << bytes.size();
}

TEST(TraceIoV2, RunLengthCollapsesConstantStrideSweeps) {
  // A single-structure unit-stride sweep is the best case: whole chunks
  // collapse into run ops, far below the sequential floor.
  DataStructureRegistry registry;
  static char blob[64];
  (void)registry.register_structure("s", blob, sizeof(blob), 8);
  std::vector<MemoryRecord> records;
  for (int i = 0; i < 100000; ++i) {
    records.push_back({static_cast<std::uint64_t>(i) * 8, 8, 0, false});
  }
  const std::string bytes = serialized(registry, records);
  EXPECT_LE(bytes_per_record(bytes, records.size()), kFlatRecordBytes / 1000)
      << "bytes=" << bytes.size();
  std::stringstream stream(bytes);
  const TraceFile trace = read_trace(stream);
  ASSERT_EQ(trace.records.size(), records.size());
  EXPECT_EQ(trace.records.front(), records.front());
  EXPECT_EQ(trace.records.back(), records.back());
}

TEST(TraceIoV2, MultiChunkStreamsRoundTrip) {
  // More records than one writer chunk (65536), so the stream carries
  // several self-contained chunks; make neighbours differ so nothing
  // collapses into runs.
  std::vector<MemoryRecord> records;
  records.reserve(70000);
  for (int i = 0; i < 70000; ++i) {
    records.push_back({static_cast<std::uint64_t>(i * 131) & 0xFFFFF,
                       static_cast<std::uint32_t>(1 + (i % 9)), kNoDs,
                       (i & 3) == 0});
  }
  std::stringstream stream;
  write_trace(stream, DataStructureRegistry{}, records);
  const TraceFile trace = read_trace(stream);
  ASSERT_EQ(trace.records.size(), records.size());
  EXPECT_EQ(trace.records[65535], records[65535]);
  EXPECT_EQ(trace.records[65536], records[65536]);
  EXPECT_EQ(trace.records.back(), records.back());
}

TEST(TraceIoV2, AddressWraparoundSurvivesZigzagDeltas) {
  const std::vector<MemoryRecord> records = {
      {~std::uint64_t{0} - 15, 8, kNoDs, false},
      {8, 8, kNoDs, false},          // wraps past zero
      {~std::uint64_t{0} - 7, 4, kNoDs, true},  // wraps back
  };
  std::stringstream stream;
  write_trace(stream, DataStructureRegistry{}, records);
  const TraceFile trace = read_trace(stream);
  ASSERT_EQ(trace.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(trace.records[i], records[i]) << "record " << i;
  }
}

TEST(TraceIoV2, TruncationAtEveryPrefixLengthIsDetected) {
  const std::string bytes =
      serialized(v2_sample_registry(), v2_sample_records());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream stream(bytes.substr(0, len));
    EXPECT_THROW((void)read_trace(stream), Error) << "prefix length " << len;
  }
  std::stringstream whole(bytes);
  EXPECT_NO_THROW((void)read_trace(whole));
}

TEST(TraceIoV2, CorruptChunksAreRejected) {
  // No structures, so the first chunk header starts at byte 20 and the
  // first op byte at 28.
  const std::string bytes =
      serialized(DataStructureRegistry{}, v2_sample_records());
  {
    std::string reserved_bits = bytes;
    reserved_bits[28] = static_cast<char>(
        static_cast<unsigned char>(reserved_bits[28]) | 0xF0);
    std::stringstream stream(reserved_bits);
    EXPECT_THROW((void)read_trace(stream), Error);
  }
  {
    std::string huge_chunk = bytes;  // chunk record count -> 2^31
    huge_chunk[20] = '\x00';
    huge_chunk[21] = '\x00';
    huge_chunk[22] = '\x00';
    huge_chunk[23] = '\x80';
    std::stringstream stream(huge_chunk);
    EXPECT_THROW((void)read_trace(stream), Error);
  }
  {
    std::string empty_chunk = bytes;  // chunk record count -> 0
    empty_chunk[20] = '\x00';
    empty_chunk[21] = '\x00';
    empty_chunk[22] = '\x00';
    empty_chunk[23] = '\x00';
    std::stringstream stream(empty_chunk);
    EXPECT_THROW((void)read_trace(stream), Error);
  }
  {
    std::string bad_version = bytes;
    bad_version[4] = '\x09';
    std::stringstream stream(bad_version);
    EXPECT_THROW((void)read_trace(stream), Error);
  }
  {
    // ds id out of range: encoded as varint ds+1, patched to reference a
    // structure that does not exist.
    DataStructureRegistry registry;
    static int x[4];
    (void)registry.register_structure("x", x, sizeof(x), 4);
    std::stringstream stream;
    write_trace(stream, registry, {{0, 4, 7, false}});
    EXPECT_THROW((void)read_trace(stream), Error);
  }
}

TEST(TraceIoV2, StreamingReaderMatchesMaterializedRead) {
  const auto registry = v2_sample_registry();
  std::vector<MemoryRecord> records;
  for (int i = 0; i < 70000; ++i) {
    records.push_back({static_cast<std::uint64_t>(i) * 16, 8,
                       static_cast<DsId>(i % 2), (i % 3) == 0});
  }
  std::stringstream stream;
  write_trace(stream, registry, records);

  TraceReader reader(stream);
  EXPECT_EQ(reader.total_records(), records.size());
  ASSERT_EQ(reader.structures().size(), 2u);
  std::vector<MemoryRecord> streamed;
  while (!reader.done()) {
    const auto chunk = reader.next_chunk();
    EXPECT_FALSE(chunk.empty());
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(reader.next_chunk().empty());  // idempotent at end
  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(streamed[0], records[0]);
  EXPECT_EQ(streamed[65536], records[65536]);
  EXPECT_EQ(streamed.back(), records.back());
}

TEST(TraceIo, ReplayedTraceSimulatesIdenticallyToLiveRun) {
  kernels::KernelCaseAdapter<kernels::VectorMultiply> vm(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 500});

  // Live run through the simulator.
  CacheSimulator live(caches::small_verification());
  vm.run_traced(live);

  // Buffered run, serialized and replayed.
  TraceBuffer buffer;
  vm.run_buffered(buffer);
  std::stringstream stream;
  write_trace(stream, vm.registry(), buffer.records());
  const TraceFile trace = read_trace(stream);

  CacheSimulator replay(caches::small_verification());
  for (const MemoryRecord& record : trace.records) {
    replay.access(record.address, record.size, record.is_write, record.ds);
  }
  replay.flush();

  for (const auto& ds : vm.model_spec().structures) {
    const auto id = *vm.registry().find(ds.name);
    EXPECT_EQ(live.stats(id).misses, replay.stats(id).misses) << ds.name;
    EXPECT_EQ(live.stats(id).writebacks, replay.stats(id).writebacks)
        << ds.name;
  }
}

}  // namespace
}  // namespace dvf
