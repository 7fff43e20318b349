// Unit tests for the trace substrate: registry, recorders, aligned buffers.
#include "dvf/trace/aligned_buffer.hpp"
#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"

namespace dvf {
namespace {

TEST(Registry, RegistersAndLooksUp) {
  DataStructureRegistry registry;
  int dummy[16] = {};
  const DsId id = registry.register_structure("A", dummy, sizeof(dummy),
                                              sizeof(int));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.info(id).name, "A");
  EXPECT_EQ(registry.info(id).element_count(), 16u);
  EXPECT_EQ(registry.find("A"), std::optional<DsId>(id));
  EXPECT_FALSE(registry.find("B").has_value());
}

TEST(Registry, AttributesAddressesToOwners) {
  DataStructureRegistry registry;
  double a[8] = {};
  double b[8] = {};
  const DsId ida = registry.register_structure("a", a, sizeof(a), 8);
  const DsId idb = registry.register_structure("b", b, sizeof(b), 8);
  EXPECT_EQ(registry.attribute(reinterpret_cast<std::uintptr_t>(&a[3])), ida);
  EXPECT_EQ(registry.attribute(reinterpret_cast<std::uintptr_t>(&b[7])), idb);
  EXPECT_EQ(registry.attribute(0), kNoDs);
}

TEST(Registry, RejectsInvalidRegistrations) {
  DataStructureRegistry registry;
  int dummy[4] = {};
  EXPECT_THROW(registry.register_structure("", dummy, 16, 4),
               InvalidArgumentError);
  EXPECT_THROW(registry.register_structure("x", dummy, 0, 4),
               InvalidArgumentError);
  EXPECT_THROW(registry.register_structure("x", dummy, 16, 0),
               InvalidArgumentError);
  EXPECT_THROW(registry.register_structure("x", dummy, 15, 4),
               InvalidArgumentError);
  (void)registry.register_structure("x", dummy, 16, 4);
  EXPECT_THROW(registry.register_structure("x", dummy, 16, 4),
               InvalidArgumentError);
}

TEST(CountingRecorder, TalliesPerStructure) {
  CountingRecorder rec;
  rec.on_load(0, 0, 8);
  rec.on_load(0, 8, 8);
  rec.on_store(0, 0, 8);
  rec.on_load(2, 0, 8);
  EXPECT_EQ(rec.counts(0).loads, 2u);
  EXPECT_EQ(rec.counts(0).stores, 1u);
  EXPECT_EQ(rec.counts(1).total(), 0u);
  EXPECT_EQ(rec.counts(2).loads, 1u);
  EXPECT_EQ(rec.total_references(), 4u);
}

TEST(TraceBuffer, RecordsInOrder) {
  TraceBuffer buffer;
  buffer.on_load(1, 100, 4);
  buffer.on_store(2, 200, 8);
  ASSERT_EQ(buffer.records().size(), 2u);
  EXPECT_EQ(buffer.records()[0], (MemoryRecord{100, 4, 1, false}));
  EXPECT_EQ(buffer.records()[1], (MemoryRecord{200, 8, 2, true}));
  buffer.clear();
  EXPECT_TRUE(buffer.records().empty());
}

TEST(AlignedBuffer, PageAlignedAndZeroed) {
  AlignedBuffer<double> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.size_bytes(), 8000u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0.0);
  }
}

TEST(AlignedBuffer, AddressOfIsConsistent) {
  AlignedBuffer<std::uint32_t> buf(16);
  EXPECT_EQ(buf.address_of(3) - buf.address_of(0), 12u);
  EXPECT_EQ(buf.address_of(0), reinterpret_cast<std::uintptr_t>(buf.data()));
}

TEST(AlignedBuffer, RejectsZeroSize) {
  EXPECT_THROW(AlignedBuffer<int>(0), InvalidArgumentError);
}

}  // namespace
}  // namespace dvf
