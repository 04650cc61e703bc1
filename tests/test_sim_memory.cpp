// Tests for simulated memory: typed access, bounds, device windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/memory.h"
#include "sim/regfile.h"
#include "swar/vec64.h"

using subword::sim::Device;
using subword::sim::Memory;

namespace {

class RecordingDevice final : public Device {
 public:
  void write32(uint64_t offset, uint32_t value) override {
    last_write = {offset, value};
    ++writes;
  }
  uint32_t read32(uint64_t offset) override {
    ++reads;
    return static_cast<uint32_t>(offset + 7);
  }
  std::pair<uint64_t, uint32_t> last_write{};
  int writes = 0;
  int reads = 0;
};

}  // namespace

TEST(Memory, ReadWriteWidths) {
  Memory m(4096);
  m.write8(10, 0xAB);
  EXPECT_EQ(m.read8(10), 0xAB);
  m.write16(100, 0xBEEF);
  EXPECT_EQ(m.read16(100), 0xBEEF);
  m.write32(200, 0xDEADBEEF);
  EXPECT_EQ(m.read32(200), 0xDEADBEEFu);
  m.write64(300, 0x0123456789ABCDEFull);
  EXPECT_EQ(m.read64(300), 0x0123456789ABCDEFull);
}

TEST(Memory, LittleEndianComposition) {
  Memory m(64);
  m.write8(0, 0x11);
  m.write8(1, 0x22);
  EXPECT_EQ(m.read16(0), 0x2211);
}

TEST(Memory, OutOfRangeThrows) {
  Memory m(64);
  EXPECT_THROW((void)m.read64(60), std::out_of_range);
  EXPECT_THROW(m.write8(64, 1), std::out_of_range);
  EXPECT_THROW((void)m.read8(~0ull), std::out_of_range);
}

TEST(Memory, SpanRoundTrip) {
  Memory m(1024);
  const std::vector<int16_t> v{-1, 2, -3, 4, 32767, -32768};
  m.write_span<int16_t>(16, v);
  EXPECT_EQ(m.read_vector<int16_t>(16, v.size()), v);
}

TEST(Memory, DeviceWindowInterceptsOnly32BitAccess) {
  Memory m(64);
  RecordingDevice dev;
  m.map_device(0xF0000000ull, 0x100, &dev);
  m.write32(0xF0000010ull, 77);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(dev.last_write.first, 0x10u);
  EXPECT_EQ(dev.last_write.second, 77u);
  EXPECT_EQ(m.read32(0xF0000004ull), 4u + 7u);
  // Accesses outside the window still bounds-check against the arena.
  EXPECT_THROW(m.write32(0xF0001000ull, 1), std::out_of_range);
}

TEST(Memory, SecondDeviceRejected) {
  Memory m(64);
  RecordingDevice d1, d2;
  m.map_device(0x1000, 0x10, &d1);
  EXPECT_THROW(m.map_device(0x2000, 0x10, &d2), std::logic_error);
}

TEST(Memory, ReadVectorTypedWidths) {
  Memory m(256);
  m.write16(0, 0x8000);  // negative as int16
  m.write16(2, 0x7FFF);
  const auto v16 = m.read_vector<int16_t>(0, 2);
  EXPECT_EQ(v16[0], -32768);
  EXPECT_EQ(v16[1], 32767);
  m.write32(8, 0xDEADBEEF);
  EXPECT_EQ(m.read_vector<uint32_t>(8, 1)[0], 0xDEADBEEFu);
  m.write64(16, 0x0102030405060708ull);
  EXPECT_EQ(m.read_vector<uint64_t>(16, 1)[0], 0x0102030405060708ull);
  m.write8(24, 0xAB);
  EXPECT_EQ(m.read_vector<uint8_t>(24, 1)[0], 0xAB);
}

// A fresh arena reads all-zero. Page tracking: clear() must zero every
// byte any write path touched, including a write that straddles a page
// boundary, and leave the arena all-zero.
TEST(Memory, ClearZeroesEveryWrittenPage) {
  Memory m(4 * Memory::kPageBytes + 100);
  for (const uint8_t b : m.bytes()) ASSERT_EQ(b, 0);
  m.write64(Memory::kPageBytes - 4, ~0ull);  // straddles pages 0 and 1
  m.write8(3 * Memory::kPageBytes, 0x5A);
  m.write_span<int16_t>(4 * Memory::kPageBytes + 10,
                        std::vector<int16_t>{7, 8, 9});  // partial page
  m.clear();
  for (const uint8_t b : m.bytes()) ASSERT_EQ(b, 0);
  // One span across three pages marks the middle one too.
  m.write_span<uint8_t>(Memory::kPageBytes / 2,
                        std::vector<uint8_t>(2 * Memory::kPageBytes, 0xEE));
  m.clear();
  for (const uint8_t b : m.bytes()) ASSERT_EQ(b, 0);
}

// snapshot() keeps only non-zero pages; restore() reproduces the captured
// arena exactly, whatever was written in between, and is repeatable.
TEST(Memory, SnapshotRestoreRoundTrip) {
  Memory m(8 * Memory::kPageBytes);
  m.write32(2 * Memory::kPageBytes + 8, 0xDEADBEEF);
  m.write16(5 * Memory::kPageBytes, 0);  // marked but all-zero
  const auto image = m.snapshot();
  EXPECT_EQ(image.pages, std::vector<uint32_t>{2});
  const std::vector<uint8_t> want(m.bytes().begin(), m.bytes().end());

  for (int round = 0; round < 2; ++round) {
    m.write64(7 * Memory::kPageBytes + 16, 0x0102030405060708ull);
    m.write32(2 * Memory::kPageBytes + 8, 1);
    m.restore(image);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), m.bytes().begin()));
  }
  // Restoring into a fresh arena works too (nothing marked yet).
  Memory fresh(8 * Memory::kPageBytes);
  fresh.restore(image);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), fresh.bytes().begin()));
  // After a restore only the image's pages are marked: clear() undoes it.
  fresh.clear();
  for (const uint8_t b : fresh.bytes()) ASSERT_EQ(b, 0);
}

TEST(Memory, RestoreRejectsImageOfAnotherSize) {
  Memory small(Memory::kPageBytes);
  Memory big(2 * Memory::kPageBytes);
  EXPECT_THROW(big.restore(small.snapshot()), std::invalid_argument);
}

TEST(RegFile, ByteViewMatchesSpuAddressing) {
  // Byte b of MMn is SPU register address 8n+b — the crossbar's address
  // space (paper Figure 4: the 512x1 SPU register).
  subword::sim::MmxRegFile regs;
  regs.write(3, subword::swar::Vec64{0x1122334455667788ull});
  EXPECT_EQ(regs.byte(3 * 8 + 0), 0x88);
  EXPECT_EQ(regs.byte(3 * 8 + 7), 0x11);
  regs.write(0, subword::swar::Vec64{0xFF});
  EXPECT_EQ(regs.byte(0), 0xFF);
}
