// memory.h — byte-addressable simulated memory with device (MMIO) regions.
//
// The SPU control registers are memory-mapped (paper §3/§4); devices
// register an address window and receive the stores/loads that hit it.
//
// The arena tracks, one bit per 4 KiB page, which pages may hold non-zero
// bytes: every arena write (write8/16/32/64 and write_span) marks the
// pages it touches. That is what lets clear() zero only the marked pages,
// and restore() reset an arena to a captured MemoryImage by touching only
// the pages either side may have changed. The tracking stays exact
// because the arena's only mutable byte pointer comes from mark_written,
// which marks the pages its caller declares it will write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace subword::sim {

// A memory-mapped device. Addresses passed in are offsets from the device
// base. Only the access widths the device supports need be overridden.
class Device {
 public:
  virtual ~Device() = default;
  virtual void write32(uint64_t offset, uint32_t value) = 0;
  virtual uint32_t read32(uint64_t offset) = 0;
};

// An immutable sparse copy of an arena: the pages that were marked when it
// was captured (Memory::snapshot), each stored in full. Pages outside the
// image are zero in the arena it was taken from.
struct MemoryImage {
  size_t size = 0;                  // byte size of the source arena
  std::vector<uint64_t> page_mask;  // one bit per page held in `bytes`
  std::vector<uint32_t> pages;      // page indices held, ascending
  std::vector<uint8_t> bytes;       // pages.size() whole pages, in order
};

namespace detail {

// Fresh private anonymous pages: they read as zero and take no memory
// until first written. Throws std::bad_alloc when the mapping fails.
[[nodiscard]] void* map_zero_pages(size_t bytes);
void unmap_pages(void* p, size_t bytes) noexcept;

// Backs an arena with fresh zero pages. Value-initialising an element
// writes nothing, because the page already reads as zero, so a new arena
// occupies only the pages that are later written — the same pages the
// arena's tracking marks. That skip is only sound for storage that was
// never written, so the arena never shrinks and regrows its vector.
template <typename T>
struct ZeroPageAllocator {
  static_assert(std::is_trivial_v<T>);
  using value_type = T;

  ZeroPageAllocator() = default;
  template <typename U>
  ZeroPageAllocator(const ZeroPageAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(size_t n) {
    return static_cast<T*>(map_zero_pages(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept { unmap_pages(p, n * sizeof(T)); }

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(ZeroPageAllocator, ZeroPageAllocator) {
    return true;
  }
};

}  // namespace detail

class Memory {
 public:
  static constexpr size_t kPageBytes = 4096;

  explicit Memory(size_t size_bytes);

  [[nodiscard]] size_t size() const { return bytes_.size(); }

  [[nodiscard]] uint8_t read8(uint64_t addr) const;
  [[nodiscard]] uint16_t read16(uint64_t addr) const;
  [[nodiscard]] uint32_t read32(uint64_t addr);
  [[nodiscard]] uint64_t read64(uint64_t addr) const;

  void write8(uint64_t addr, uint8_t v);
  void write16(uint64_t addr, uint16_t v);
  void write32(uint64_t addr, uint32_t v);
  void write64(uint64_t addr, uint64_t v);

  // Bulk typed access for workload setup / verification (bounds checked).
  // write_span stores the elements' bytes in host order, exactly as the
  // matching writeN calls would, with one range check and one copy; it
  // addresses arena bytes only, never a device window.
  template <typename T>
  void write_span(uint64_t addr, std::span<const T> data) {
    static_assert(std::is_integral_v<T>);
    if (data.empty()) return;
    check_range(addr, data.size_bytes());
    mark(addr, data.size_bytes());
    std::memcpy(bytes_.data() + addr, data.data(), data.size_bytes());
  }

  // read_vector copies `count` elements out with one range check and one
  // copy, the inverse of write_span; it too addresses arena bytes only.
  template <typename T>
  [[nodiscard]] std::vector<T> read_vector(uint64_t addr, size_t count) const {
    static_assert(std::is_integral_v<T>);
    const std::span<const uint8_t> src = bytes(addr, count * sizeof(T));
    std::vector<T> out(count);
    if (count != 0) std::memcpy(out.data(), src.data(), src.size());
    return out;
  }

  // Map a device at [base, base+window_size). 32-bit accesses inside the
  // window are forwarded; other widths inside the window are rejected.
  void map_device(uint64_t base, uint64_t window_size, Device* dev);

  // Remove the device mapping (Machine reuse between jobs).
  void unmap_device() {
    device_ = nullptr;
    device_base_ = 0;
    device_size_ = 0;
  }

  // Zero the arena in place, keeping the allocation. Only the pages
  // marked since the last clear()/restore() can be non-zero, so only those
  // are written.
  void clear();

  // Capture the marked pages. Marked pages that hold only zeros are left
  // out: the image says exactly which pages a restore must fill.
  [[nodiscard]] MemoryImage snapshot() const;

  // Make the arena byte-identical to the one `image` was captured from:
  // marked pages the image does not hold are zeroed, the image's pages are
  // copied in, and exactly the image's pages stay marked. Throws
  // std::invalid_argument when the image was taken from an arena of a
  // different size.
  void restore(const MemoryImage& image);

  // Read-only view of the whole arena (whole-arena comparisons).
  [[nodiscard]] std::span<const uint8_t> bytes() const { return bytes_; }
  // Read-only view of [addr, addr+len) of the arena (bounds checked).
  [[nodiscard]] std::span<const uint8_t> bytes(uint64_t addr,
                                               uint64_t len) const {
    check_range(addr, len);
    return {bytes_.data() + addr, static_cast<size_t>(len)};
  }

  // Raw access for a replay whose every address was checked in advance
  // (backend::run_trace): marks the pages set in `page_mask`, one bit per
  // page as in MemoryImage::page_mask, and returns the arena's first byte.
  // The tracking stays exact only while the caller writes inside those
  // pages alone. Throws std::invalid_argument when the mask names pages
  // past the end of the arena.
  [[nodiscard]] uint8_t* mark_written(std::span<const uint64_t> page_mask);

  [[nodiscard]] bool in_device_window(uint64_t addr) const {
    return device_ != nullptr && addr >= device_base_ &&
           addr < device_base_ + device_size_;
  }
  // True if a device window overlaps the byte range [lo, hi).
  [[nodiscard]] bool device_overlaps(uint64_t lo, uint64_t hi) const {
    return device_ != nullptr && lo < device_base_ + device_size_ &&
           device_base_ < hi;
  }

 private:
  void check_range(uint64_t addr, uint64_t len) const;
  // Mark the pages of a range check_range already admitted.
  void mark(uint64_t addr, uint64_t len) {
    const uint64_t last = (addr + len - 1) / kPageBytes;
    for (uint64_t page = addr / kPageBytes; page <= last; ++page) {
      dirty_[page / 64] |= uint64_t{1} << (page % 64);
    }
  }

  std::vector<uint8_t, detail::ZeroPageAllocator<uint8_t>> bytes_;
  std::vector<uint64_t> dirty_;  // one bit per page that may be non-zero
  Device* device_ = nullptr;
  uint64_t device_base_ = 0;
  uint64_t device_size_ = 0;
};

}  // namespace subword::sim
