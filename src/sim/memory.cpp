#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#include <sys/mman.h>

namespace subword::sim {

namespace detail {

void* map_zero_pages(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, size_t bytes) noexcept {
  munmap(p, bytes);
}

}  // namespace detail

namespace {

size_t page_count(size_t size_bytes) {
  return (size_bytes + Memory::kPageBytes - 1) / Memory::kPageBytes;
}

// Call fn(page) for every set bit of `mask`, ascending.
template <typename Fn>
void for_each_page(const std::vector<uint64_t>& mask, Fn fn) {
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

Memory::Memory(size_t size_bytes)
    : bytes_(size_bytes), dirty_((page_count(size_bytes) + 63) / 64, 0) {}

void Memory::clear() {
  for_each_page(dirty_, [this](size_t page) {
    const size_t at = page * kPageBytes;
    std::memset(bytes_.data() + at, 0, std::min(kPageBytes, size() - at));
  });
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

MemoryImage Memory::snapshot() const {
  MemoryImage img;
  img.size = size();
  img.page_mask.assign(dirty_.size(), 0);
  for_each_page(dirty_, [&](size_t page) {
    const size_t at = page * kPageBytes;
    const auto first = bytes_.begin() + static_cast<ptrdiff_t>(at);
    const auto last =
        first + static_cast<ptrdiff_t>(std::min(kPageBytes, size() - at));
    if (std::all_of(first, last, [](uint8_t b) { return b == 0; })) return;
    img.page_mask[page / 64] |= uint64_t{1} << (page % 64);
    img.pages.push_back(static_cast<uint32_t>(page));
    img.bytes.insert(img.bytes.end(), first, last);
    img.bytes.resize(img.pages.size() * kPageBytes, 0);
  });
  return img;
}

void Memory::restore(const MemoryImage& image) {
  if (image.size != size()) {
    throw std::invalid_argument(
        "Memory::restore: image of a " + std::to_string(image.size) +
        "-byte arena, this arena is " + std::to_string(size()) + " bytes");
  }
  for (size_t w = 0; w < dirty_.size(); ++w) dirty_[w] &= ~image.page_mask[w];
  clear();
  const uint8_t* src = image.bytes.data();
  for (const uint32_t page : image.pages) {
    const size_t at = size_t{page} * kPageBytes;
    std::memcpy(bytes_.data() + at, src, std::min(kPageBytes, size() - at));
    src += kPageBytes;
  }
  dirty_ = image.page_mask;
}

uint8_t* Memory::mark_written(std::span<const uint64_t> page_mask) {
  const size_t pages = page_count(size());
  for (size_t w = 0; w < page_mask.size(); ++w) {
    if (w * 64 + static_cast<size_t>(std::bit_width(page_mask[w])) > pages) {
      throw std::invalid_argument(
          "Memory::mark_written: page mask names pages past the end of a " +
          std::to_string(pages) + "-page arena");
    }
  }
  for (size_t w = 0; w < page_mask.size(); ++w) dirty_[w] |= page_mask[w];
  return bytes_.data();
}

void Memory::check_range(uint64_t addr, uint64_t len) const {
  if (addr + len > bytes_.size() || addr + len < addr) {
    throw std::out_of_range("Memory access out of range: addr=" +
                            std::to_string(addr) +
                            " len=" + std::to_string(len));
  }
}

uint8_t Memory::read8(uint64_t addr) const {
  check_range(addr, 1);
  return bytes_[addr];
}

uint16_t Memory::read16(uint64_t addr) const {
  check_range(addr, 2);
  uint16_t v;
  std::memcpy(&v, bytes_.data() + addr, 2);
  return v;
}

uint32_t Memory::read32(uint64_t addr) {
  if (in_device_window(addr)) {
    return device_->read32(addr - device_base_);
  }
  check_range(addr, 4);
  uint32_t v;
  std::memcpy(&v, bytes_.data() + addr, 4);
  return v;
}

uint64_t Memory::read64(uint64_t addr) const {
  check_range(addr, 8);
  uint64_t v;
  std::memcpy(&v, bytes_.data() + addr, 8);
  return v;
}

void Memory::write8(uint64_t addr, uint8_t v) {
  check_range(addr, 1);
  mark(addr, 1);
  bytes_[addr] = v;
}

void Memory::write16(uint64_t addr, uint16_t v) {
  check_range(addr, 2);
  mark(addr, 2);
  std::memcpy(bytes_.data() + addr, &v, 2);
}

void Memory::write32(uint64_t addr, uint32_t v) {
  if (in_device_window(addr)) {
    device_->write32(addr - device_base_, v);
    return;
  }
  check_range(addr, 4);
  mark(addr, 4);
  std::memcpy(bytes_.data() + addr, &v, 4);
}

void Memory::write64(uint64_t addr, uint64_t v) {
  check_range(addr, 8);
  mark(addr, 8);
  std::memcpy(bytes_.data() + addr, &v, 8);
}

void Memory::map_device(uint64_t base, uint64_t window_size, Device* dev) {
  if (device_ != nullptr && dev != nullptr) {
    throw std::logic_error("Memory: a device window is already mapped");
  }
  device_ = dev;
  device_base_ = base;
  device_size_ = window_size;
}

}  // namespace subword::sim
