// A simple flat big-endian RAM implementing MemoryPort — the substrate for
// the functional reference model and for unit tests.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "cpu/memory_port.hpp"

namespace la::cpu {

class FlatMemory final : public MemoryPort {
 public:
  /// `base` is the address of byte 0; accesses outside [base, base+size)
  /// fail, which the CPU turns into access exceptions.
  explicit FlatMemory(std::size_t size, Addr base = 0)
      : base_(base), data_(size, 0) {}

  Addr base() const { return base_; }
  std::size_t size() const { return data_.size(); }

  bool read(Addr addr, unsigned size, u64& out) override {
    if (!contains(addr, size)) return false;
    out = read_be(&data_[addr - base_], size);
    return true;
  }

  bool write(Addr addr, unsigned size, u64 value) override {
    if (!contains(addr, size)) return false;
    write_be(&data_[addr - base_], size, value);
    return true;
  }

  /// Bulk image load (program loading in tests).
  void load(Addr addr, std::span<const u8> bytes) {
    assert(contains(addr, bytes.size()));
    std::copy(bytes.begin(), bytes.end(), data_.begin() + (addr - base_));
  }

  /// Direct word access helpers for test assertions.
  u32 word_at(Addr addr) const {
    u64 v = 0;
    [[maybe_unused]] const bool ok =
        const_cast<FlatMemory*>(this)->read(addr, 4, v);
    assert(ok);
    return static_cast<u32>(v);
  }

  std::span<const u8> raw() const { return data_; }

 private:
  bool contains(Addr addr, std::size_t size) const {
    return addr >= base_ && addr - base_ + size <= data_.size();
  }

  Addr base_;
  std::vector<u8> data_;
};

}  // namespace la::cpu
