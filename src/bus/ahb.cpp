#include "bus/ahb.hpp"

#include <cassert>
#include <stdexcept>

#include "common/bits.hpp"

namespace la::bus {

void AhbBus::attach(Addr base, u64 size, AhbSlave* slave) {
  assert(slave != nullptr && size > 0);
  for (const Mapping& m : map_) {
    const bool overlap =
        base < m.base + m.size && m.base < static_cast<u64>(base) + size;
    if (overlap) {
      throw std::logic_error("AHB mapping overlap with " +
                             std::string(m.slave->name()));
    }
  }
  map_.push_back({base, size, slave});
  hot_ = nullptr;  // push_back may reallocate the mapping storage
}

AhbSlave* AhbBus::slave_at(Addr addr) const {
  const Mapping* m = lookup(addr);
  return m != nullptr ? m->slave : nullptr;
}

Cycles AhbBus::transfer(Master m, AhbTransfer& t) {
  AhbMasterStats& st = stats_.per_master[static_cast<int>(m)];
  ++st.transfers;
  st.beats += t.beats;

  if (error_pulse_ > 0) {
    --error_pulse_;
    t.error = true;
    ++stats_.injected_errors;
    ++st.errors;
    const Cycles cycles = 1 + 2;
    st.cycles += cycles;
    return cycles;
  }

  AhbSlave* slave = slave_at(t.addr);
  Cycles cycles;
  if (slave == nullptr) {
    // Two-cycle ERROR response per the AHB spec.
    t.error = true;
    ++stats_.unmapped;
    ++st.errors;
    cycles = 1 + 2;
  } else {
    cycles = 1 + slave->transfer(t);  // 1 address-phase cycle
    if (t.error) ++st.errors;
  }
  st.cycles += cycles;
  return cycles;
}

bool AhbBus::debug_read(Addr addr, unsigned size, u64& out) const {
  AhbSlave* s = slave_at(addr);
  return s != nullptr && s->debug_read(addr, size, out);
}

bool AhbBus::debug_write(Addr addr, unsigned size, u64 value) const {
  AhbSlave* s = slave_at(addr);
  return s != nullptr && s->debug_write(addr, size, value);
}

Cycles AhbBus::read32(Master m, Addr addr, u32& value) {
  AhbTransfer t;
  t.addr = addr;
  t.data = &value;
  const Cycles c = transfer(m, t);
  return c;
}

Cycles AhbBus::write32(Master m, Addr addr, u32 value) {
  AhbTransfer t;
  t.addr = addr;
  t.write = true;
  t.data = &value;
  return transfer(m, t);
}

namespace {
/// Largest line the stack beat buffer covers (256-byte lines); bigger
/// configurations fall back to a heap buffer.
constexpr u32 kMaxStackBeats = 64;
}  // namespace

Cycles AhbBus::fill_line(Master m, Addr addr, u32 line_bytes, u8* line,
                         bool& error) {
  const unsigned beats = line_bytes / 4;
  u32 stack[kMaxStackBeats];
  std::vector<u32> heap;
  u32* buf = stack;
  if (beats > kMaxStackBeats) {
    heap.resize(beats);
    buf = heap.data();
  }
  AhbTransfer t;
  t.addr = addr;
  t.beats = beats;
  t.burst = burst_for_beats(beats);
  t.data = buf;
  const Cycles c = transfer(m, t);
  error = t.error;
  if (!t.error) {
    // Beats are big-endian words; unpack into the line's byte storage.
    for (u32 w = 0; w < beats; ++w) write_be(line + w * 4, 4, buf[w]);
  }
  return c;
}

Cycles AhbBus::write_line(Master m, Addr addr, u32 line_bytes, const u8* line,
                          bool& error) {
  const unsigned beats = line_bytes / 4;
  u32 stack[kMaxStackBeats];
  std::vector<u32> heap;
  u32* buf = stack;
  if (beats > kMaxStackBeats) {
    heap.resize(beats);
    buf = heap.data();
  }
  for (u32 w = 0; w < beats; ++w) {
    buf[w] = static_cast<u32>(read_be(line + w * 4, 4));
  }
  AhbTransfer t;
  t.addr = addr;
  t.write = true;
  t.beats = beats;
  t.burst = burst_for_beats(beats);
  t.data = buf;
  const Cycles c = transfer(m, t);
  error = t.error;
  return c;
}

}  // namespace la::bus
