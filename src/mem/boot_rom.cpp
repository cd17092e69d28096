#include "mem/boot_rom.hpp"

#include <cassert>

#include "common/bits.hpp"
#include "common/hex.hpp"

namespace la::mem {

BootRom::BootRom(Addr base, u32 size, std::vector<u8> contents,
                 Cycles read_wait)
    : base_(base), data_(std::move(contents)), read_wait_(read_wait) {
  assert(data_.size() <= size);
  data_.resize(size, 0);
}

Cycles BootRom::transfer(bus::AhbTransfer& t) {
  Cycles cycles = 0;
  for (unsigned b = 0; b < t.beats; ++b) {
    const Addr a = t.addr + b * t.beat_bytes;
    if (t.write || a < base_ || a - base_ + t.beat_bytes > data_.size()) {
      t.error = true;  // ROM: writes get an ERROR response
      return cycles + 2;
    }
    t.data[b] = static_cast<u32>(read_be(&data_[a - base_], t.beat_bytes));
    cycles += 1 + read_wait_;
  }
  return cycles;
}

bool BootRom::debug_read(Addr addr, unsigned size, u64& out) {
  if (addr < base_ || addr - base_ + size > data_.size()) return false;
  out = read_be(&data_[addr - base_], size);
  return true;
}

std::string modified_boot_source(Addr rom_base, Addr mailbox) {
  // Fig 5 (right): set config registers, set up the dedicated SRAM space,
  // then poll the mailbox until leon_ctrl plants a start address.
  // The flush keeps the poll from spinning on a stale cached line after
  // the external circuitry writes SRAM behind the processor's back.
  std::string s;
  s += "    .org " + hex32(rom_base) + "\n";
  s += "reset:\n";
  s += "    wr %g0, 2, %wim          ! window 1 invalid\n";
  s += "    set " + hex32(rom_base) + ", %g1\n";
  s += "    wr %g1, 0, %tbr          ! trap table at ROM base\n";
  s += "    wr %g0, 0x80, %psr       ! S=1, traps off during boot\n";
  s += "    ba check_ready\n";
  s += "    nop\n";
  s += "    .org " + hex32(rom_base + kCheckReadyOffset) + "\n";
  s += "check_ready:\n";
  s += "    set " + hex32(mailbox) + ", %l0\n";
  s += "    flush %l0                ! see backdoor writes (Fig 5: flush)\n";
  s += "    ld [%l0], %l1            ! ProgAddr\n";
  s += "    cmp %l1, 0\n";
  s += "    be check_ready\n";
  s += "    nop\n";
  // A new program may have been loaded over the previous one: flush both
  // caches through the cache control register before dispatching, or the
  // I-cache would happily run the old program's lines.
  s += "    set 0x00600000, %l2      ! CCR FI|FD\n";
  s += "    sta %l2, [%g0] 2         ! flush I+D caches\n";
  s += "    jmp %l1                  ! begin execution of the user program\n";
  s += "    nop\n";
  return s;
}

std::string original_boot_source(Addr rom_base, Addr uart_status) {
  // Fig 5 (left): the stock LEON boot waits for a UART event before
  // loading anything.
  std::string s;
  s += "    .org " + hex32(rom_base) + "\n";
  s += "reset:\n";
  s += "    wr %g0, 2, %wim\n";
  s += "    set " + hex32(rom_base) + ", %g1\n";
  s += "    wr %g1, 0, %tbr\n";
  s += "    wr %g0, 0x80, %psr\n";
  s += "load_wait:\n";
  s += "    set " + hex32(uart_status) + ", %l0\n";
  s += "    ld [%l0], %l1\n";
  s += "    btst 2, %l1              ! RX data available?\n";
  s += "    be load_wait\n";
  s += "    nop\n";
  s += "halt:\n";
  s += "    ba halt                  ! (UART download not modelled)\n";
  s += "    nop\n";
  return s;
}

}  // namespace la::mem
