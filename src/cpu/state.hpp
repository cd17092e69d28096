// Architectural state of the SPARC V8 integer unit: PSR, windowed register
// file, and the auxiliary state registers.
#pragma once

#include <cassert>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "cpu/config.hpp"

namespace la::cpu {

/// Processor State Register, kept unpacked for fast access.
struct Psr {
  // Integer condition codes.
  bool n = false, z = false, v = false, c = false;
  bool ec = false;   // coprocessor enable
  bool ef = false;   // FPU enable (LEON built without FPU -> keep false)
  u8 pil = 0;        // processor interrupt level (0..15)
  bool s = true;     // supervisor
  bool ps = false;   // previous supervisor
  bool et = false;   // enable traps
  u8 cwp = 0;        // current window pointer

  static constexpr u32 kImpl = 0xf;  // impl/ver fields read as constants
  static constexpr u32 kVer = 0x3;

  u32 pack() const {
    return (kImpl << 28) | (kVer << 24) | (u32{n} << 23) | (u32{z} << 22) |
           (u32{v} << 21) | (u32{c} << 20) | (u32{ec} << 13) |
           (u32{ef} << 12) | ((u32{pil} & 0xfu) << 8) | (u32{s} << 7) |
           (u32{ps} << 6) | (u32{et} << 5) | (u32{cwp} & 0x1fu);
  }

  /// Unpack a WRPSR value (impl/ver are read-only and ignored).
  void unpack(u32 w) {
    n = bit(w, 23);
    z = bit(w, 22);
    v = bit(w, 21);
    c = bit(w, 20);
    ec = bit(w, 13);
    ef = bit(w, 12);
    pil = static_cast<u8>(bits(w, 11, 8));
    s = bit(w, 7);
    ps = bit(w, 6);
    et = bit(w, 5);
    cwp = static_cast<u8>(bits(w, 4, 0));
  }
};

/// Windowed integer register file.
///
/// Registers 0..7 are globals; each window contributes 16 registers
/// (8 outs + 8 locals); the ins of window w alias the outs of window
/// (w + 1) mod NWINDOWS.
class RegisterFile {
 public:
  explicit RegisterFile(unsigned nwindows = 8)
      : nwin_(nwindows), store_(8 + 16 * nwindows, 0) {
    assert(nwindows >= 2 && nwindows <= 32);
  }

  unsigned nwindows() const { return nwin_; }

  u32 get(unsigned cwp, u8 r) const {
    if (r == 0) return 0;
    return store_[index(cwp, r)];
  }

  void set(unsigned cwp, u8 r, u32 v) {
    if (r == 0) return;  // %g0 is hardwired to zero
    store_[index(cwp, r)] = v;
  }

  /// Raw backing store (globals + all windows), for snapshot/restore.
  const std::vector<u32>& raw() const { return store_; }
  /// Mutable view of the backing store plus the slot computation, for the
  /// line tier's branch-free per-window register maps (host perf only;
  /// aliasing rules are RegisterFile's — %g0 must still be special-cased).
  u32* data() { return store_.data(); }
  std::size_t slot(unsigned cwp, u8 r) const { return index(cwp, r); }
  bool set_raw(std::vector<u32> v) {
    if (v.size() != store_.size()) return false;
    store_ = std::move(v);
    return true;
  }

 private:
  std::size_t index(unsigned cwp, u8 r) const {
    assert(r < 32 && cwp < nwin_);
    if (r < 8) return r;  // globals
    const unsigned wslot = [&] {
      if (r < 16) return cwp * 16u + (r - 8u);                 // outs
      if (r < 24) return cwp * 16u + 8u + (r - 16u);           // locals
      // ins alias the next window's outs; nwin_ is not a compile-time
      // power of two, so a compare beats the integer division of `%`.
      const unsigned next = cwp + 1u == nwin_ ? 0u : cwp + 1u;
      return next * 16u + (r - 24u);
    }();
    return 8u + wslot;
  }

  unsigned nwin_;
  std::vector<u32> store_;
};

/// Full architectural state.  Both CPU models operate on this struct so the
/// property tests can compare them field-for-field.
struct CpuState {
  explicit CpuState(const CpuConfig& cfg = {})
      : regs(cfg.nwindows), nwindows(cfg.nwindows) {}

  RegisterFile regs;
  unsigned nwindows;

  Addr pc = 0;
  Addr npc = 4;
  Psr psr;
  u32 wim = 0;
  u32 tbr = 0;  // bits 31:12 trap base address, 11:4 tt, 3:0 zero
  u32 y = 0;
  u32 asr[32] = {};  // ancillary state registers (ASR 1..31 usable)

  /// True once the CPU entered error mode (trap while ET = 0).  A real
  /// SPARC halts and asserts an error pin; the FPX circuitry would report
  /// it — we latch the flag and stop executing.
  bool error_mode = false;

  u32 reg(u8 r) const { return regs.get(psr.cwp, r); }
  void set_reg(u8 r, u32 v) { regs.set(psr.cwp, r, v); }

  /// tt field of TBR.
  u8 tbr_tt() const { return static_cast<u8>(bits(tbr, 11, 4)); }
  void set_tbr_tt(u8 tt) {
    tbr = (tbr & 0xfffff00fu) | (u32{tt} << 4);
  }
};

}  // namespace la::cpu
