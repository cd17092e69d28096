// Property test: random deep call trees — with real stack frames, window
// overflow/underflow traps, and the runtime's spill/fill handlers — leave
// the functional reference and the timed pipeline in identical
// architectural state.  This covers the trap-heavy execution the flat
// random-program equivalence test cannot reach.
#include <gtest/gtest.h>

#include <sstream>

#include "bus/ahb.hpp"
#include "common/rng.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"

namespace la::test {
namespace {

constexpr Addr kBase = 0x40000000;
constexpr u32 kMemSize = 1u << 20;


/// Random DAG of functions: fK may call fJ only for J > K, so every
/// program terminates; call chains run deep enough to spill.
class CallTreeGenerator {
 public:
  explicit CallTreeGenerator(u64 seed) : rng_(seed) {}

  std::string generate(unsigned functions) {
    std::ostringstream os;
    os << "    .org 0x40000100\n_start:\n";
    os << "    call rt_init\n    nop\n";
    os << "    set data, %g7\n";
    os << "    mov 3, %o0\n";
    os << "    call f0\n    nop\n";
    os << "    set result, %g1\n";
    os << "    st %o0, [%g1]\n";
    os << "done:\n    ba done\n    nop\n";

    for (unsigned k = 0; k < functions; ++k) emit_function(os, k, functions);

    os << "    .align 8\nresult:\n    .skip 8\n";
    os << "data:\n    .skip 256\n";
    return os.str();
  }

 private:
  void emit_function(std::ostringstream& os, unsigned k, unsigned total) {
    os << "f" << k << ":\n";
    os << "    save %sp, -96, %sp\n";
    // A few local computations seeded from the argument.
    const char* locals[] = {"%l0", "%l1", "%l2", "%l3"};
    os << "    mov %i0, %l0\n";
    const unsigned nops = 1 + rng_.below(4);
    for (unsigned i = 0; i < nops; ++i) {
      const char* dst = locals[rng_.below(4)];
      const char* src = locals[rng_.below(4)];
      switch (rng_.below(4)) {
        case 0:
          os << "    add " << src << ", " << rng_.below(100) << ", " << dst
             << "\n";
          break;
        case 1:
          os << "    xor " << src << ", %l0, " << dst << "\n";
          break;
        case 2:
          os << "    sll " << src << ", " << (1 + rng_.below(4)) << ", "
             << dst << "\n";
          break;
        default:
          os << "    sub " << src << ", %i0, " << dst << "\n";
          break;
      }
    }
    // Touch the shared data region (offset private to this function).
    const u32 off = (k * 16) % 240;
    if (rng_.chance(0.7)) {
      os << "    st %l1, [%g7 + " << off << "]\n";
      os << "    ld [%g7 + " << off << "], %l2\n";
    }
    // Call up to two deeper functions, folding their results in.
    unsigned calls = rng_.below(3);
    if (k + 1 >= total) calls = 0;
    for (unsigned c = 0; c < calls; ++c) {
      const unsigned target = k + 1 + rng_.below(total - k - 1);
      os << "    add %l0, " << c << ", %o0\n";
      os << "    call f" << target << "\n    nop\n";
      os << "    add %l3, %o0, %l3\n";
    }
    os << "    add %l0, %l3, %i0\n";
    os << "    xor %i0, %l2, %i0\n";
    os << "    ret\n    restore\n";
  }

  Rng rng_;
};

struct BothModels {
  explicit BothModels(const std::string& source, unsigned nwindows) {
    img = sasm::assemble_or_throw(source);

    cpu::CpuConfig ccfg;
    ccfg.nwindows = nwindows;
    flat = std::make_unique<cpu::FlatMemory>(kMemSize, kBase);
    flat->load(img.base, img.data);
    iu = std::make_unique<cpu::IntegerUnit>(ccfg, *flat);
    iu->reset(img.entry);

    cpu::PipelineConfig pcfg;
    pcfg.cpu.nwindows = nwindows;
    sram = std::make_unique<mem::Sram>(kBase, kMemSize);
    sram->backdoor_write(img.base, img.data);
    bus.attach(kBase, kMemSize, sram.get());
    pipe = std::make_unique<cpu::LeonPipeline>(pcfg, bus, &clock,
                                               cpu::Cacheable::kEverything);
    pipe->reset(img.entry);
  }

  sasm::Image img;
  Cycles clock = 0;
  std::unique_ptr<cpu::FlatMemory> flat;
  std::unique_ptr<cpu::IntegerUnit> iu;
  std::unique_ptr<mem::Sram> sram;
  bus::AhbBus bus;
  std::unique_ptr<cpu::LeonPipeline> pipe;
};

class CallTreeEquivalence
    : public ::testing::TestWithParam<std::tuple<u64, unsigned>> {};

TEST_P(CallTreeEquivalence, BothModelsAgree) {
  const auto [seed, nwindows] = GetParam();
  CallTreeGenerator gen(seed);
  sasm::rt::RuntimeOptions ropt;
  ropt.nwindows = nwindows;
  BothModels m(gen.generate(14) + sasm::rt::runtime_source(ropt), nwindows);

  const Addr done = m.img.symbol("done");
  const u64 a = m.iu->run(3'000'000, done);
  const u64 b = m.pipe->run(3'000'000, done);
  // Both must terminate (no runaway traps) at the same place.
  ASSERT_EQ(m.iu->state().pc, done) << "IU did not finish (" << a << ")";
  ASSERT_EQ(m.pipe->state().pc, done) << "pipe did not finish (" << b << ")";
  ASSERT_FALSE(m.iu->state().error_mode);
  ASSERT_FALSE(m.pipe->state().error_mode);

  // Architectural state must match exactly.
  const cpu::CpuState& x = m.iu->state();
  const cpu::CpuState& y = m.pipe->state();
  EXPECT_EQ(x.psr.pack(), y.psr.pack());
  EXPECT_EQ(x.wim, y.wim);
  EXPECT_EQ(x.y, y.y);
  for (unsigned w = 0; w < nwindows; ++w) {
    for (u8 r = 0; r < 32; ++r) {
      ASSERT_EQ(x.regs.get(w, r), y.regs.get(w, r))
          << "window " << w << " reg " << int{r};
    }
  }
  // And the result plus the whole data region.
  for (u32 off = 0; off < 256; off += 4) {
    u64 v = 0;
    ASSERT_TRUE(m.sram->debug_read(m.img.symbol("data") + off, 4, v));
    EXPECT_EQ(m.flat->word_at(m.img.symbol("data") + off),
              static_cast<u32>(v));
  }
  EXPECT_EQ(m.flat->word_at(m.img.symbol("result")),
            [&] {
              u64 v = 0;
              m.sram->debug_read(m.img.symbol("result"), 4, v);
              return static_cast<u32>(v);
            }());

  // (Whether a given random tree is deep enough to spill depends on the
  // seed; guaranteed-trap coverage lives in the directed fib tests in
  // tests/cpu/runtime_windows_test.cpp.  Here the property is equality,
  // traps or no traps.)
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWindows, CallTreeEquivalence,
    ::testing::Combine(::testing::Range<u64>(1, 11),
                       ::testing::Values(4u, 8u, 16u)));

}  // namespace
}  // namespace la::test
