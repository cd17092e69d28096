// Harness for timed-pipeline tests: SRAM-backed AHB system with APB
// peripherals, assembled program, shared clock.  With `direct_sram` the
// SRAM sits behind a disconnect switch the pipeline is given, as in the
// node, so the fast paths take the direct SRAM path.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "bus/apb.hpp"
#include "bus/peripherals.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/disconnect.hpp"
#include "mem/memory_map.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"

namespace la::test {

class PipeSys {
 public:
  explicit PipeSys(std::string_view source, cpu::PipelineConfig cfg = {},
                   bool direct_sram = false)
      : img_(sasm::assemble_or_throw(source)),
        sram_(mem::map::kSramBase, 1u << 20),
        switch_(sram_),
        bridge_(mem::map::kApbBase),
        cyc_([this] { return clock_; }) {
    bus_.attach(mem::map::kSramBase, 1u << 20,
                direct_sram ? static_cast<bus::AhbSlave*>(&switch_)
                            : &sram_);
    bridge_.attach(mem::map::kGpioOffset, mem::map::kDeviceSize, &gpio_);
    bridge_.attach(mem::map::kCycleCounterOffset, mem::map::kDeviceSize,
                   &cyc_);
    bus_.attach(mem::map::kApbBase, mem::map::kApbSize, &bridge_);
    const bool ok = sram_.backdoor_write(img_.base, img_.data);
    EXPECT_TRUE(ok);
    pipe_ = std::make_unique<cpu::LeonPipeline>(
        cfg, bus_, &clock_, cpu::Cacheable::kMemoryMap,
        direct_sram ? &switch_ : nullptr);
    pipe_->reset(img_.entry);
  }

  void run_to(std::string_view label, u64 max = 2000000) {
    const Addr halt = img_.symbol(label);
    pipe_->run(max, halt);
    ASSERT_FALSE(pipe_->state().error_mode)
        << "pipeline entered error mode, tt=" << int{pipe_->state().tbr_tt()};
    ASSERT_EQ(pipe_->state().pc, halt) << "did not reach " << label;
  }

  u32 g(unsigned n) const { return pipe_->state().reg(static_cast<u8>(n)); }
  u32 o(unsigned n) const {
    return pipe_->state().reg(static_cast<u8>(8 + n));
  }

  cpu::LeonPipeline& pipe() { return *pipe_; }
  mem::Sram& sram() { return sram_; }
  mem::DisconnectSwitch& disconnect() { return switch_; }
  bus::AhbBus& bus() { return bus_; }
  bus::CycleCounter& counter() { return cyc_; }
  const sasm::Image& image() const { return img_; }
  Cycles clock() const { return clock_; }

 private:
  sasm::Image img_;
  Cycles clock_ = 0;
  bus::AhbBus bus_;
  mem::Sram sram_;
  mem::DisconnectSwitch switch_;
  bus::ApbBridge bridge_;
  bus::GpioPort gpio_;
  bus::CycleCounter cyc_;
  std::unique_ptr<cpu::LeonPipeline> pipe_;
};

}  // namespace la::test
