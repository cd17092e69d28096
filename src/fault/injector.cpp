#include "fault/injector.hpp"

#include <string>

#include "mem/memory_map.hpp"

namespace la::fault {

FaultInjector::FaultInjector(sim::LiquidSystem& sys, FaultPlan plan,
                             net::Channel* uplink, net::Channel* downlink)
    : sys_(sys),
      plan_(std::move(plan)),
      up_(uplink),
      down_(downlink),
      done_(plan_.events.size(), false) {
  sys_.set_step_hook([this](const cpu::StepResult& r) { on_step(r); });
  sys_.set_ingress_hook([this] { on_ingress(); });
  // Cycle-0 triggers should not wait for the first step.
  fire_matching(TriggerKind::kCycle, sys_.now(), std::nullopt);
}

FaultInjector::~FaultInjector() {
  // The hooks capture `this`; leave none behind.
  sys_.set_step_hook({});
  sys_.set_ingress_hook({});
}

void FaultInjector::on_step(const cpu::StepResult& r) {
  if (unwedge_at_ && sys_.now() >= *unwedge_at_) {
    sys_.cpu().set_wedged(false);
    unwedge_at_.reset();
  }
  fire_matching(TriggerKind::kCycle, sys_.now(), std::nullopt);
  fire_matching(TriggerKind::kPc, 0, r.pc);
}

void FaultInjector::on_ingress() {
  ++ingress_count_;
  fire_matching(TriggerKind::kPacketCount, ingress_count_, std::nullopt);
}

void FaultInjector::fire_matching(TriggerKind kind, u64 observed,
                                  std::optional<Addr> pc) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    if (done_[i]) continue;
    const FaultEvent& e = plan_.events[i];
    if (e.trigger.kind != kind) continue;
    const bool match = kind == TriggerKind::kPc
                           ? (pc && *pc == e.trigger.value)
                           : observed >= e.trigger.value;
    if (!match) continue;
    done_[i] = true;
    const bool landed = apply(e.action);
    fired_.push_back({i, sys_.now(), landed});
    ++stats_.injected;
    landed ? ++stats_.landed : ++stats_.missed;
    const std::string site = site_name(e.action.site);
    sys_.metrics().counter("fault.injected").inc();
    sys_.metrics().counter("fault.site." + site).inc();
    if (!landed) sys_.metrics().counter("fault.missed").inc();
    if (const trace::JobTrace& jt = sys_.job_trace(); jt.active()) {
      const double now = jt.now_us();
      jt.phase("fault." + site, now, now, sys_.now(), sys_.now());
    }
    if (auto* fr = sys_.flight_recorder()) {
      fr->record(sys_.now(), sim::FlightEventKind::kFaultFired,
                 static_cast<u64>(e.action.site), e.action.addr);
    }
  }
}

bool FaultInjector::apply(const FaultAction& a) {
  switch (a.site) {
    case FaultSite::kSramWord:
      return sys_.sram().corrupt_word(a.addr, static_cast<u32>(a.mask));
    case FaultSite::kSdramWord: {
      if (a.addr < mem::map::kSdramBase) return false;
      return sys_.sdram_device().corrupt_word64(a.addr - mem::map::kSdramBase,
                                                a.mask);
    }
    case FaultSite::kICacheLine:
      return sys_.cpu().icache().poison_line(a.addr, a.arg,
                                             static_cast<u8>(a.mask & 7));
    case FaultSite::kDCacheLine:
      return sys_.cpu().dcache().poison_line(a.addr, a.arg,
                                             static_cast<u8>(a.mask & 7));
    case FaultSite::kRegister: {
      if (a.reg == 0 || a.reg > 31) return false;
      cpu::CpuState& st = sys_.cpu().state();
      const u32 old = st.regs.get(st.psr.cwp, a.reg);
      st.regs.set(st.psr.cwp, a.reg, old ^ static_cast<u32>(a.mask));
      return true;
    }
    case FaultSite::kAhbErrorPulse:
      sys_.ahb().inject_error_pulse(a.arg ? a.arg : 1);
      return true;
    case FaultSite::kCpuWedge:
      sys_.cpu().set_wedged(true);
      if (a.arg > 0) unwedge_at_ = sys_.now() + a.arg;
      return true;
    case FaultSite::kChannelCorrupt: {
      net::Channel* ch = a.on_downlink ? down_ : up_;
      if (!ch) return false;
      ch->force_corrupt_next();
      return true;
    }
    case FaultSite::kChannelTruncate: {
      net::Channel* ch = a.on_downlink ? down_ : up_;
      if (!ch) return false;
      ch->force_truncate_next();
      return true;
    }
    case FaultSite::kChannelDelay: {
      net::Channel* ch = a.on_downlink ? down_ : up_;
      if (!ch) return false;
      ch->force_delay_next(a.arg ? a.arg : 1);
      return true;
    }
  }
  return false;
}

bool FaultInjector::parity_still_bad(std::size_t event_index) const {
  if (event_index >= plan_.events.size()) return false;
  const FaultAction& a = plan_.events[event_index].action;
  switch (a.site) {
    case FaultSite::kSramWord:
      return !sys_.sram().parity_ok(a.addr & ~Addr{3}, 4);
    case FaultSite::kSdramWord: {
      if (a.addr < mem::map::kSdramBase) return false;
      const Addr local = (a.addr - mem::map::kSdramBase) & ~Addr{7};
      return !sys_.sdram_device().parity_ok(local, 8);
    }
    default:
      return false;
  }
}

}  // namespace la::fault
