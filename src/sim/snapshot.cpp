// SystemSnapshot serialization, LiquidSystem::snapshot()/restore(), and the
// warm-start pool.
//
// State layout (all little-endian, see common/snapio.hpp):
//   "CFG " platform section   — memory sizes/timings, adapter, boot flavor
//   "PCF " pipeline config    — architectural knobs only (host knobs are
//                               per-system and never serialized)
//   "SYS " system section     — clock, watchdog mirror, egress queue
//   component sections        — pipeline+caches, SRAM, SDRAM device+ctrl,
//                               adapter, disconnect, AHB, UART, timer, IRQ,
//                               GPIO, cycle counter, watchdog, wrappers,
//                               packet generator, leon_ctrl, CPP
// Wire layout (serialize()):
//   "LASN" magic, u32 version, u64 length + state, u64 page count + the
//   pages' bytes, u64 FNV-1a checksum over everything before it
#include "sim/snapshot.hpp"

#include <utility>

#include "mem/memory_map.hpp"
#include "sim/liquid_system.hpp"

namespace la::sim {

namespace {

constexpr u32 kCfgTag = snap_tag("CFG ");
constexpr u32 kPipeCfgTag = snap_tag("PCF ");
constexpr u32 kSysTag = snap_tag("SYS ");

void fail(std::string* err, const char* what) {
  if (err != nullptr) *err = what;
}

void save_platform_config(SnapWriter& w, const SystemConfig& cfg) {
  w.tag(kCfgTag);
  w.u32v(cfg.sram_size);
  w.u32v(cfg.sdram_size);
  w.u64v(static_cast<u64>(cfg.sram_timing.read_wait));
  w.u64v(static_cast<u64>(cfg.sram_timing.write_wait));
  w.u64v(static_cast<u64>(cfg.sdram_timing.trcd));
  w.u64v(static_cast<u64>(cfg.sdram_timing.trp));
  w.u64v(static_cast<u64>(cfg.sdram_timing.cas));
  w.u32v(cfg.sdram_timing.banks);
  w.u32v(cfg.sdram_timing.row_bytes);
  w.u32v(cfg.adapter.read_burst_words64);
  w.b(cfg.adapter.always_short_burst);
  w.b(cfg.adapter.rmw_writes);
  w.u8v(cfg.timer_irq_level);
  w.u64v(cfg.watchdog_budget);
  w.b(cfg.use_original_boot);
}

/// True when the restoring system's platform matches the capture's.  The
/// node identity (IP/port) is deliberately NOT compared: restoring another
/// node's snapshot is exactly the migration/warm-start use case.
bool platform_matches(SnapReader& r, const SystemConfig& cfg) {
  if (!r.expect(kCfgTag)) return false;
  const bool ok =
      r.u32v() == cfg.sram_size && r.u32v() == cfg.sdram_size &&
      r.u64v() == static_cast<u64>(cfg.sram_timing.read_wait) &&
      r.u64v() == static_cast<u64>(cfg.sram_timing.write_wait) &&
      r.u64v() == static_cast<u64>(cfg.sdram_timing.trcd) &&
      r.u64v() == static_cast<u64>(cfg.sdram_timing.trp) &&
      r.u64v() == static_cast<u64>(cfg.sdram_timing.cas) &&
      r.u32v() == cfg.sdram_timing.banks &&
      r.u32v() == cfg.sdram_timing.row_bytes &&
      r.u32v() == cfg.adapter.read_burst_words64 &&
      r.b() == cfg.adapter.always_short_burst &&
      r.b() == cfg.adapter.rmw_writes && r.u8v() == cfg.timer_irq_level &&
      (static_cast<void>(r.u64v()),  // watchdog budget is advisory, not
       true) &&                      // identity — nodes may differ
      r.b() == cfg.use_original_boot;
  return ok && r.ok();
}

void save_cache_config(SnapWriter& w, const cache::CacheConfig& c) {
  w.u32v(c.size_bytes);
  w.u32v(c.line_bytes);
  w.u32v(c.ways);
  w.u8v(static_cast<u8>(c.replacement));
  w.u8v(static_cast<u8>(c.write_policy));
}

cache::CacheConfig load_cache_config(SnapReader& r) {
  cache::CacheConfig c;
  c.size_bytes = r.u32v();
  c.line_bytes = r.u32v();
  c.ways = r.u32v();
  c.replacement = static_cast<cache::Replacement>(r.u8v());
  c.write_policy = static_cast<cache::WritePolicy>(r.u8v());
  return c;
}

void save_pipeline_config(SnapWriter& w, const cpu::PipelineConfig& p) {
  w.tag(kPipeCfgTag);
  w.u32v(p.cpu.nwindows);
  w.b(p.cpu.has_mul);
  w.b(p.cpu.has_div);
  w.u64v(static_cast<u64>(p.cpu.mul_latency));
  w.u64v(static_cast<u64>(p.cpu.div_latency));
  w.u64v(static_cast<u64>(p.cpu.load_extra));
  w.u64v(static_cast<u64>(p.cpu.load_double_extra));
  w.u64v(static_cast<u64>(p.cpu.store_extra));
  w.u64v(static_cast<u64>(p.cpu.store_double_extra));
  w.u64v(static_cast<u64>(p.cpu.cti_extra));
  w.u64v(static_cast<u64>(p.cpu.trap_latency));
  w.b(p.cpu.quirk_subx_no_carry);
  save_cache_config(w, p.icache);
  save_cache_config(w, p.dcache);
  w.b(p.icache_enabled);
  w.b(p.dcache_enabled);
  w.u32v(p.write_buffer_depth);
}

/// Architectural pipeline config from the stream; the host fast-path
/// switch is copied from `host` — it belongs to the restoring system, not
/// the snapshot.
cpu::PipelineConfig load_pipeline_config(SnapReader& r,
                                         const cpu::PipelineConfig& host) {
  cpu::PipelineConfig p;
  if (!r.expect(kPipeCfgTag)) return p;
  p.cpu.nwindows = r.u32v();
  p.cpu.has_mul = r.b();
  p.cpu.has_div = r.b();
  p.cpu.mul_latency = static_cast<Cycles>(r.u64v());
  p.cpu.div_latency = static_cast<Cycles>(r.u64v());
  p.cpu.load_extra = static_cast<Cycles>(r.u64v());
  p.cpu.load_double_extra = static_cast<Cycles>(r.u64v());
  p.cpu.store_extra = static_cast<Cycles>(r.u64v());
  p.cpu.store_double_extra = static_cast<Cycles>(r.u64v());
  p.cpu.cti_extra = static_cast<Cycles>(r.u64v());
  p.cpu.trap_latency = static_cast<Cycles>(r.u64v());
  p.cpu.quirk_subx_no_carry = r.b();
  p.icache = load_cache_config(r);
  p.dcache = load_cache_config(r);
  p.icache_enabled = r.b();
  p.dcache_enabled = r.b();
  p.write_buffer_depth = r.u32v();
  p.host_fast_paths = host.host_fast_paths;
  return p;
}

bool cache_config_equal(const cache::CacheConfig& a,
                        const cache::CacheConfig& b) {
  return a.size_bytes == b.size_bytes && a.line_bytes == b.line_bytes &&
         a.ways == b.ways && a.replacement == b.replacement &&
         a.write_policy == b.write_policy;
}

/// Architectural equality (host knobs excluded): decides whether a restore
/// can load into the existing pipeline or must rebuild it.
bool arch_equal(const cpu::PipelineConfig& a, const cpu::PipelineConfig& b) {
  return a.cpu.nwindows == b.cpu.nwindows && a.cpu.has_mul == b.cpu.has_mul &&
         a.cpu.has_div == b.cpu.has_div &&
         a.cpu.mul_latency == b.cpu.mul_latency &&
         a.cpu.div_latency == b.cpu.div_latency &&
         a.cpu.load_extra == b.cpu.load_extra &&
         a.cpu.load_double_extra == b.cpu.load_double_extra &&
         a.cpu.store_extra == b.cpu.store_extra &&
         a.cpu.store_double_extra == b.cpu.store_double_extra &&
         a.cpu.cti_extra == b.cpu.cti_extra &&
         a.cpu.trap_latency == b.cpu.trap_latency &&
         a.cpu.quirk_subx_no_carry == b.cpu.quirk_subx_no_carry &&
         cache_config_equal(a.icache, b.icache) &&
         cache_config_equal(a.dcache, b.dcache) &&
         a.icache_enabled == b.icache_enabled &&
         a.dcache_enabled == b.dcache_enabled &&
         a.write_buffer_depth == b.write_buffer_depth;
}

}  // namespace

bool SystemSnapshot::validate(const Bytes& blob, std::string* err) {
  if (blob.size() < 16) {
    fail(err, "snapshot too short");
    return false;
  }
  SnapReader r(blob);
  if (r.u32v() != kMagic) {
    fail(err, "bad snapshot magic");
    return false;
  }
  const u32 version = r.u32v();
  if (version != kVersion) {
    fail(err, "unsupported snapshot version");
    return false;
  }
  const std::size_t body = blob.size() - 8;
  u64 stored = 0;
  for (int i = 7; i >= 0; --i) stored = (stored << 8) | blob[body + i];
  if (snap_fnv1a(blob.data(), body) != stored) {
    fail(err, "snapshot checksum mismatch");
    return false;
  }
  return true;
}

Bytes SystemSnapshot::serialize() const {
  SnapWriter w;
  w.tag(kMagic);
  w.u32v(kVersion);
  w.bytes(state);
  w.u64v(pages.size());
  for (const PageRef& p : pages) w.raw(p->data(), kPageBytes);
  Bytes out = w.take();
  const u64 sum = snap_fnv1a(out.data(), out.size());
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(sum >> (8 * i)));
  return out;
}

std::optional<SystemSnapshot> SystemSnapshot::deserialize(const Bytes& blob,
                                                          std::string* err) {
  if (!validate(blob, err)) return std::nullopt;
  SnapReader r(blob);
  r.u32v();  // magic (validated)
  r.u32v();  // version (validated)
  SystemSnapshot s;
  s.state = r.bytes();
  const std::size_t body = blob.size() - 8;  // before the checksum
  const u64 n = r.u64v();
  const std::size_t left = r.pos() <= body ? body - r.pos() : 1;
  if (!r.ok() || left % kPageBytes != 0 || n != left / kPageBytes) {
    fail(err, "malformed snapshot page table");
    return std::nullopt;
  }
  s.pages.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    auto p = std::make_shared<Page>();
    r.raw(p->data(), kPageBytes);
    s.pages.push_back(std::move(p));
  }
  return s;
}

SystemSnapshot LiquidSystem::snapshot() const {
  SnapWriter w;
  save_platform_config(w, cfg_);
  save_pipeline_config(w, pipe_->config());

  w.tag(kSysTag);
  w.u64v(static_cast<u64>(clock_));
  w.u64v(static_cast<u64>(periph_synced_at_));
  w.u8v(static_cast<u8>(wdog_state_));
  w.u64v(seen_wdog_trips_);
  w.u64v(egress_.size());
  for (const Bytes& frame : egress_) w.bytes(frame);

  pipe_->save_state(w);
  sram_.save_state(w);
  sdram_->save_state(w);
  sdram_ctrl_->save_state(w);
  adapter_->save_state(w);
  switch_->save_state(w);
  bus_.save_state(w);
  uart_.save_state(w);
  timer_.save_state(w);
  irqctrl_->save_state(w);
  gpio_.save_state(w);
  cyc_->save_state(w);
  wdog_.save_state(w);
  wrappers_.save_state(w);
  pktgen_->save_state(w);
  ctrl_->save_state(w);
  cpp_->save_state(w);

  SystemSnapshot s;
  s.state = w.take();
  s.pages = w.take_pages();
  return s;
}

bool LiquidSystem::restore(const SystemSnapshot& snap, std::string* err) {
  if (snap.empty()) {
    fail(err, "empty snapshot");
    return false;
  }
  SnapReader r(snap.state, &snap.pages);
  if (!platform_matches(r, cfg_)) {
    fail(err, "snapshot platform config does not match this system");
    return false;
  }
  const cpu::PipelineConfig pcfg = load_pipeline_config(r, cfg_.pipeline);
  if (!r.ok()) {
    fail(err, "truncated pipeline config");
    return false;
  }
  // A restore is also a reconfiguration: adopt the snapshot's
  // micro-architecture, rebuilding the pipeline when it differs.  Unlike
  // reconfigure() this neither resets the CPU (load_state overwrites the
  // full state anyway) nor counts toward sim.reconfigurations — the warm
  // start's whole point is that no reprogramming happened here.
  if (!arch_equal(pcfg, pipe_->config())) {
    cfg_.pipeline = pcfg;
    pipe_ = std::make_unique<cpu::LeonPipeline>(
        pcfg, bus_, &clock_, cpu::Cacheable::kMemoryMap, switch_.get());
  }

  if (!r.expect(kSysTag)) {
    fail(err, "missing system section");
    return false;
  }
  clock_ = static_cast<Cycles>(r.u64v());
  periph_synced_at_ = static_cast<Cycles>(r.u64v());
  wdog_state_ = static_cast<net::LeonState>(r.u8v());
  seen_wdog_trips_ = r.u64v();
  egress_.clear();
  for (u64 i = 0, n = r.u64v(); i < n && r.ok(); ++i) {
    egress_.push_back(r.bytes());
  }

  const bool components_ok =
      pipe_->load_state(r) && sram_.load_state(r) && sdram_->load_state(r) &&
      sdram_ctrl_->load_state(r) && adapter_->load_state(r) &&
      switch_->load_state(r) && bus_.load_state(r) && uart_.load_state(r) &&
      timer_.load_state(r) && irqctrl_->load_state(r) &&
      gpio_.load_state(r) && cyc_->load_state(r) && wdog_.load_state(r) &&
      wrappers_.load_state(r) && pktgen_->load_state(r) &&
      ctrl_->load_state(r) && cpp_->load_state(r);
  if (!components_ok || !r.ok()) {
    fail(err, "corrupt or incompatible snapshot component section");
    return false;
  }
  // Any precomputed batch boundary is stale now.
  periph_dirty_ = false;
  // A restore is not a leon_ctrl transition: an episode the snapshot was
  // taken inside continues, and its span starts here.
  episode_us_ = job_trace_.now_us();
  episode_cycle_ = clock_;
  return true;
}

std::shared_ptr<const SystemSnapshot> SnapshotPool::get(
    const std::string& key) {
  std::lock_guard lk(mu_);
  const auto it = pool_.find(key);
  if (it == pool_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.snap;
}

void SnapshotPool::put(const std::string& key, SystemSnapshot snap) {
  auto sp = std::make_shared<const SystemSnapshot>(std::move(snap));
  std::lock_guard lk(mu_);
  if (pool_.count(key) != 0) return;
  lru_.push_front(key);
  pool_.emplace(key, Entry{sp, lru_.begin()});
  bytes_ += sp->size_bytes();
  ++stats_.inserts;
  while (bytes_ > kBudget && !lru_.empty()) {
    const auto victim = pool_.find(lru_.back());
    bytes_ -= victim->second.snap->size_bytes();
    pool_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool SnapshotPool::contains(const std::string& key) const {
  std::lock_guard lk(mu_);
  return pool_.count(key) != 0;
}

std::size_t SnapshotPool::size() const {
  std::lock_guard lk(mu_);
  return pool_.size();
}

std::size_t SnapshotPool::bytes() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

SnapshotPool::Stats SnapshotPool::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace la::sim
