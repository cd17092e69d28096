#include "cache/cache.hpp"

namespace la::cache {

Cache::Cache(const CacheConfig& cfg, u64 seed)
    : cfg_(cfg),
      line_shift_(ilog2(cfg.line_bytes)),
      set_shift_(ilog2(cfg.num_sets())),
      tag_shift_(ilog2(cfg.line_bytes) + ilog2(cfg.num_sets())),
      set_mask_(cfg.num_sets() - 1),
      ways_(cfg.num_lines()),
      data_(static_cast<std::size_t>(cfg.num_lines()) * cfg.line_bytes, 0),
      rng_(seed) {
  assert(cfg.valid());
}

Cache::Way* Cache::find(u32 set, u32 tag) {
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const Cache::Way* Cache::find(u32 set, u32 tag) const {
  const Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

std::size_t Cache::choose_victim(u32 set) {
  const std::size_t first = static_cast<std::size_t>(set) * cfg_.ways;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (!ways_[first + w].valid) return first + w;
  }
  if (cfg_.replacement == Replacement::kRandom) {
    return first + rng_.below(cfg_.ways);
  }
  std::size_t victim = first;
  for (u32 w = 1; w < cfg_.ways; ++w) {
    if (ways_[first + w].lru < ways_[victim].lru) victim = first + w;
  }
  return victim;
}

AccessOutcome Cache::access(Addr addr, bool is_write) {
  const u32 set = set_of(addr);
  const u32 tag = tag_of(addr);
  AccessOutcome out;
  out.line_addr = static_cast<Addr>(align_down(addr, cfg_.line_bytes));
  ++tick_;

  if (Way* w = find(set, tag)) {
    if (w->poisoned) {
      // Bad parity on the resident copy.  A clean line is recoverable —
      // drop it and refetch from memory via the ordinary miss path below.
      // A dirty line held the only copy of the data; it is lost, and the
      // caller must fault.
      if (w->dirty) {
        ++stats_.parity_discards;
        *w = Way{};
        ++gen_;
        out.parity_discard = true;
        if (is_write) {
          ++stats_.write_misses;
        } else {
          ++stats_.read_misses;
        }
        return out;
      }
      ++stats_.parity_recoveries;
      *w = Way{};
    } else {
      out.hit = true;
      out.slot = static_cast<u32>(w - ways_.data());
      out.data = slot_data(out.slot);
      w->lru = tick_;
      if (is_write) {
        ++stats_.write_hits;
        if (cfg_.write_policy == WritePolicy::kWriteBackAllocate) {
          w->dirty = true;
        }
      } else {
        ++stats_.read_hits;
      }
      return out;
    }
  }

  // Miss.  Everything from here on can change a resident line's identity
  // or contents (fill, victim drop), so the content generation moves; the
  // poisoned-dirty early return above bumped it already.
  ++gen_;
  if (is_write) {
    ++stats_.write_misses;
    if (cfg_.write_policy == WritePolicy::kWriteThroughNoAllocate) {
      return out;  // write-around: no fill, memory updated by caller
    }
  } else {
    ++stats_.read_misses;
  }

  // Fill path (read miss always; write miss only with allocate policy).
  out.fill = true;
  const std::size_t vi = choose_victim(set);
  Way& v = ways_[vi];
  if (v.valid) {
    if (v.dirty && v.poisoned) {
      // The victim's only copy of its data is damaged — it must not be
      // written back, and dropping it silently would lose a store.  Drop
      // the line and promote the parity error to the triggering access
      // (the caller faults); nothing is allocated.
      ++stats_.parity_discards;
      v = Way{};
      out.fill = false;
      out.parity_discard = true;
      return out;
    }
    ++stats_.evictions;
    if (v.dirty) {
      ++stats_.writebacks;
      out.writeback = true;
      out.victim_addr = line_base(set, v.tag);
    }
  }
  v.valid = true;
  v.dirty = is_write && cfg_.write_policy == WritePolicy::kWriteBackAllocate;
  v.poisoned = false;
  v.tag = tag;
  v.lru = tick_;
  out.slot = static_cast<u32>(vi);
  out.data = slot_data(vi);  // still holds the victim's bytes; caller saves
  return out;
}

bool Cache::probe(Addr addr) const {
  return find(set_of(addr), tag_of(addr)) != nullptr;
}

const u8* Cache::peek_line(Addr addr) const {
  const Way* w = find(set_of(addr), tag_of(addr));
  if (w == nullptr) return nullptr;
  return slot_data(static_cast<std::size_t>(w - ways_.data()));
}

bool Cache::dirty(Addr addr) const {
  const Way* w = find(set_of(addr), tag_of(addr));
  return w != nullptr && w->dirty;
}

void Cache::flush(std::vector<DirtyLine>* dirty_out) {
  ++stats_.flushes;
  ++gen_;
  for (u32 set = 0; set < cfg_.num_sets(); ++set) {
    for (u32 w = 0; w < cfg_.ways; ++w) {
      const std::size_t i = static_cast<std::size_t>(set) * cfg_.ways + w;
      Way& way = ways_[i];
      if (way.valid && way.dirty && way.poisoned) {
        ++stats_.parity_discards;  // damaged data never reaches memory
      } else if (way.valid && way.dirty && dirty_out != nullptr) {
        DirtyLine d;
        d.addr = line_base(set, way.tag);
        d.data.assign(slot_data(i), slot_data(i) + cfg_.line_bytes);
        dirty_out->push_back(std::move(d));
      }
      way = Way{};
    }
  }
}

bool Cache::invalidate_line(Addr addr, DirtyLine* dirty_out) {
  if (Way* w = find(set_of(addr), tag_of(addr))) {
    const std::size_t i = static_cast<std::size_t>(w - ways_.data());
    if (w->dirty && w->poisoned) {
      ++stats_.parity_discards;
    } else if (w->dirty && dirty_out != nullptr) {
      dirty_out->addr = line_base(set_of(addr), w->tag);
      dirty_out->data.assign(slot_data(i), slot_data(i) + cfg_.line_bytes);
    }
    *w = Way{};
    ++gen_;
    return true;
  }
  return false;
}

bool Cache::poison_line(Addr addr, u32 byte_off, u8 bit) {
  Way* w = find(set_of(addr), tag_of(addr));
  if (w == nullptr) return false;
  const std::size_t i = static_cast<std::size_t>(w - ways_.data());
  slot_data(i)[byte_off % cfg_.line_bytes] ^= static_cast<u8>(1u << (bit % 8));
  w->poisoned = true;
  ++gen_;
  return true;
}

u32 Cache::valid_lines() const {
  u32 n = 0;
  for (const Way& w : ways_) n += w.valid ? 1 : 0;
  return n;
}

namespace {
constexpr u32 kCacheTag = snap_tag("CACH");
}  // namespace

void Cache::save_state(SnapWriter& w) const {
  w.tag(kCacheTag);
  w.u32v(cfg_.size_bytes);
  w.u32v(cfg_.line_bytes);
  w.u32v(cfg_.ways);
  w.u8v(static_cast<u8>(cfg_.replacement));
  w.u8v(static_cast<u8>(cfg_.write_policy));
  w.u64v(ways_.size());
  for (const Way& way : ways_) {
    w.b(way.valid);
    w.b(way.dirty);
    w.b(way.poisoned);
    w.u32v(way.tag);
    w.u64v(way.lru);
  }
  w.bytes(data_);
  w.u64v(stats_.read_hits);
  w.u64v(stats_.read_misses);
  w.u64v(stats_.write_hits);
  w.u64v(stats_.write_misses);
  w.u64v(stats_.evictions);
  w.u64v(stats_.writebacks);
  w.u64v(stats_.flushes);
  w.u64v(stats_.parity_recoveries);
  w.u64v(stats_.parity_discards);
  u64 rng_state[4];
  rng_.get_state(rng_state);
  for (u64 s : rng_state) w.u64v(s);
  w.u64v(tick_);
}

bool Cache::load_state(SnapReader& r) {
  if (!r.expect(kCacheTag)) return false;
  const bool geometry_ok =
      r.u32v() == cfg_.size_bytes && r.u32v() == cfg_.line_bytes &&
      r.u32v() == cfg_.ways && r.u8v() == static_cast<u8>(cfg_.replacement) &&
      r.u8v() == static_cast<u8>(cfg_.write_policy) && r.u64v() == ways_.size();
  if (!geometry_ok || !r.ok()) return false;
  for (Way& way : ways_) {
    way.valid = r.b();
    way.dirty = r.b();
    way.poisoned = r.b();
    way.tag = r.u32v();
    way.lru = r.u64v();
  }
  Bytes data = r.bytes();
  if (data.size() != data_.size()) return false;
  data_ = std::move(data);
  stats_.read_hits = r.u64v();
  stats_.read_misses = r.u64v();
  stats_.write_hits = r.u64v();
  stats_.write_misses = r.u64v();
  stats_.evictions = r.u64v();
  stats_.writebacks = r.u64v();
  stats_.flushes = r.u64v();
  stats_.parity_recoveries = r.u64v();
  stats_.parity_discards = r.u64v();
  u64 rng_state[4];
  for (u64& s : rng_state) s = r.u64v();
  rng_.set_state(rng_state);
  tick_ = r.u64v();
  ++gen_;  // anything memoized against the old contents is now stale
  return r.ok();
}

}  // namespace la::cache
