// Parameterized set-associative cache model with line data storage.
//
// This is the structure the paper's headline experiment reconfigures: the
// LEON2 data cache (direct-mapped, write-through, no-allocate) swept from
// 1 KB to 16 KB with 32-byte lines.  The model keeps both tags and line
// data, so stale-data effects are faithful: a write performed behind the
// processor's back (the leon_ctrl/user path of Fig 6) stays invisible
// until the line is flushed — which is why the paper's modified boot ROM
// executes a `flush` inside its mailbox polling loop (Fig 5).
//
// Beyond the LEON scheme, write-back/allocate and multi-way LRU/random
// configurations are implemented as liquid-architecture extension points
// (Section 1 lists variable cache schemes as the motivating
// reconfiguration axis).
#pragma once

#include <cassert>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"

namespace la::cache {

enum class WritePolicy : u8 {
  kWriteThroughNoAllocate,  // LEON2's scheme
  kWriteBackAllocate,       // extension
};

enum class Replacement : u8 {
  kLru,
  kRandom,
};

struct CacheConfig {
  u32 size_bytes = 1024;
  u32 line_bytes = 32;
  u32 ways = 1;  // LEON2 caches are direct-mapped
  Replacement replacement = Replacement::kLru;
  WritePolicy write_policy = WritePolicy::kWriteThroughNoAllocate;

  bool valid() const {
    return is_pow2(size_bytes) && is_pow2(line_bytes) && is_pow2(ways) &&
           line_bytes >= 4 && ways >= 1 &&
           static_cast<u64>(line_bytes) * ways <= size_bytes;
  }

  u32 num_lines() const { return size_bytes / line_bytes; }
  u32 num_sets() const { return num_lines() / ways; }
  u32 words_per_line() const { return line_bytes / 4; }
};

struct CacheStats {
  u64 read_hits = 0;
  u64 read_misses = 0;
  u64 write_hits = 0;
  u64 write_misses = 0;
  u64 evictions = 0;    // valid lines displaced by fills
  u64 writebacks = 0;   // dirty lines written back (write-back policy only)
  u64 flushes = 0;
  u64 parity_recoveries = 0;  // poisoned clean lines refetched from memory
  u64 parity_discards = 0;    // poisoned dirty lines lost (data gone)

  u64 reads() const { return read_hits + read_misses; }
  u64 writes() const { return write_hits + write_misses; }
  u64 accesses() const { return reads() + writes(); }
  u64 misses() const { return read_misses + write_misses; }
  double miss_ratio() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses()) /
                                 static_cast<double>(accesses());
  }
};

/// A dirty line expelled by flush or invalidation (write-back policy).
struct DirtyLine {
  Addr addr = 0;
  std::vector<u8> data;
};

/// What the pipeline must do to service one access.
struct AccessOutcome {
  bool hit = false;
  bool fill = false;       // fetch the line from memory into `data`
  bool writeback = false;  // write the dirty victim back first
  /// The access touched a poisoned DIRTY line whose only copy of the data
  /// was lost — the caller must raise a data-access fault (a clean
  /// poisoned line is silently refetched instead and never sets this).
  bool parity_discard = false;
  Addr line_addr = 0;      // line-aligned address of this access
  Addr victim_addr = 0;    // line-aligned victim address when writeback
  /// Storage of the (new) line inside the cache; null only for a
  /// write-through write miss (write-around, nothing allocated).
  /// When `writeback` is set this still holds the VICTIM's bytes — the
  /// caller must save them before filling.
  u8* data = nullptr;
  /// Slot index (set * ways + way) of `data` when non-null.  Callers that
  /// maintain per-slot side structures (the pipeline's predecoded I-line
  /// mirror) key them by this.
  u32 slot = 0;
};

/// Result of the hot-path hit probe (see Cache::lookup_hit).
struct HitRef {
  u8* data = nullptr;  // line storage; null = caller must use access()
  u32 slot = 0;        // slot index of the hit line
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg, u64 seed = 0);

  /// Look up (and update) the cache for an access at `addr`:
  ///   * read miss: a line is allocated (outcome.fill), the victim possibly
  ///     needs writing back first
  ///   * write, write-through: a hit exposes the line for update (the
  ///     caller also writes memory); a miss does not allocate
  ///   * write, write-back: miss allocates; the line is marked dirty
  AccessOutcome access(Addr addr, bool is_write);

  /// Lookup without disturbing replacement state or statistics.
  bool probe(Addr addr) const;
  /// Read-only view of a resident line's bytes (nullptr if absent).
  const u8* peek_line(Addr addr) const;
  /// The line holding `addr` is resident and dirty (write-back policy
  /// only), so invalidating it means a writeback.
  bool dirty(Addr addr) const;

  /// Invalidate everything.  Dirty lines are appended to `dirty_out` if
  /// provided (write-back policy); null discards them, which is correct
  /// for LEON's write-through caches.
  void flush(std::vector<DirtyLine>* dirty_out = nullptr);

  /// Invalidate one line if present (FLUSH instruction; coherence hook).
  /// A dirty victim is returned through `dirty_out` when given.
  bool invalidate_line(Addr addr, DirtyLine* dirty_out = nullptr);

  /// Fault injection: flip bit `bit` of the byte at `byte_off` inside the
  /// resident line holding `addr` and mark the line's parity bad.  Returns
  /// false when the line is not resident (nothing to poison).
  bool poison_line(Addr addr, u32 byte_off, u8 bit);

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Number of currently valid lines (test/diagnostic aid).
  u32 valid_lines() const;

  /// Hot-path probe for an ordinary read hit.  On a non-poisoned hit it
  /// updates LRU and statistics exactly as `access(addr, false)` would and
  /// returns the line storage + slot; in every other case (miss, poisoned
  /// line) it touches NOTHING and returns null data — the caller falls
  /// back to access(), which then observes the same pre-probe state.
  /// Forced inline: the pipeline's line tier serves D-cache read hits with
  /// no call.
  [[gnu::always_inline]] HitRef lookup_hit(Addr addr) {
    const u32 set = (static_cast<u32>(addr) >> line_shift_) & set_mask_;
    const u32 tag = static_cast<u32>(addr) >> tag_shift_;
    Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        if (way.poisoned) return {};
        way.lru = ++tick_;
        ++stats_.read_hits;
        const u32 slot = set * cfg_.ways + w;
        return {slot_data(slot), slot};
      }
    }
    return {};
  }

  /// Hot-path twin of `access(addr, true)` under the write-through,
  /// no-allocate policy (the caller checks the policy).  A resident line
  /// gets access()'s hit updates (tick, LRU, write_hits) and `line` is
  /// pointed at its storage for the caller's coherence write; an absent
  /// one gets its miss updates (tick, gen, write_misses) and `line` is
  /// null (write-around).  A resident but poisoned line returns false and
  /// touches nothing: the caller falls back to access(), which recovers it.
  [[gnu::always_inline]] bool write_through(Addr addr, u8*& line) {
    const u32 set = (static_cast<u32>(addr) >> line_shift_) & set_mask_;
    const u32 tag = static_cast<u32>(addr) >> tag_shift_;
    Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        if (way.poisoned) return false;
        way.lru = ++tick_;
        ++stats_.write_hits;
        line = slot_data(set * cfg_.ways + w);
        return true;
      }
    }
    ++tick_;
    ++gen_;
    ++stats_.write_misses;
    line = nullptr;
    return true;
  }

  /// Content generation: bumped whenever the cache itself changes a
  /// resident line's identity or contents (fill, flush, invalidate,
  /// poison).  A caller that observed a lookup_hit at generation G may
  /// re-hit the same slot for the same line without re-probing as long as
  /// gen() still equals G — nothing can have replaced, invalidated, or
  /// poisoned the line in between.  Plain hits (LRU/stats updates) do not
  /// bump it, and neither do caller writes through an outcome's data
  /// pointer — the contract is for read-only users (the pipeline's
  /// instruction side, where lines are never written).
  u64 gen() const { return gen_; }

  /// Re-hit a slot previously returned by lookup_hit, valid only under an
  /// unchanged gen(): performs exactly the LRU/statistics update the full
  /// probe would have, skipping the tag compare.
  void touch_read_hit(u32 slot) {
    ways_[slot].lru = ++tick_;
    ++stats_.read_hits;
  }
  /// `k` > 0 re-hits of one slot in a row, under the same condition:
  /// exactly the state k touch_read_hit(slot) calls leave.
  void touch_read_hits(u32 slot, u64 k) {
    tick_ += k;
    ways_[slot].lru = tick_;
    stats_.read_hits += k;
  }

  /// Snapshot support: full tag/LRU/parity/data/stats/replacement-RNG state.
  /// load_state requires identical geometry (the snapshot carries the
  /// config) and bumps gen() so any cached slot references are invalidated.
  void save_state(SnapWriter& w) const;
  bool load_state(SnapReader& r);

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    bool poisoned = false;  // line parity bad (injected fault)
    u32 tag = 0;
    u64 lru = 0;  // higher = more recently used
  };

  u32 set_of(Addr addr) const {
    return (static_cast<u32>(addr) >> line_shift_) & set_mask_;
  }
  u32 tag_of(Addr addr) const { return static_cast<u32>(addr) >> tag_shift_; }
  Addr line_base(u32 set, u32 tag) const {
    return static_cast<Addr>(((tag << set_shift_) | set)) << line_shift_;
  }
  u8* slot_data(std::size_t way_index) {
    return &data_[way_index * cfg_.line_bytes];
  }
  const u8* slot_data(std::size_t way_index) const {
    return &data_[way_index * cfg_.line_bytes];
  }

  Way* find(u32 set, u32 tag);
  const Way* find(u32 set, u32 tag) const;
  std::size_t choose_victim(u32 set);

  CacheConfig cfg_;
  // Geometry is all powers of two; these precomputed shifts/masks replace
  // the divisions in set/tag extraction on the per-access path.
  u32 line_shift_ = 0;  // log2(line_bytes)
  u32 set_shift_ = 0;   // log2(num_sets)
  u32 tag_shift_ = 0;   // line_shift_ + set_shift_
  u32 set_mask_ = 0;    // num_sets - 1
  std::vector<Way> ways_;  // num_sets * ways, set-major
  std::vector<u8> data_;   // line storage, parallel to ways_
  CacheStats stats_;
  Rng rng_;
  u64 tick_ = 0;
  u64 gen_ = 0;  // see gen()
};

}  // namespace la::cache
