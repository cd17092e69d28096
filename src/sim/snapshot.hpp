// Versioned deep snapshot/restore of a full LiquidSystem (the robustness
// layer under warm-start pools, drain-on-fault job retry, and the fuzzer's
// deep replay).
//
// A SystemSnapshot is the architectural-config and dynamic-state sections
// of a node (system, pipeline+caches, memories, bus, peripherals,
// watchdog, wrappers, controller) plus the memory pages they reference.
// The SRAM and SDRAM are copy-on-write page stores (mem/paged_memory.hpp):
// a capture shares their resident 4 KiB pages instead of copying them, and
// pages never written are not held at all, so a snapshot costs the state
// sections plus a pointer per page the node has touched.  serialize()
// turns it into one self-describing blob for crossing a process boundary:
//
//   magic "LASN" | format version | state sections | page contents |
//   FNV-1a checksum
//
// The capture is *complete* for everything architecturally observable: CPU
// windows/PSR/WIM/Y/ASRs, wedge and error flags, pipeline latches, both
// caches (tags, LRU, parity, line data, replacement RNG), SRAM/SDRAM
// contents with parity shadows, open-row registers, peripheral registers,
// the watchdog deadline, the leon_ctrl state machine, queued responses,
// and the cycle counter — so `run(N)` is bit-identical to `run(k);
// snapshot; restore; run(N-k)` on any system built from a compatible
// SystemConfig (the snapshot-identity property test enforces exactly
// this across the fast-path and flight-recorder grid).
//
// Host-side accelerator state (predecoded I-line mirrors, the AHB
// decode memo) is deliberately NOT captured: it is rebuilt on demand
// and a snapshot taken with host fast paths on restores bit-identically
// into a system running with them off, and vice versa.  The flight
// recorder ring is also host-side observability and stays with the
// restoring system.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"

namespace la::sim {

struct SystemSnapshot {
  static constexpr u32 kMagic = snap_tag("LASN");
  static constexpr u32 kVersion = 3;

  /// Every section in capture order; the SRAM and SDRAM sections name
  /// their resident pages by index into `pages`.
  Bytes state;
  /// Those pages, shared with the capturing node until it next writes
  /// them and with every other snapshot that saw them unchanged.
  std::vector<PageRef> pages;

  bool empty() const { return state.empty(); }
  /// Bytes this snapshot references (shared pages counted in full).
  std::size_t size_bytes() const {
    return state.size() + pages.size() * kPageBytes;
  }

  /// The cross-process wire format: header, state, page contents,
  /// checksum.  Write it to a file, read it back, deserialize(), restore().
  Bytes serialize() const;

  /// Header/checksum validation of a serialized blob without a full parse.
  /// `err` (optional) receives a one-line reason on failure.
  static bool validate(const Bytes& blob, std::string* err = nullptr);

  /// Parse a serialized blob (validates first).
  static std::optional<SystemSnapshot> deserialize(const Bytes& blob,
                                                   std::string* err = nullptr);
};

/// Shared warm-start pool: snapshot per key ("boot|<arch>" for post-boot
/// images, "prog|<arch>|<digest>" for post-load images), first writer wins.
/// The pool holds at most kBudget bytes, charging each entry its
/// size_bytes() — a page shared by several entries is charged to each, an
/// upper bound on what the pool pins — and evicts the least recently used
/// entries beyond that.  Thread-safe; snapshots are immutable once
/// published, so readers share them by shared_ptr, and an evicted snapshot
/// lives on for any reader still restoring from it.
class SnapshotPool {
 public:
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 inserts = 0;
    u64 evictions = 0;
  };

  static constexpr std::size_t kBudget = std::size_t{64} << 20;

  /// Snapshot for `key`, or null (counts a hit/miss; a hit makes the
  /// entry the most recently used).
  std::shared_ptr<const SystemSnapshot> get(const std::string& key);

  /// Publish a snapshot for `key`.  An existing entry wins (the first
  /// capture is as good as any later one and racing writers must agree).
  /// Evicts least recently used entries until the pool fits its budget.
  void put(const std::string& key, SystemSnapshot snap);

  bool contains(const std::string& key) const;
  std::size_t size() const;
  /// Bytes charged: the sum of the entries' size_bytes().
  std::size_t bytes() const;
  Stats stats() const;

 private:
  using Lru = std::list<std::string>;  // front = most recently used
  struct Entry {
    std::shared_ptr<const SystemSnapshot> snap;
    Lru::iterator lru;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> pool_;
  Lru lru_;
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace la::sim
