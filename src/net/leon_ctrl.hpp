// The Control Packet Processor and leon_ctrl state machine (Fig 3, §3.1).
//
// The CPP routes UDP traffic arriving on the LEON control port into the
// controller; everything else would flow on to other FPX modules (we count
// it).  The controller is the paper's "external circuitry" (Fig 6): it
// loads programs into SRAM through the user port while the processor is
// disconnected, plants the start address in the mailbox word, watches the
// processor's address bus for the return to the boot ROM's polling loop,
// and answers with response packets via the packet generator.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "common/snapio.hpp"
#include "mem/disconnect.hpp"
#include "net/commands.hpp"
#include "net/packet.hpp"

namespace la::net {

/// Response packets waiting to leave through the wrappers.  The queue is
/// bounded (hardware has finite buffer RAM): when a response would exceed
/// `max_queue` the oldest queued response is dropped — it is the one the
/// client has most likely already given up on — and counted.
class PacketGenerator {
 public:
  PacketGenerator(Ipv4Addr node_ip, u16 node_port,
                  std::size_t max_queue = kDefaultMaxQueue)
      : node_ip_(node_ip), node_port_(node_port), max_queue_(max_queue) {}

  static constexpr std::size_t kDefaultMaxQueue = 64;

  /// Queue a response to `dst`.
  void emit(Ipv4Addr dst_ip, u16 dst_port, ResponseCode code,
            Bytes payload = {});

  std::optional<UdpDatagram> pop();
  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::size_t max_queue() const { return max_queue_; }
  u64 emitted() const { return emitted_; }
  u64 responses_dropped() const { return responses_dropped_; }

  /// Snapshot support: queued (not yet popped) responses plus counters.
  /// The node identity (ip/port/max_queue) stays with the restoring
  /// instance, so a snapshot restored onto another node answers from that
  /// node's own address.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("PGEN"));
    w.u64v(queue_.size());
    for (const UdpDatagram& d : queue_) {
      w.u32v(d.src_ip);
      w.u32v(d.dst_ip);
      w.u16v(d.src_port);
      w.u16v(d.dst_port);
      w.bytes(d.payload);
    }
    w.u64v(emitted_);
    w.u64v(responses_dropped_);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("PGEN"))) return false;
    queue_.clear();
    for (u64 i = 0, n = r.u64v(); i < n && r.ok(); ++i) {
      UdpDatagram d;
      d.src_ip = r.u32v();
      d.dst_ip = r.u32v();
      d.src_port = r.u16v();
      d.dst_port = r.u16v();
      d.payload = r.bytes();
      queue_.push_back(std::move(d));
    }
    emitted_ = r.u64v();
    responses_dropped_ = r.u64v();
    return r.ok();
  }

 private:
  Ipv4Addr node_ip_;
  u16 node_port_;
  std::size_t max_queue_;
  std::deque<UdpDatagram> queue_;
  u64 emitted_ = 0;
  u64 responses_dropped_ = 0;
};

struct LeonCtrlConfig {
  Addr mailbox = 0x40000000;       // polled program-address word
  Addr check_ready = 0x40;         // boot ROM polling loop entry
  Addr load_min = 0x40000004;      // loads must stay inside SRAM
  Addr load_max = 0x400fffff;
  /// PCs at or above this are user code; completion detection only arms
  /// after the processor has been observed executing out there (otherwise
  /// the poll loop's own visit to check_ready would read as "returned").
  Addr user_code_min = 0x40000000;
};

class LeonController {
 public:
  using ResetCpu = std::function<void()>;
  using Now = std::function<Cycles()>;

  /// `now` reads the node clock so the controller can time runs (the
  /// hardware cycle-counting state machine of §4); may be null.
  LeonController(const LeonCtrlConfig& cfg, mem::DisconnectSwitch& sw,
                 PacketGenerator& gen, ResetCpu reset_cpu,
                 Now now = nullptr);

  /// Handle one control datagram (already filtered to the control port).
  void handle(const UdpDatagram& d);

  /// Called by the system after every processor step with the PC of the
  /// instruction just executed (the circuit "probes LEON's address bus").
  void on_cpu_pc(Addr pc);

  LeonState state() const { return state_; }
  /// on_cpu_pc acts only on PCs below this while Running (completion);
  /// every PC at or above it just arms the completion watch.
  Addr user_code_min() const { return cfg_.user_code_min; }

  /// Cycles from the last Start command to the program's return to the
  /// polling loop (valid once state reaches kDone; 0 before any run).
  Cycles last_run_cycles() const { return last_run_cycles_; }

  /// Debug hook of §4.1: force the state machine into an error state; an
  /// error packet is transmitted to the last requester.
  void force_error(u8 code);

  /// Watchdog expiry: the running program blew its cycle budget.  Drives
  /// the §4.1 error path — the processor is unplugged (it may be wedged;
  /// only RESTART revives it), the mailbox is cleared, and an unsolicited
  /// 0xff/kWatchdogTrip packet goes to the last requester.  STATUS and
  /// RESTART keep working throughout: the controller is external circuitry
  /// and never depends on the CPU.
  void watchdog_trip();

  /// Serialized metrics snapshot (UTF-8 JSON) returned for the
  /// STATS_SNAPSHOT command.  Wired by the system that owns the metrics
  /// registry; unset, the command answers with error 0x41.
  using StatsProvider = std::function<Bytes()>;
  void set_stats_provider(StatsProvider p) {
    stats_provider_ = std::move(p);
  }

  /// Serialized metrics *delta* (UTF-8 JSON, the window since the previous
  /// STATS_STREAM poll) for the STATS_STREAM command.  Unset: error 0x41.
  using DeltaProvider = std::function<Bytes()>;
  void set_delta_provider(DeltaProvider p) { delta_provider_ = std::move(p); }

  /// Serialized flight-recorder dump (UTF-8 JSON) for the FLIGHT_DUMP
  /// command.  Unset, the command answers with error 0x42.
  using FlightProvider = std::function<Bytes()>;
  void set_flight_provider(FlightProvider p) {
    flight_provider_ = std::move(p);
  }

  /// Observes every state-machine transition (old, new), after the state
  /// changes but before the response packet is emitted.  The system uses
  /// it to record transitions in the flight recorder and to auto-dump on
  /// entry to kError.
  using StateObserver = std::function<void(LeonState, LeonState)>;
  void set_state_observer(StateObserver o) { state_observer_ = std::move(o); }

  struct Stats {
    u64 commands = 0;
    u64 bad_commands = 0;
    u64 chunks_loaded = 0;
    u64 duplicate_chunks = 0;
    u64 programs_started = 0;
    u64 programs_completed = 0;
    u64 watchdog_trips = 0;
    u64 parity_read_errors = 0;  // READ_MEMORY refused on bad parity
    u64 stream_polls = 0;        // STATS_STREAM commands answered
    u64 stream_replays = 0;      // of which: cached windows re-served
    u64 flight_dumps = 0;        // FLIGHT_DUMP commands answered
  };
  const Stats& stats() const { return stats_; }

  /// Snapshot support: the full state machine — phase, load tracking,
  /// requester address, run timing, counters.  Callbacks and providers
  /// stay with the restoring instance.  Restore sets state_ directly
  /// without notifying the state observer (a restore is not a
  /// transition).
  void save_state(SnapWriter& w) const;
  bool load_state(SnapReader& r);

 private:
  void respond(ResponseCode code, Bytes payload = {});
  void respond_status();
  void respond_error(u8 code);
  void handle_load(ByteReader& r);
  void handle_start(ByteReader& r);
  void handle_read(ByteReader& r);
  void handle_restart();
  void handle_stats_snapshot();
  void handle_stats_stream(ByteReader& r);
  void handle_flight_dump();
  /// The one place state_ changes: notifies the state observer.
  void set_state(LeonState next);

  LeonCtrlConfig cfg_;
  mem::DisconnectSwitch& sw_;
  PacketGenerator& gen_;
  ResetCpu reset_cpu_;
  Now now_;
  Cycles run_started_at_ = 0;
  Cycles last_run_cycles_ = 0;

  LeonState state_ = LeonState::kIdle;
  bool seen_user_code_ = false;  // armed once the CPU leaves the boot ROM
  // Multi-packet load tracking.
  u8 expected_packets_ = 0;
  std::vector<bool> received_;
  u32 received_count_ = 0;
  // Requester of the most recent command (responses go back there).
  Ipv4Addr client_ip_ = 0;
  u16 client_port_ = 0;
  /// Recent sequenced STATS_STREAM windows (seq -> exact response bytes),
  /// newest at the back.  Deep enough that a duplicate of the previous
  /// poll — the common reorder distance — always replays from cache.
  static constexpr std::size_t kStreamCacheWindows = 4;
  std::deque<std::pair<u32, Bytes>> stream_cache_;
  StatsProvider stats_provider_;
  DeltaProvider delta_provider_;
  FlightProvider flight_provider_;
  StateObserver state_observer_;
  Stats stats_;
};

/// Routes ingress datagrams: control traffic to the controller, the rest
/// onward (counted; other FPX modules are out of scope).
class ControlPacketProcessor {
 public:
  explicit ControlPacketProcessor(LeonController& ctrl) : ctrl_(ctrl) {}

  void ingress(const UdpDatagram& d) {
    if (d.dst_port == kLeonControlPort) {
      ++control_;
      ctrl_.handle(d);
    } else {
      ++passthrough_;
    }
  }

  u64 control_packets() const { return control_; }
  u64 passthrough_packets() const { return passthrough_; }

  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("CPP "));
    w.u64v(control_);
    w.u64v(passthrough_);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("CPP "))) return false;
    control_ = r.u64v();
    passthrough_ = r.u64v();
    return r.ok();
  }

 private:
  LeonController& ctrl_;
  u64 control_ = 0;
  u64 passthrough_ = 0;
};

}  // namespace la::net
