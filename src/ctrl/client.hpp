// The web-based control software's network core (Fig 4): builds command
// packets, ships them over an (unreliable) channel to the FPX, collects
// responses, and retries what the channel ate.  The Java servlet / UDP
// client of the paper collapses into this class; the "Java emulator of the
// hardware" role is played by the LiquidSystem itself.
//
// Every command has a hard outcome: a value, or a structured ClientError
// saying *why* it failed (deadline expired, retry budget exhausted, or the
// node itself reported an error such as a watchdog trip).  Retries back
// off exponentially in simulated time so a flaky channel is given longer
// and longer windows rather than being hammered at a fixed cadence.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/span_log.hpp"
#include "net/channel.hpp"
#include "net/commands.hpp"
#include "sasm/image.hpp"
#include "sim/liquid_system.hpp"

namespace la::ctrl {

struct ClientConfig {
  net::Ipv4Addr client_ip = net::make_ip(192, 168, 100, 1);
  u16 client_port = 40000;
  unsigned max_retries = 10;      // resends per command before giving up
  u64 pump_steps = 200;           // node instructions per wait round
  std::size_t load_chunk = 1024;  // bytes per Load-program packet
  /// Per-command deadline in node steps; 0 disables.  Backoff stops
  /// growing once the deadline would be exceeded and the command fails
  /// with kDeadline.
  u64 deadline_steps = 4'000'000;
  net::ChannelConfig uplink;    // client -> FPX
  net::ChannelConfig downlink;  // FPX -> client
};

enum class ClientErrorKind : u8 {
  kDeadline = 0,   // per-command deadline expired with no usable answer
  kGaveUp = 1,     // retry budget exhausted (node silent)
  kNodeError = 2,  // node answered 0xff; node_code says why
  kRejected = 3,   // node answered, but refused or contradicted the request
};

struct ClientError {
  ClientErrorKind kind = ClientErrorKind::kGaveUp;
  u8 node_code = 0;    // err:: payload byte when kind == kNodeError
  std::string detail;  // human-readable context ("start", "read 0x...", ...)

  std::string to_string() const;
};

/// Outcome of a value-returning command.  Mimics std::optional's access
/// surface (has_value / operator bool / * / ->) so existing call sites
/// keep compiling, but a failed Result also carries the ClientError.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(ClientError e) : error_(std::move(e)) {}        // NOLINT(runtime/explicit)

  bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }
  T& value() { return *value_; }
  const T& value() const { return *value_; }

  /// Only meaningful when !has_value().
  const ClientError& error() const { return error_; }

 private:
  std::optional<T> value_;
  ClientError error_;
};

/// Outcome of a command with no payload.  Bool-like for old call sites.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(ClientError e) : ok_(false), error_(std::move(e)) {}  // NOLINT

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }
  const ClientError& error() const { return error_; }

 private:
  bool ok_ = true;
  ClientError error_;
};

struct StatusReport {
  net::LeonState state = net::LeonState::kIdle;
  u8 total_packets = 0;
  u16 received_packets = 0;
};

class LiquidClient {
 public:
  LiquidClient(sim::LiquidSystem& node, ClientConfig cfg = {});

  /// LEON status command (retried).
  Result<StatusReport> status();

  /// Load a program image (multi-packet, per-chunk acks, missing chunks
  /// resent).  Success when the controller reports the load complete.
  Status load_program(const sasm::Image& img);

  /// Start execution at `entry`.
  Status start(Addr entry);

  /// Read back `words` 32-bit words from `addr`.
  Result<std::vector<u32>> read_memory(Addr addr, u16 words);

  /// Reset the node's processor and control state machine.
  Status restart();

  /// Poll the node's metrics registry (STATS_SNAPSHOT command); the
  /// response payload is the snapshot as UTF-8 JSON.
  Result<std::string> stats_snapshot();

  /// Poll the node's metrics *delta* window (STATS_STREAM command): the
  /// change since the previous stream poll, as UTF-8 JSON.  Periodic
  /// calls make a scrape loop.
  Result<std::string> stats_delta();

  /// Pull the node's flight-recorder ring (FLIGHT_DUMP command) as a JSON
  /// dump.  Fails with node code 0x42 when the node has no recorder.
  Result<std::string> flight_dump();

  /// Causal tracing: spans for the phases this client drives (load, run,
  /// error) are emitted into the given job trace, stamped with host µs and
  /// the node cycles each phase covered.  Nothing is sent to the node.  An
  /// inactive JobTrace (default) keeps everything a no-op.
  void set_job_trace(trace::JobTrace jt) { job_trace_ = std::move(jt); }
  const trace::JobTrace& job_trace() const { return job_trace_; }

  /// Convenience: load + start + run the node until leon_ctrl reports the
  /// program done (or `max_steps` node instructions pass).  A node that
  /// lands in the error state (e.g. watchdog trip) fails loudly with the
  /// node's error code rather than timing out.
  Status run_program(const sasm::Image& img, u64 max_steps = 10'000'000);

  /// The wait-for-completion tail of run_program(), exposed so callers
  /// that arranged the load themselves (warm-start restore of a post-load
  /// snapshot) can still drive execution: pumps the node until leon_ctrl
  /// reports kDone, failing loudly on kError (watchdog trip) or after
  /// `max_steps`.  Call after a successful start().
  Status await_done(u64 max_steps);

  /// Let simulated time pass: deliver queued frames, step the node, and
  /// collect its responses.
  void pump(u64 node_steps);

  /// Frames addressed to other host ports (e.g. streamed execution traces
  /// on net::kTracePort) are handed to this callback instead of being
  /// discarded.
  using ExtraFrameHandler = std::function<void(const net::UdpDatagram&)>;
  void set_extra_frame_handler(ExtraFrameHandler h) {
    extra_handler_ = std::move(h);
  }

  /// Drain everything currently queued on the downlink, dispatching
  /// non-control frames to the extra handler (stale control responses are
  /// discarded and counted).  Call after a run to collect trailing trace
  /// datagrams.
  void drain_downlink();

  struct Stats {
    u64 commands_sent = 0;
    u64 retries = 0;
    u64 responses = 0;
    u64 gave_up = 0;
    u64 stale_responses = 0;  // control responses nothing was waiting for
    u64 node_errors = 0;      // 0xff packets received
    u64 deadline_expiries = 0;
  };
  const Stats& stats() const { return stats_; }
  const net::Channel& uplink() const { return up_; }
  const net::Channel& downlink() const { return down_; }
  net::Channel& uplink_mut() { return up_; }
  net::Channel& downlink_mut() { return down_; }

 private:
  void send_command(Bytes payload);
  /// Next datagram addressed to this client; everything else on the
  /// downlink is dispatched to the extra handler along the way.
  std::optional<net::UdpDatagram> next_client_datagram();
  /// Pump until a response with `code` arrives; nullopt after the round
  /// budget is spent.  Other responses encountered are counted stale; a
  /// 0xff records the node's error code in `last_node_error_`.
  std::optional<Bytes> await(net::ResponseCode code, unsigned rounds);
  /// Rounds granted to retry `attempt` under exponential backoff with
  /// seeded jitter (advances jitter_rng_ for attempts > 0).
  unsigned rounds_for_attempt(unsigned attempt);
  /// Begin a fresh command: reset the deadline budget and error latch.
  void begin_command();
  bool deadline_exhausted() const {
    return cfg_.deadline_steps > 0 && steps_this_command_ >= cfg_.deadline_steps;
  }
  /// Build the failure for a command that ran out of retries/deadline.
  ClientError command_failure(std::string detail);

  sim::LiquidSystem& node_;
  ClientConfig cfg_;
  net::Channel up_;
  net::Channel down_;
  ExtraFrameHandler extra_handler_;
  trace::JobTrace job_trace_;
  Stats stats_;
  /// STATS_STREAM window counter: one id per stats_delta() call, shared
  /// by all of that call's retries (the idempotency key).
  u32 stream_seq_ = 0;
  Rng jitter_rng_;  // backoff jitter; see rounds_for_attempt()
  u64 steps_this_command_ = 0;
  std::optional<u8> last_node_error_;
};

}  // namespace la::ctrl
