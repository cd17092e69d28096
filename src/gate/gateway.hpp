// The UDP front door: one non-blocking socket, one epoll loop, and the
// multi-tenant control plane between remote clients and a LiquidFarm.
//
// This is Fig 1's "remote users" arrow made real: tenants reach the fleet
// over actual datagrams instead of in-process calls.  The gateway thread
// owns everything — socket, sessions, metrics — and alternates between
// draining the socket (admitting work) and draining the farm's result
// queue (pushing kResult frames back to wherever the tenant last spoke
// from).  The farm's result listener signals an eventfd in the loop's
// epoll set, so a finished job is pushed the moment the farm queues it.
// Admission control is layered, cheapest check first:
//
//   auth token -> request-id dedup -> token bucket (rate) -> in-flight
//   cap -> lifetime quota -> the farm's own typed admission (queue
//   bound, per-owner cap)
//
// and every refusal is explicit: a kRetryAfter with a reason and a
// backoff hint for transient pressure, a kGateError code for terminal
// ones.  Nothing is ever silently dropped by the gateway itself — only
// the wire loses frames, and the client's retry loop (same request id)
// plus the dedup tables make that loss invisible: duplicate submits
// re-answer from cache instead of re-running, so jobs execute exactly
// once no matter how the datagrams fared.
//
// Exactly-once + ordering audit: each tenant's finished jobs get a dense
// completion_seq in farm delivery order.  The farm's per-owner FIFO makes
// that submission order, so a client that tracks its own submit order can
// assert end to end — over a lossy wire — that results are exactly-once
// and in order.  tools/lload does exactly that at fleet scale.
#pragma once

#include <atomic>
#include <thread>
#include <unordered_map>

#include "common/metrics.hpp"
#include "farm/farm.hpp"
#include "gate/tenant.hpp"
#include "gate/udp.hpp"

namespace la::gate {

struct GateConfig {
  std::string bind_ip = "127.0.0.1";
  u16 port = 0;  // 0 = kernel-assigned; read it back from addr()
  /// Pre-shared secret the tenant token table derives from.
  u64 secret_seed = 0x11ced'a11ce;
  /// Tenants minted into the directory (t0000..tNNNN).
  u32 tenants = 16;
  TenantQuota quota;
  /// Floor for farm-saturation retry hints (the farm's own estimate is
  /// taken when larger).
  u32 retry_floor_ms = 5;
  /// Sessions silent this long are garbage-collected; their in-flight
  /// results become orphans (counted, dropped).
  double session_idle_ms = 120'000;
};

class Gateway {
 public:
  /// The farm must outlive the gateway.  Call start() to go live.
  Gateway(farm::LiquidFarm& farm, GateConfig cfg = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Bind the socket, become the farm's result listener and launch the
  /// loop thread; false when the bind fails (port taken, bad ip).
  bool start();

  /// Stop accepting, join the loop thread and clear the farm's result
  /// listener.  Idempotent; start() may follow.
  void stop();

  bool running() const { return running_; }
  /// The bound address (valid after start()).
  SockAddr addr() const { return addr_; }
  const TenantDirectory& tenants() const { return dir_; }

  /// The gate.* metrics, frozen.  Only meaningful after stop() — while
  /// the loop runs, the registry belongs to the gateway thread alone
  /// (live numbers travel the wire via kGateStats instead).
  metrics::Snapshot final_metrics() const { return metrics_.snapshot(); }

 private:
  struct PendingJob {
    u64 token = 0;       // session the result belongs to
    u64 request_id = 0;  // client's id, echoed on the kResult push
    u64 trace_id = 0;
    u64 span_id = 0;
    double accepted_ms = 0;  // gate.job_ms measures from here
  };

  void run_();
  void handle_datagram_(const SockAddr& from, const Bytes& data);
  void handle_hello_(const SockAddr& from, const GateFrame& f);
  void handle_submit_(const SockAddr& from, const GateFrame& f,
                      Session& session);
  void handle_poll_(const SockAddr& from, const GateFrame& f,
                    Session& session);
  void handle_stats_(const SockAddr& from, const GateFrame& f);
  void handle_bye_(const SockAddr& from, const GateFrame& f,
                   Session& session);
  void drain_farm_();
  void gc_sessions_(double now_ms);

  void send_(const SockAddr& to, GateKind kind, const GateFrame& req,
             Bytes payload);
  void send_error_(const SockAddr& to, const GateFrame& req, u8 code);
  void send_retry_(const SockAddr& to, const GateFrame& req, u8 reason,
                   u32 after_ms);

  farm::LiquidFarm& farm_;
  GateConfig cfg_;
  TenantDirectory dir_;
  UdpSocket sock_;
  Epoll epoll_;
  // Registered in epoll_ once, for every start()/stop() cycle: the farm's
  // result listener and stop() signal it to wake the loop.
  EventFd wake_;
  SockAddr addr_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  // Everything below is owned by the loop thread once start() returns.
  std::unordered_map<u64, Session> sessions_;  // token -> session
  std::unordered_map<u64, PendingJob> jobs_;   // farm job id -> origin
  bool admitted_ = false;  // jobs submitted since the farm was last woken
  u64 span_counter_ = 0;  // gateway-minted span ids for traced jobs
  metrics::MetricsRegistry metrics_;
};

}  // namespace la::gate
