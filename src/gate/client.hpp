// A tenant-side client for the gateway protocol, speaking real datagrams
// through a WanLink (so tests and tools exercise the wire under the same
// seeded impairments as everything else).
//
// The client owns reliability: UDP plus a hostile WAN profile loses,
// duplicates, and mangles frames, so every operation is retried under the
// SAME request id until a response lands — the gateway's dedup tables
// turn those retries into exactly-once execution.  kRetryAfter responses
// are honored by backing off for the hinted interval before resending.
//
// One client = one tenant = one socket.  tools/lload multiplexes
// thousands of tenants over a single socket instead (sessions key on the
// token, not the address) using the frame helpers here.
#pragma once

#include <unordered_map>

#include "gate/frame.hpp"
#include "gate/jobwire.hpp"
#include "gate/udp.hpp"

namespace la::gate {

/// Build a request frame (the one frame constructor the client-side mux
/// in lload shares with GateClient).
GateFrame make_request(GateKind kind, u64 token, u64 request_id,
                       Bytes payload = {}, u64 trace_id = 0,
                       u64 span_id = 0);

struct ClientConfig {
  SockAddr gateway;
  u64 token = 0;
  net::WanProfile wan;  // client-side impairments; default = clean link
  /// Per-attempt wait for a response before resending.
  double resend_after_ms = 30.0;
  /// Total per-operation deadline.
  double op_timeout_ms = 5000.0;
};

class GateClient {
 public:
  explicit GateClient(ClientConfig cfg);

  bool ok() const { return sock_.valid(); }

  /// HELLO until the session opens; nullopt on deadline or terminal
  /// error.
  std::optional<HelloOkWire> hello();

  /// Submit and wait for admission: kAccepted (or a cached kResult if
  /// the job already finished under this request id).  Retries through
  /// loss and honors retry-after backpressure.  Returns the final
  /// response frame; nullopt only on deadline.
  std::optional<GateFrame> submit(u64 request_id, const JobWire& job,
                                  u64 trace_id = 0, u64 span_id = 0);

  /// Wait for the job's completed ResultWire — consuming the unsolicited
  /// push when it survives the wire, polling it back when it doesn't.
  std::optional<ResultWire> await_result(u64 request_id);

  /// Gateway metrics snapshot JSON (kGateStats).
  std::optional<std::string> stats_json();

  /// Best-effort BYE (one confirmed round or deadline).
  void bye();

  /// Retry-after responses absorbed across all operations so far.
  u64 backoffs() const { return backoffs_; }

 private:
  /// Send `req` until a response with its request id arrives; honors
  /// kRetryAfter.  A reply wins over a result filed for the same id.
  std::optional<GateFrame> transact_(const GateFrame& req);
  void pump_(double wait_ms);  // poll the link, filing frames

  ClientConfig cfg_;
  UdpSocket sock_;
  WanLink link_;
  std::unordered_map<u64, GateFrame> inbox_;    // request id -> last reply
  std::unordered_map<u64, GateFrame> results_;  // request id -> last kResult
  u64 backoffs_ = 0;
};

}  // namespace la::gate
