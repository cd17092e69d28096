// GateClient against a scripted gateway: one loopback socket the test
// answers by hand, so the order in which frames reach the client is exact.
#include "gate/client.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace la::gate {
namespace {

/// The next frame on `sock` within `wait_ms` (nullopt: none, or garbage).
std::optional<GateFrame> recv_frame(UdpSocket& sock, SockAddr* from,
                                    double wait_ms) {
  const double deadline = steady_now_ms() + wait_ms;
  for (;;) {
    if (auto bytes = sock.recv_from(from)) return GateFrame::parse(*bytes);
    if (steady_now_ms() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The gateway pushes a result the moment the farm queues it, so a short
// job's kAccepted and its kResult can both be waiting when the client
// next reads.  submit() must still see the kAccepted, and await_result()
// must take the pushed result without polling for it.
TEST(GateClientTest, AcceptedAndResultInOneReadStayApart) {
  UdpSocket gw;
  ASSERT_TRUE(gw.bind("127.0.0.1", 0));
  ClientConfig cc;
  cc.gateway = gw.local_addr();
  cc.token = 7;
  cc.resend_after_ms = 300;  // a missing result is polled for after this
  cc.op_timeout_ms = 1000;
  GateClient c(cc);
  ASSERT_TRUE(c.ok());

  constexpr u64 kJob = 2;
  ResultWire done;
  done.status = ResultWire::kDone;
  done.words = {0xfeedfaceu};
  // Answer the HELLO, then queue the job's kAccepted and its result before
  // the client has even submitted it.
  std::thread gateway([&] {
    SockAddr client;
    const auto hello = recv_frame(gw, &client, 5000);
    if (!hello || hello->kind != GateKind::kHello) return;
    const auto send = [&](GateKind kind, u64 id, Bytes payload) {
      gw.send_to(client,
                 make_request(kind, cc.token, id, std::move(payload))
                     .serialize());
    };
    send(GateKind::kHelloOk, hello->request_id, HelloOkWire{}.serialize());
    send(GateKind::kAccepted, kJob, Bytes(8, 0));
    send(GateKind::kResult, kJob, done.serialize());
  });
  const auto hello = c.hello();
  gateway.join();
  ASSERT_TRUE(hello.has_value());

  const auto resp = c.submit(kJob, JobWire{});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->kind, GateKind::kAccepted);
  const auto r = c.await_result(kJob);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ResultWire::kDone);
  EXPECT_EQ(r->words, done.words);

  // The gateway saw the SUBMIT and nothing after it: no poll.
  SockAddr from;
  while (const auto f = recv_frame(gw, &from, 50)) {
    EXPECT_NE(f->kind, GateKind::kPoll);
  }
}

}  // namespace
}  // namespace la::gate
