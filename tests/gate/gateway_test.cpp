// Gateway integration over real loopback datagrams: a LiquidFarm behind
// the UDP front door, driven by GateClient — session lifecycle, admission
// refusals, exactly-once submission, and the same guarantees under a
// hostile WAN profile on the client's link.
#include <gtest/gtest.h>

#include "farm/workload.hpp"
#include "gate/client.hpp"
#include "gate/gateway.hpp"
#include "net/wan_profile.hpp"

namespace la::gate {
namespace {

class GatewayTest : public ::testing::Test {
 protected:
  void start(GateConfig gc = {}) {
    farm::FarmConfig fc;
    fc.nodes = 2;
    farm_ = std::make_unique<farm::LiquidFarm>(fc);
    gc.tenants = 4;
    gw_ = std::make_unique<Gateway>(*farm_, gc);
    ASSERT_TRUE(gw_->start());
  }

  ClientConfig client_cfg(u32 tenant) const {
    ClientConfig c;
    c.gateway = gw_->addr();
    c.token = gw_->tenants().token_of(tenant);
    return c;
  }

  JobWire next_job(u32* expected = nullptr) {
    farm::GeneratedJob g = gen_.next();
    if (expected) *expected = g.expected;
    JobWire w;
    w.config = g.job.config;
    w.program = g.job.program;
    w.result_addr = g.job.result_addr;
    w.result_words = g.job.result_words;
    return w;
  }

  std::unique_ptr<farm::LiquidFarm> farm_;
  std::unique_ptr<Gateway> gw_;
  farm::WorkloadGenerator gen_{farm::WorkloadConfig{/*seed=*/21}};
};

TEST_F(GatewayTest, HelloOpensSessionAndReportsQuota) {
  GateConfig gc;
  gc.quota.jobs_total = 1000;
  gc.quota.max_inflight = 8;
  gc.quota.rate_per_sec = 50;
  gc.quota.burst = 10;
  start(gc);
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.ok());
  const auto ok = c.hello();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->quota_remaining, 1000u);
  EXPECT_EQ(ok->max_inflight, 8u);
  EXPECT_EQ(ok->rate_per_sec, 50u);
  EXPECT_EQ(ok->burst, 10u);
}

TEST_F(GatewayTest, BadTokenIsRefused) {
  start();
  ClientConfig cc;
  cc.gateway = gw_->addr();
  cc.token = 0xdeadbeef;  // not in the directory
  cc.op_timeout_ms = 2000;
  GateClient c(std::move(cc));
  EXPECT_FALSE(c.hello().has_value());
}

TEST_F(GatewayTest, SubmitWithoutHelloGetsNoSession) {
  start();
  GateClient c(client_cfg(0));
  const auto resp = c.submit(2, next_job());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->kind, GateKind::kGateError);
  ASSERT_EQ(resp->payload.size(), 1u);
  EXPECT_EQ(resp->payload[0], err::kNoSession);
}

TEST_F(GatewayTest, JobsRunAndResultsMatchHostPrediction) {
  start();
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.hello().has_value());
  for (u64 i = 0; i < 4; ++i) {
    u32 expected = 0;
    const JobWire job = next_job(&expected);
    const u64 id = i + 2;
    const auto resp = c.submit(id, job);
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->kind == GateKind::kAccepted ||
                resp->kind == GateKind::kResult);
    const auto r = c.await_result(id);
    ASSERT_TRUE(r.has_value()) << "job " << i;
    EXPECT_EQ(r->status, ResultWire::kDone);
    ASSERT_FALSE(r->words.empty());
    EXPECT_EQ(r->words[0], expected);
    // Dense per-tenant completion order = submission order.
    EXPECT_EQ(r->completion_seq, static_cast<u32>(i));
  }
}

TEST_F(GatewayTest, DuplicateSubmitIsExactlyOnce) {
  start();
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.hello().has_value());
  const JobWire job = next_job();
  ASSERT_TRUE(c.submit(2, job).has_value());
  const auto first = c.await_result(2);
  ASSERT_TRUE(first.has_value());
  // Retransmitting the same request id must re-serve the cached result,
  // not run the job again.
  const auto dup = c.submit(2, job);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->kind, GateKind::kResult);
  const auto replay = ResultWire::parse(dup->payload);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->completion_seq, first->completion_seq);
  // A genuinely new id then gets the NEXT seq — nothing ran in between.
  ASSERT_TRUE(c.submit(3, next_job()).has_value());
  const auto second = c.await_result(3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->completion_seq, first->completion_seq + 1);
}

TEST_F(GatewayTest, RateLimitedSubmitsBackOffAndStillComplete) {
  GateConfig gc;
  gc.quota.rate_per_sec = 20;  // one token per 50ms...
  gc.quota.burst = 1;          // ...and no burst headroom
  start(gc);
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.hello().has_value());
  std::vector<u32> expected(4);
  for (u64 i = 0; i < 4; ++i) {
    const auto resp = c.submit(i + 2, next_job(&expected[i]));
    ASSERT_TRUE(resp.has_value());
  }
  // Back-to-back submits against a 1-token bucket must have eaten at
  // least one explicit kRetryAfter (never a silent drop).
  EXPECT_GT(c.backoffs(), 0u);
  for (u64 i = 0; i < 4; ++i) {
    const auto r = c.await_result(i + 2);
    ASSERT_TRUE(r.has_value()) << "job " << i;
    EXPECT_EQ(r->status, ResultWire::kDone);
    ASSERT_FALSE(r->words.empty());
    EXPECT_EQ(r->words[0], expected[i]);
  }
}

TEST_F(GatewayTest, LossyWanClientStillGetsExactlyOnceInOrder) {
  start();
  ClientConfig cc = client_cfg(1);
  // The full gauntlet on the client's own link: drop, duplicate,
  // reorder, corrupt, truncate, delay — both directions.
  cc.wan = net::wan_profile(net::WanProfileKind::kLossy).with_seed(33);
  cc.op_timeout_ms = 20'000;
  GateClient c(std::move(cc));
  ASSERT_TRUE(c.hello().has_value());
  for (u64 i = 0; i < 3; ++i) {
    u32 expected = 0;
    const JobWire job = next_job(&expected);
    const auto resp = c.submit(i + 2, job);
    ASSERT_TRUE(resp.has_value());
    const auto r = c.await_result(i + 2);
    ASSERT_TRUE(r.has_value()) << "job " << i;
    EXPECT_EQ(r->status, ResultWire::kDone);
    ASSERT_FALSE(r->words.empty());
    EXPECT_EQ(r->words[0], expected);
    EXPECT_EQ(r->completion_seq, static_cast<u32>(i));
  }
}

TEST_F(GatewayTest, StatsJsonTravelsTheWire) {
  start();
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.hello().has_value());
  ASSERT_TRUE(c.submit(2, next_job()).has_value());
  ASSERT_TRUE(c.await_result(2).has_value());
  const auto json = c.stats_json();
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("gate.accepted"), std::string::npos);
  EXPECT_NE(json->find("gate.results_pushed"), std::string::npos);
}

TEST_F(GatewayTest, ByeClosesTheSession) {
  start();
  GateClient c(client_cfg(0));
  ASSERT_TRUE(c.hello().has_value());
  c.bye();
  const auto resp = c.submit(2, next_job());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->kind, GateKind::kGateError);
  ASSERT_EQ(resp->payload.size(), 1u);
  EXPECT_EQ(resp->payload[0], err::kNoSession);
}

TEST_F(GatewayTest, ResultsArePushedWithoutAPoll) {
  start();
  ClientConfig cc = client_cfg(2);
  // Longer than the test: the client never resends, so never polls, and
  // only the gateway's push can deliver a result.
  cc.resend_after_ms = 60'000;
  cc.op_timeout_ms = 20'000;
  GateClient c(std::move(cc));
  ASSERT_TRUE(c.hello().has_value());
  constexpr u64 kJobs = 4;
  std::vector<u32> expected(kJobs);
  for (u64 i = 0; i < kJobs; ++i) {
    const auto resp = c.submit(i + 2, next_job(&expected[i]));
    ASSERT_TRUE(resp.has_value());
    // A push that lands in the same read as its kAccepted waits for
    // await_result(); the submit still sees its reply.
    EXPECT_EQ(resp->kind, GateKind::kAccepted);
  }
  for (u64 i = 0; i < kJobs; ++i) {
    const auto r = c.await_result(i + 2);
    ASSERT_TRUE(r.has_value()) << "job " << i;
    EXPECT_EQ(r->status, ResultWire::kDone);
    ASSERT_FALSE(r->words.empty());
    EXPECT_EQ(r->words[0], expected[i]);
    EXPECT_EQ(r->completion_seq, static_cast<u32>(i));
  }
  gw_->stop();
  const auto snap = gw_->final_metrics();
  EXPECT_EQ(snap.value_or("gate.polls"), 0.0);
  EXPECT_EQ(snap.value_or("gate.results_pushed"), static_cast<double>(kJobs));
}

TEST_F(GatewayTest, StopThenStartServesAgain) {
  start();
  {
    GateClient c(client_cfg(0));
    ASSERT_TRUE(c.hello().has_value());
    ASSERT_TRUE(c.submit(2, next_job()).has_value());
    ASSERT_TRUE(c.await_result(2).has_value());
  }
  gw_->stop();
  // Same gateway, same farm, a fresh socket: sessions survive the
  // restart and finished jobs still wake the loop.
  ASSERT_TRUE(gw_->start());
  GateClient c(client_cfg(0));
  u32 expected = 0;
  ASSERT_TRUE(c.submit(3, next_job(&expected)).has_value());
  const auto r = c.await_result(3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ResultWire::kDone);
  ASSERT_FALSE(r->words.empty());
  EXPECT_EQ(r->words[0], expected);
  EXPECT_EQ(r->completion_seq, 1u);
}

TEST_F(GatewayTest, FinalMetricsCountTheTraffic) {
  start();
  {
    GateClient c(client_cfg(0));
    ASSERT_TRUE(c.hello().has_value());
    ASSERT_TRUE(c.submit(2, next_job()).has_value());
    ASSERT_TRUE(c.await_result(2).has_value());
  }
  gw_->stop();
  const auto snap = gw_->final_metrics();
  EXPECT_GE(snap.value_or("gate.accepted"), 1.0);
  EXPECT_GE(snap.value_or("gate.results_pushed"), 1.0);
  EXPECT_EQ(snap.value_or("gate.rx_bad"), 0.0);
}

}  // namespace
}  // namespace la::gate
