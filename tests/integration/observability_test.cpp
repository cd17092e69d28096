// The observability PR's acceptance scenario, end to end.
//
// A farm job lands on a node armed with a flight recorder and a watchdog;
// an injected fault wedges the CPU mid-run; the watchdog trips.  The job's
// outcome must carry a black-box dump showing the wedge PC and the
// control-plane error transition, and the fleet span log must tell the
// job's causal story — queue wait through reconfiguration and run to the
// error — under one trace id.  Plus the client-level telemetry commands
// (STATS_STREAM delta windows, FLIGHT_DUMP), and the tracer's contract:
// it observes the node without changing what the node simulates.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "ctrl/client.hpp"
#include "farm/farm.hpp"
#include "fault/injector.hpp"
#include "liquid/reconfig_server.hpp"
#include "net/commands.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::test {
namespace {

sasm::Image loop_program() {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      mov 400, %o1
      mov 0, %o2
  loop:
      add %o2, %o1, %o2
      subcc %o1, 1, %o1
      bne loop
      nop
      set result, %g1
      st %o2, [%g1]
      jmp 0x40
      nop
      .align 4
  result: .skip 4
  )");
}

TEST(Observability, StatsDeltaWindowsShrinkBetweenPolls) {
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  ctrl::LiquidClient client(node);

  // First poll: everything since boot (a busy window).
  const auto first = client.stats_delta();
  ASSERT_TRUE(first) << first.error().to_string();
  EXPECT_EQ(first->find("{\"cycle\":"), 0u);
  EXPECT_NE(first->find("cpu.instructions"), std::string::npos);

  // Second poll immediately after: the window covers only the handful of
  // steps the first poll itself pumped — a much smaller cycle delta.
  const auto second = client.stats_delta();
  ASSERT_TRUE(second) << second.error().to_string();
  const auto cycle_of = [](const std::string& json) {
    return std::strtoull(json.c_str() + std::string("{\"cycle\":").size(),
                         nullptr, 10);
  };
  EXPECT_LT(cycle_of(*second), cycle_of(*first));
}

TEST(Observability, FlightDumpCommandNeedsARecorder) {
  {
    sim::LiquidSystem bare((sim::SystemConfig()));
    bare.run(300);
    ctrl::LiquidClient client(bare);
    const auto dump = client.flight_dump();
    ASSERT_FALSE(dump);
    EXPECT_EQ(dump.error().node_code, net::err::kNoRecorder);
  }
  {
    sim::SystemConfig cfg;
    cfg.flight_recorder = true;
    sim::LiquidSystem armed(cfg);
    armed.run(300);
    ctrl::LiquidClient client(armed);
    const auto dump = client.flight_dump();
    ASSERT_TRUE(dump) << dump.error().to_string();
    EXPECT_NE(dump->find("\"reason\":\"remote_dump\""), std::string::npos);
    EXPECT_NE(dump->find("\"events\":["), std::string::npos);
  }
}

TEST(Observability, RunProgramEmitsLoadAndRunSpans) {
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  ctrl::LiquidClient client(node);

  trace::SpanLog log;
  trace::JobTrace jt;
  jt.log = &log;
  jt.ctx = log.mint();
  client.set_job_trace(jt);
  ASSERT_TRUE(client.run_program(loop_program(), 2'000'000));

  // The client emitted load + run spans under the job's trace.
  std::set<std::string> names;
  for (const auto& s : log.spans()) {
    EXPECT_EQ(s.trace_id, jt.ctx.trace_id);
    names.insert(s.name);
  }
  EXPECT_EQ(names.count("load"), 1u);
  EXPECT_EQ(names.count("run"), 1u);
}

TEST(Observability, TracingDoesNotMoveTheSimulation) {
  const auto img = loop_program();

  // One job through the reconfiguration server on a fresh node.
  const auto server_run = [&](bool traced) {
    sim::LiquidSystem node((sim::SystemConfig()));
    node.run(100);
    liquid::SynthesisModel syn;
    liquid::ReconfigurationCache cache;
    liquid::ReconfigurationServer server(node, cache, syn);
    trace::SpanLog log;
    trace::JobTrace jt;
    if (traced) {
      jt.log = &log;
      jt.ctx = log.mint();
    }
    const liquid::JobResult r = server.run_job(
        liquid::ArchConfig{}, img, img.symbol("result"), 1, nullptr, jt);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(log.size() > 0, traced);
    return std::tuple{r.cycles, r.readback,
                      node.cpu().dcache().stats().read_misses,
                      node.cpu().stats().instructions};
  };
  EXPECT_EQ(server_run(true), server_run(false));

  // A one-node farm: the first run captures the post-LOAD snapshot, the
  // next two restore it.
  const auto farm_runs = [&](bool tracing) {
    farm::FarmConfig fc;
    fc.nodes = 1;
    fc.tracing = tracing;
    farm::LiquidFarm f(fc);
    std::vector<std::pair<Cycles, std::vector<u32>>> runs;
    for (int i = 0; i < 3; ++i) {
      farm::FarmJob job;
      job.owner = "passive";
      job.program = img;
      job.result_addr = img.symbol("result");
      job.result_words = 1;
      EXPECT_TRUE(f.submit(std::move(job)));
      f.drain();
      const auto out = f.pop_result();
      if (!out.has_value()) return runs;
      EXPECT_TRUE(out->result.ok) << out->result.error;
      EXPECT_EQ(out->result.warm_start, i > 0);
      runs.emplace_back(out->result.cycles, out->result.readback);
    }
    EXPECT_EQ(f.span_log().size() > 0, tracing);
    return runs;
  };
  const auto traced = farm_runs(true);
  ASSERT_EQ(traced.size(), 3u);
  EXPECT_EQ(traced, farm_runs(false));
}

TEST(Observability, NodeEpisodesSpanTheMeasuredWindow) {
  trace::SpanLog log;  // outlives the node it is attached to
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  trace::JobTrace jt;
  jt.log = &log;
  jt.ctx = log.mint();
  node.set_job_trace(jt);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.run_program(loop_program(), 2'000'000));

  std::vector<trace::Span> loads, runs;
  for (const auto& s : log.spans()) {
    EXPECT_EQ(s.trace_id, jt.ctx.trace_id);
    EXPECT_LE(s.cycle_start, s.cycle);
    if (s.name == "program.load") loads.push_back(s);
    if (s.name == "program.run") runs.push_back(s);
  }
  ASSERT_EQ(loads.size(), 1u);
  ASSERT_EQ(runs.size(), 1u);
  // The run span is the paper's measurement: Start to the return into the
  // polling loop, as leon_ctrl's cycle counter reports it.
  EXPECT_GT(node.controller().last_run_cycles(), 0u);
  EXPECT_EQ(runs[0].cycle - runs[0].cycle_start,
            node.controller().last_run_cycles());
  EXPECT_LE(loads[0].cycle, runs[0].cycle_start);
}

TEST(Observability, WedgedFarmJobLeavesACausalTraceAndABlackBox) {
  const auto img = loop_program();

  farm::FarmConfig fc;
  fc.nodes = 1;
  fc.autostart = false;  // workers gate until start(): safe node access
  fc.tracing = true;
  // This scenario is about what a *delivered* failure leaves behind; the
  // self-healing retry path (tests/farm/farm_heal_test.cpp) would rescue
  // the job and erase the evidence, so turn it off.
  fc.max_job_retries = 0;
  fc.node_template.watchdog_budget = 20'000;
  fc.node_template.flight_recorder = true;
  farm::LiquidFarm f(fc);

  // Wedge the CPU permanently the moment the program reaches its loop;
  // only the watchdog can turn that into something observable.
  fault::FaultPlan plan;
  plan.events.push_back({{fault::TriggerKind::kPc, img.symbol("loop")},
                         {fault::FaultSite::kCpuWedge, 0, 1, 1, 0}});
  fault::FaultInjector inj(f.node_for_setup(0), plan);

  farm::FarmJob job;
  job.owner = "acceptance";
  job.program = img;
  const auto id = f.submit(std::move(job));
  ASSERT_TRUE(id) << id.error().to_string();
  f.start();
  f.drain();

  const auto out = f.pop_result();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->result.ok);
  EXPECT_NE(out->trace_id, 0u);

  // The black box: the watchdog reason, the wedge PC, and the control
  // plane's transition into the error state, all in one dump.
  ASSERT_FALSE(out->flight_dump.empty());
  EXPECT_NE(out->flight_dump.find("\"reason\":\"watchdog\""),
            std::string::npos);
  EXPECT_NE(out->flight_dump.find("\"kind\":\"ctrl_state\""),
            std::string::npos);
  // The watchdog event's PC is inside the four-instruction wedge loop.
  char pc_hex[48];
  bool wedge_pc_seen = false;
  for (Addr pc = img.symbol("loop"); pc <= img.symbol("loop") + 12; pc += 4) {
    std::snprintf(pc_hex, sizeof(pc_hex), "\"kind\":\"watchdog\",\"a\":\"0x%llx\"",
                  static_cast<unsigned long long>(pc));
    wedge_pc_seen =
        wedge_pc_seen || out->flight_dump.find(pc_hex) != std::string::npos;
  }
  EXPECT_TRUE(wedge_pc_seen) << out->flight_dump;

  // The causal story: queue wait, the run, the error, and the job root —
  // every span under the outcome's trace id.
  std::set<std::string> names;
  for (const auto& s : f.span_log().spans()) {
    EXPECT_EQ(s.trace_id, out->trace_id);
    names.insert(s.name);
  }
  EXPECT_EQ(names.count("queue_wait"), 1u);
  EXPECT_EQ(names.count("run"), 1u);
  EXPECT_EQ(names.count("error"), 1u);
  EXPECT_EQ(names.count("job"), 1u);

  // The injected wedge actually fired (the scenario tested what it says).
  EXPECT_TRUE(inj.all_fired());
}

}  // namespace
}  // namespace la::test
