// Network-streamed execution traces: the node instruments its pipeline,
// ships trace datagrams over the wire, and the host-side Trace Analyzer
// ingests them — the paper's Fig 2 trace path, end to end.
#include <gtest/gtest.h>

#include "ctrl/client.hpp"
#include "fault/injector.hpp"
#include "isa/decode.hpp"
#include "isa/encode.hpp"
#include "liquid/trace.hpp"
#include "net/trace_stream.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::test {
namespace {

sasm::Image strided_walk() {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set array, %o0
      set 4096, %o5
      mov 0, %o1
  loop:
      ld [%o0 + %o1], %o2
      add %o1, 128, %o1
      cmp %o1, %o5
      bl loop
      nop
      jmp 0x40
      nop
      .align 32
  array:
      .skip 4096
  )");
}

TEST(TraceStream, RecordRoundTripThroughWireFormat) {
  net::TraceReceiver rx;
  std::vector<net::TraceRecord> received;
  net::TraceStreamer tx(
      [&](Bytes payload) {
        for (const auto& t : rx.ingest(payload)) received.push_back(t);
      },
      /*batch=*/10);

  cpu::StepResult r;
  r.pc = 0x40000120;
  r.mem_access = true;
  r.mem_write = true;
  r.mem_addr = 0x40001000;
  r.ins = isa::decode(isa::encode_mem_ri(isa::Mnemonic::kSt, 1, 2, 0));
  for (int i = 0; i < 25; ++i) tx.on_step(r);
  tx.flush();

  EXPECT_EQ(tx.records_emitted(), 25u);
  EXPECT_EQ(tx.datagrams_emitted(), 3u);  // 10 + 10 + 5
  ASSERT_EQ(received.size(), 25u);
  EXPECT_EQ(received[0].pc, 0x40000120u);
  EXPECT_TRUE(received[0].mem_write);
  EXPECT_EQ(received[0].mem_addr, 0x40001000u);
  EXPECT_EQ(rx.lost_datagrams(), 0u);
}

TEST(TraceStream, ReceiverCountsGapsAndGarbage) {
  net::TraceReceiver rx;
  net::TraceStreamer tx([&](Bytes payload) { rx.ingest(payload); }, 2);
  cpu::StepResult r;
  r.pc = 4;
  for (int i = 0; i < 8; ++i) tx.on_step(r);  // datagrams 0..3
  EXPECT_EQ(rx.lost_datagrams(), 0u);

  // Simulate a lost datagram by skipping a sequence number.
  ByteWriter w;
  w.write_u32(9);  // jumped from 3 to 9
  rx.ingest(w.bytes());
  EXPECT_EQ(rx.lost_datagrams(), 5u);

  rx.ingest(Bytes{1, 2, 3});  // malformed
  EXPECT_EQ(rx.malformed(), 1u);
}

TEST(TraceStream, EndToEndOverTheControlNetwork) {
  sim::LiquidSystem node;
  node.run(100);

  ctrl::ClientConfig ccfg;
  ctrl::LiquidClient client(node, ccfg);

  // Host-side analysis chain: frames -> receiver -> analyzer.
  net::TraceReceiver rx;
  liquid::TraceAnalyzer analyzer;
  analyzer.set_focus(0x40000000, 0x4fffffff);
  client.set_extra_frame_handler([&](const net::UdpDatagram& d) {
    if (d.dst_port != net::kTracePort) return;
    for (const auto& t : rx.ingest(d.payload)) analyzer.ingest(t);
  });

  node.enable_trace_stream(ccfg.client_ip, net::kTracePort, 50);
  const auto img = strided_walk();
  ASSERT_TRUE(client.run_program(img));
  node.flush_trace_stream();
  client.drain_downlink();

  EXPECT_GT(rx.datagrams(), 2u);
  EXPECT_EQ(rx.lost_datagrams(), 0u);

  const liquid::TraceReport t = analyzer.report();
  EXPECT_GE(t.loads, 32u);                       // the kernel's 32 loads
  EXPECT_EQ(t.dominant_stride, 128);             // seen through the wire
  EXPECT_NEAR(static_cast<double>(t.data_working_set_bytes), 1024.0, 96.0);

  // The streamed trace drives the same recommendation as direct probing.
  const auto rec = analyzer.recommend(liquid::ConfigSpace{});
  EXPECT_GE(rec.dcache_bytes, 4096u);  // conflicts need the 4 KB image
}

TEST(TraceStream, SurvivesLossyDownlink) {
  sim::LiquidSystem node;
  node.run(100);
  ctrl::ClientConfig ccfg;
  ccfg.downlink.drop = 0.25;
  ccfg.downlink.seed = 77;
  ctrl::LiquidClient client(node, ccfg);

  net::TraceReceiver rx;
  liquid::TraceAnalyzer analyzer;
  analyzer.set_focus(0x40000000, 0x4fffffff);
  client.set_extra_frame_handler([&](const net::UdpDatagram& d) {
    if (d.dst_port != net::kTracePort) return;
    for (const auto& t : rx.ingest(d.payload)) analyzer.ingest(t);
  });

  node.enable_trace_stream(ccfg.client_ip, net::kTracePort, 20);
  const auto img = strided_walk();
  ASSERT_TRUE(client.run_program(img));
  node.flush_trace_stream();
  client.drain_downlink();

  // A quarter of the datagrams died; the receiver knows, and the analyzer
  // still has enough signal to see the stride.
  EXPECT_GT(rx.lost_datagrams(), 0u);
  EXPECT_GT(analyzer.report().instructions, 50u);
  EXPECT_EQ(analyzer.report().dominant_stride, 128);
}

TEST(TraceStream, StreamsInstructionStepsOnly) {
  // One record per instruction step (fetched, annulled or trapped), none
  // for the cycles a wedged CPU burns without running an instruction.
  sim::LiquidSystem node;
  node.run(100);
  node.enable_trace_stream(net::make_ip(10, 0, 0, 1), net::kTracePort, 10);
  node.cpu().reset_stats();
  fault::FaultPlan plan;
  fault::FaultEvent wedge;
  wedge.trigger.value = node.now() + 200;
  wedge.action.site = fault::FaultSite::kCpuWedge;
  wedge.action.arg = 500;  // cycles until the stall releases
  plan.events.push_back(wedge);
  {
    fault::FaultInjector inj(node, plan);
    node.run(2000);
    ASSERT_TRUE(inj.all_fired());
  }
  ASSERT_FALSE(node.cpu().wedged());
  node.flush_trace_stream();

  net::TraceReceiver rx;
  while (auto f = node.egress_frame()) {
    const auto d = net::parse_udp_packet(*f);
    if (d && d->dst_port == net::kTracePort) rx.ingest(d->payload);
  }
  const cpu::PipelineStats& st = node.cpu().stats();
  EXPECT_EQ(rx.lost_datagrams(), 0u);
  EXPECT_EQ(rx.records(), st.instructions + st.annulled + st.traps);
  EXPECT_EQ(rx.records(), 1500u);  // 500 of the 2000 steps were wedged
}

TEST(TraceStream, DisableStopsEmission) {
  sim::LiquidSystem node;
  node.run(100);
  node.enable_trace_stream(net::make_ip(10, 0, 0, 1), net::kTracePort, 10);
  node.run(50);
  node.disable_trace_stream();
  // Drain whatever was emitted.
  u64 frames = 0;
  while (node.egress_frame()) ++frames;
  EXPECT_GT(frames, 0u);
  node.run(200);
  EXPECT_FALSE(node.egress_frame().has_value());  // silence after disable
}

}  // namespace
}  // namespace la::test
