// The leon_ctrl state machine in isolation (no CPU): load / start / read /
// restart sequencing, disconnect behaviour, error responses.
#include <gtest/gtest.h>

#include "mem/disconnect.hpp"
#include "mem/sram.hpp"
#include "net/leon_ctrl.hpp"

namespace la::net {
namespace {

struct CtrlFixture : ::testing::Test {
  CtrlFixture()
      : sram(0x40000000, 1 << 16),
        sw(sram),
        gen(make_ip(192, 168, 100, 10), kLeonControlPort),
        ctrl(make_cfg(), sw, gen, [this] { ++resets; }) {}

  static LeonCtrlConfig make_cfg() {
    LeonCtrlConfig c;
    c.mailbox = 0x40000000;
    c.check_ready = 0x40;
    c.load_min = 0x40000004;
    c.load_max = 0x4000ffff;
    return c;
  }

  UdpDatagram cmd(Bytes payload) {
    UdpDatagram d;
    d.src_ip = make_ip(10, 1, 1, 1);
    d.src_port = 555;
    d.dst_ip = make_ip(192, 168, 100, 10);
    d.dst_port = kLeonControlPort;
    d.payload = std::move(payload);
    return d;
  }

  /// Pop the next response and return (code, body).
  std::pair<u8, Bytes> response() {
    auto d = gen.pop();
    EXPECT_TRUE(d.has_value());
    if (!d) return {0, {}};
    EXPECT_EQ(d->dst_ip, make_ip(10, 1, 1, 1));
    EXPECT_EQ(d->dst_port, 555);
    return {d->payload.at(0),
            Bytes(d->payload.begin() + 1, d->payload.end())};
  }

  mem::Sram sram;
  mem::DisconnectSwitch sw;
  PacketGenerator gen;
  LeonController ctrl;
  int resets = 0;
};

TEST_F(CtrlFixture, StatusWhenIdle) {
  ctrl.handle(cmd(simple_command(CommandCode::kStatus)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kStatus));
  EXPECT_EQ(body.at(0), static_cast<u8>(LeonState::kIdle));
}

TEST_F(CtrlFixture, SingleChunkLoadGoesReady) {
  LoadProgramCmd c;
  c.total_packets = 1;
  c.sequence = 0;
  c.address = 0x40000100;
  c.data = {0xde, 0xad, 0xbe, 0xef};
  ctrl.handle(cmd(c.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kReady);
  EXPECT_FALSE(sw.connected());  // CPU unplugged during/after load
  EXPECT_EQ(sram.backdoor_word(0x40000100), 0xdeadbeefu);
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kLoadAck));
}

TEST_F(CtrlFixture, MultiChunkOutOfOrderLoad) {
  LoadProgramCmd a, b, c;
  a.total_packets = b.total_packets = c.total_packets = 3;
  a.sequence = 0; a.address = 0x40000100; a.data = {1, 1, 1, 1};
  b.sequence = 1; b.address = 0x40000104; b.data = {2, 2, 2, 2};
  c.sequence = 2; c.address = 0x40000108; c.data = {3, 3, 3, 3};
  // Delivered out of order.
  ctrl.handle(cmd(c.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kLoading);
  ctrl.handle(cmd(a.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kLoading);
  ctrl.handle(cmd(b.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kReady);
  EXPECT_EQ(sram.backdoor_word(0x40000104), 0x02020202u);
  EXPECT_EQ(ctrl.stats().chunks_loaded, 3u);
}

TEST_F(CtrlFixture, DuplicateChunksAreIdempotent) {
  LoadProgramCmd a;
  a.total_packets = 2;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {1, 2, 3, 4};
  ctrl.handle(cmd(a.serialize()));
  ctrl.handle(cmd(a.serialize()));  // duplicate mid-load
  EXPECT_EQ(ctrl.state(), LeonState::kLoading);
  EXPECT_EQ(ctrl.stats().duplicate_chunks, 1u);

  LoadProgramCmd b = a;
  b.sequence = 1;
  b.address = 0x40000104;
  ctrl.handle(cmd(b.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kReady);

  // A late duplicate after completion must NOT regress the state.
  ctrl.handle(cmd(a.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kReady);
  EXPECT_EQ(ctrl.stats().duplicate_chunks, 2u);
}

TEST_F(CtrlFixture, StartPlantsMailboxAndReconnects) {
  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {0, 0, 0, 0};
  ctrl.handle(cmd(a.serialize()));
  gen.pop();

  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kRunning);
  EXPECT_TRUE(sw.connected());
  EXPECT_EQ(sram.backdoor_word(0x40000000), 0x40000100u);  // mailbox
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kStarted));
}

TEST_F(CtrlFixture, ReturnToPollingLoopCompletesRun) {
  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {0, 0, 0, 0};
  ctrl.handle(cmd(a.serialize()));
  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  ASSERT_EQ(ctrl.state(), LeonState::kRunning);

  ctrl.on_cpu_pc(0x40000100);  // running in the user program
  EXPECT_EQ(ctrl.state(), LeonState::kRunning);
  ctrl.on_cpu_pc(0x40);  // back in the polling loop
  EXPECT_EQ(ctrl.state(), LeonState::kDone);
  EXPECT_FALSE(sw.connected());
  EXPECT_EQ(sram.backdoor_word(0x40000000), 0u);  // mailbox cleared
  EXPECT_EQ(ctrl.stats().programs_completed, 1u);
}

TEST_F(CtrlFixture, ReadMemoryReturnsWords) {
  sram.backdoor_write_word(0x40000200, 0x11111111);
  sram.backdoor_write_word(0x40000204, 0x22222222);
  ctrl.handle(cmd(ReadMemoryCmd{0x40000200, 2}.serialize()));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kMemoryData));
  ByteReader r(body);
  EXPECT_EQ(r.read_u32(), 0x40000200u);
  EXPECT_EQ(r.read_u32(), 0x11111111u);
  EXPECT_EQ(r.read_u32(), 0x22222222u);
}

TEST_F(CtrlFixture, LoadOutsideWindowRejected) {
  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000000;  // the mailbox itself: below load_min
  a.data = {1, 2, 3, 4};
  ctrl.handle(cmd(a.serialize()));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(ctrl.state(), LeonState::kIdle);
}

TEST_F(CtrlFixture, StartWhileLoadingRejected) {
  LoadProgramCmd a;
  a.total_packets = 2;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {1, 2, 3, 4};
  ctrl.handle(cmd(a.serialize()));
  gen.pop();
  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(ctrl.state(), LeonState::kLoading);
}

TEST_F(CtrlFixture, LoadWhileRunningRejected) {
  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {1, 2, 3, 4};
  ctrl.handle(cmd(a.serialize()));
  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  ASSERT_EQ(ctrl.state(), LeonState::kRunning);
  ctrl.handle(cmd(a.serialize()));
  EXPECT_EQ(ctrl.state(), LeonState::kRunning);
  EXPECT_GT(ctrl.stats().bad_commands, 0u);
}

TEST_F(CtrlFixture, RestartResetsEverything) {
  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {1, 2, 3, 4};
  ctrl.handle(cmd(a.serialize()));
  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  ctrl.handle(cmd(simple_command(CommandCode::kRestart)));
  EXPECT_EQ(ctrl.state(), LeonState::kIdle);
  EXPECT_EQ(resets, 1);
  EXPECT_TRUE(sw.connected());
  EXPECT_EQ(sram.backdoor_word(0x40000000), 0u);
}

TEST_F(CtrlFixture, UnknownCommandGetsError) {
  // 0x07 was SET_TRACE, which the node no longer implements.
  u64 bad = 0;
  for (const u8 opcode : {u8{0x77}, u8{0x07}}) {
    ctrl.handle(cmd(Bytes{opcode}));
    const auto [code, body] = response();
    EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
    EXPECT_EQ(body.at(0), err::kUnknownCommand);
    EXPECT_EQ(ctrl.stats().bad_commands, ++bad);
  }
}

TEST_F(CtrlFixture, EmptyPayloadGetsError) {
  ctrl.handle(cmd(Bytes{}));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
}

TEST_F(CtrlFixture, ForcedErrorStateEmitsPacket) {
  ctrl.handle(cmd(simple_command(CommandCode::kStatus)));
  gen.pop();
  ctrl.force_error(0x42);
  EXPECT_EQ(ctrl.state(), LeonState::kError);
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), 0x42);
}

TEST_F(CtrlFixture, CppRoutesByPort) {
  ControlPacketProcessor cpp(ctrl);
  auto d = cmd(simple_command(CommandCode::kStatus));
  cpp.ingress(d);
  EXPECT_EQ(cpp.control_packets(), 1u);
  d.dst_port = 9999;
  cpp.ingress(d);
  EXPECT_EQ(cpp.passthrough_packets(), 1u);
  EXPECT_EQ(ctrl.stats().commands, 1u);  // only the control one reached it
}

TEST_F(CtrlFixture, StatsSnapshotWithoutProviderIsAnError) {
  ctrl.handle(cmd(simple_command(CommandCode::kStatsSnapshot)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), 0x41);
  EXPECT_EQ(ctrl.stats().bad_commands, 1u);
}

TEST_F(CtrlFixture, StatsSnapshotReturnsProviderPayload) {
  ctrl.set_stats_provider([] { return Bytes{'{', '}'}; });
  ctrl.handle(cmd(simple_command(CommandCode::kStatsSnapshot)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kStatsData));
  EXPECT_EQ(body, (Bytes{'{', '}'}));
  EXPECT_EQ(ctrl.stats().bad_commands, 0u);
}

TEST_F(CtrlFixture, StatsStreamWithoutProviderIsAnError) {
  ctrl.handle(cmd(simple_command(CommandCode::kStatsStream)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), err::kNoStats);
}

TEST_F(CtrlFixture, StatsStreamReturnsDeltaPayload) {
  int polls = 0;
  ctrl.set_delta_provider([&polls] {
    ++polls;
    return Bytes{'{', '}'};
  });
  ctrl.handle(cmd(simple_command(CommandCode::kStatsStream)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_EQ(body, (Bytes{'{', '}'}));
  EXPECT_EQ(polls, 1);  // the provider owns the delta window state
}

// --- Sequenced STATS_STREAM: delta windows survive retransmits ---------
//
// An unsequenced STATS_STREAM advances the provider's delta window every
// poll, so a retransmitted request silently eats a window.  The sequenced
// form (u32 window id in the payload) makes polling idempotent: the
// controller caches recent windows and re-serves duplicates byte for
// byte.  tests below are the regression suite for that contract.

namespace {
Bytes sequenced_stream(u32 seq) {
  ByteWriter w;
  w.write_u8(static_cast<u8>(CommandCode::kStatsStream));
  w.write_u32(seq);
  return w.take();
}
}  // namespace

TEST_F(CtrlFixture, SequencedStatsStreamReplaysDuplicatesWithoutAdvancing) {
  int polls = 0;
  ctrl.set_delta_provider([&polls] {
    ++polls;
    return Bytes{static_cast<u8>('0' + polls)};
  });
  ctrl.handle(cmd(sequenced_stream(1)));
  auto [code1, body1] = response();
  EXPECT_EQ(code1, static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_EQ(polls, 1);

  // The retransmit (same seq) must re-serve the SAME bytes and must NOT
  // consume a fresh delta window.
  ctrl.handle(cmd(sequenced_stream(1)));
  auto [code2, body2] = response();
  EXPECT_EQ(code2, static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_EQ(body2, body1);
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(ctrl.stats().stream_replays, 1u);

  // The next window advances normally.
  ctrl.handle(cmd(sequenced_stream(2)));
  auto [code3, body3] = response();
  EXPECT_EQ(code3, static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_NE(body3, body1);
  EXPECT_EQ(polls, 2);
}

TEST_F(CtrlFixture, StaleStreamSeqBeyondCacheIsTypedError) {
  int polls = 0;
  ctrl.set_delta_provider([&polls] {
    ++polls;
    return Bytes{static_cast<u8>(polls)};
  });
  // Fill and overflow the replay cache (depth 4): windows 1..5 leave
  // 2..5 cached.
  for (u32 seq = 1; seq <= 5; ++seq) {
    ctrl.handle(cmd(sequenced_stream(seq)));
    response();
  }
  ASSERT_EQ(polls, 5);
  // Window 1 fell out of the cache: a very-late retransmit gets a typed
  // error, never a wrong (fresh) window under an old id.
  ctrl.handle(cmd(sequenced_stream(1)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), err::kStaleStreamSeq);
  EXPECT_EQ(polls, 5);  // the provider was not consulted
  // Cached tail still replays fine.
  ctrl.handle(cmd(sequenced_stream(3)));
  const auto [code2, body2] = response();
  EXPECT_EQ(code2, static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_EQ(body2, Bytes{3});
  EXPECT_EQ(polls, 5);
}

TEST_F(CtrlFixture, MalformedStreamSeqIsBadStreamSeq) {
  ctrl.set_delta_provider([] { return Bytes{'{', '}'}; });
  ByteWriter w;
  w.write_u8(static_cast<u8>(CommandCode::kStatsStream));
  w.write_u16(7);  // two bytes where the u32 seq belongs
  ctrl.handle(cmd(w.take()));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), err::kBadStreamSeq);
}

TEST_F(CtrlFixture, SequencedStreamCacheSurvivesSnapshotRestore) {
  int polls = 0;
  ctrl.set_delta_provider([&polls] {
    ++polls;
    return Bytes{static_cast<u8>(polls)};
  });
  ctrl.handle(cmd(sequenced_stream(1)));
  response();

  SnapWriter w;
  ctrl.save_state(w);
  const Bytes snap = w.take();

  // A freshly-built controller restored from the snapshot.
  mem::Sram sram2(0x40000000, 1 << 16);
  mem::DisconnectSwitch sw2(sram2);
  PacketGenerator gen2(make_ip(192, 168, 100, 10), kLeonControlPort);
  LeonController ctrl2(make_cfg(), sw2, gen2, [] {});
  ctrl2.set_delta_provider([&polls] {
    ++polls;
    return Bytes{static_cast<u8>(polls)};
  });
  SnapReader r(snap);
  ASSERT_TRUE(ctrl2.load_state(r));
  // The restored controller replays the pre-snapshot window from cache.
  ctrl2.handle(cmd(sequenced_stream(1)));
  auto d = gen2.pop();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload.at(0), static_cast<u8>(ResponseCode::kStatsDelta));
  EXPECT_EQ(Bytes(d->payload.begin() + 1, d->payload.end()), Bytes{1});
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(ctrl2.stats().stream_replays, 1u);
}

TEST_F(CtrlFixture, FlightDumpWithoutProviderIsAnError) {
  ctrl.handle(cmd(simple_command(CommandCode::kFlightDump)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kError));
  EXPECT_EQ(body.at(0), err::kNoRecorder);
}

TEST_F(CtrlFixture, FlightDumpReturnsProviderPayload) {
  ctrl.set_flight_provider([] { return Bytes{'{', '}'}; });
  ctrl.handle(cmd(simple_command(CommandCode::kFlightDump)));
  const auto [code, body] = response();
  EXPECT_EQ(code, static_cast<u8>(ResponseCode::kFlightData));
  EXPECT_EQ(body, (Bytes{'{', '}'}));
}

TEST_F(CtrlFixture, StateObserverSeesEveryTransition) {
  std::vector<std::pair<LeonState, LeonState>> seen;
  ctrl.set_state_observer([&seen](LeonState prev, LeonState next) {
    seen.emplace_back(prev, next);
  });

  LoadProgramCmd a;
  a.total_packets = 1;
  a.sequence = 0;
  a.address = 0x40000100;
  a.data = {0, 0, 0, 0};
  ctrl.handle(cmd(a.serialize()));
  ctrl.handle(cmd(StartCmd{0x40000100}.serialize()));
  ctrl.watchdog_trip();

  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen.front().first, LeonState::kIdle);
  EXPECT_EQ(seen.back().first, LeonState::kRunning);
  EXPECT_EQ(seen.back().second, LeonState::kError);
  // The trip is counted before the observer could have sampled it.
  EXPECT_EQ(ctrl.stats().watchdog_trips, 1u);
}

TEST(PacketGeneratorQueue, BoundedDropOldest) {
  PacketGenerator gen(make_ip(192, 168, 100, 10), kLeonControlPort, 4);
  for (u8 i = 0; i < 10; ++i) {
    gen.emit(make_ip(10, 1, 1, 1), 555, ResponseCode::kStatus, Bytes{i});
  }
  EXPECT_EQ(gen.pending(), 4u);
  EXPECT_EQ(gen.responses_dropped(), 6u);
  EXPECT_EQ(gen.emitted(), 10u);
  // The survivors are the NEWEST four — a stalled reader sees fresh
  // state, not a replay of ancient responses.
  for (u8 want = 6; want < 10; ++want) {
    auto d = gen.pop();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->payload.at(1), want);
  }
  EXPECT_TRUE(gen.empty());
}

TEST(PacketGeneratorQueue, UnboundedWhenMaxQueueIsZero) {
  PacketGenerator gen(make_ip(192, 168, 100, 10), kLeonControlPort, 0);
  for (int i = 0; i < 200; ++i) {
    gen.emit(make_ip(10, 1, 1, 1), 555, ResponseCode::kStatus);
  }
  EXPECT_EQ(gen.pending(), 200u);
  EXPECT_EQ(gen.responses_dropped(), 0u);
}

}  // namespace
}  // namespace la::net
