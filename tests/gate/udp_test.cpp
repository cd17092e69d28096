// The socket layer over real loopback datagrams: UdpSocket receives each
// datagram whole and sized to exactly its bytes, Epoll names the fds it
// found readable, and EventFd wakes an Epoll from outside.
#include "gate/udp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace la::gate {
namespace {

bool waits_on(Epoll& ep, int fd, int timeout_ms) {
  const auto ready = ep.wait(timeout_ms);
  return std::find(ready.begin(), ready.end(), fd) != ready.end();
}

class UdpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rx_.bind("127.0.0.1", 0));
    ASSERT_TRUE(tx_.open());
    ASSERT_TRUE(ep_.add_read(rx_.fd()));
  }

  // Send `n` patterned bytes and read them back from the receiver.
  std::optional<Bytes> round_trip(std::size_t n, SockAddr* from) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(i * 7 + 3);
    EXPECT_TRUE(tx_.send_to(rx_.local_addr(), out));
    EXPECT_TRUE(waits_on(ep_, rx_.fd(), 2000));
    auto got = rx_.recv_from(from);
    if (got) {
      EXPECT_EQ(*got, out);
    }
    return got;
  }

  UdpSocket rx_;
  UdpSocket tx_;
  Epoll ep_;
};

TEST_F(UdpTest, DatagramsArriveWholeWithExactSize) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{1500},
                              std::size_t{60'000}}) {
    SockAddr from;
    const auto got = round_trip(n, &from);
    ASSERT_TRUE(got.has_value()) << n << " bytes";
    EXPECT_EQ(got->size(), n);
    // The sender never bound: the kernel picked its port on first send,
    // and it reports the wildcard ip that the receiver sees as loopback.
    EXPECT_EQ(from.port, tx_.local_addr().port);
    EXPECT_EQ(from.ip, rx_.local_addr().ip);
  }
}

TEST_F(UdpTest, EmptySocketReturnsNothing) {
  EXPECT_FALSE(rx_.recv_from().has_value());
  ASSERT_TRUE(round_trip(8, nullptr).has_value());
  EXPECT_FALSE(rx_.recv_from().has_value());  // drained again
  EXPECT_TRUE(ep_.wait(0).empty());
}

TEST_F(UdpTest, SmallDatagramDoesNotPinTheReceiveBuffer) {
  const auto got = round_trip(1, nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_LT(got->capacity(), 64u * 1024);
}

TEST_F(UdpTest, MovedSocketKeepsReceiving) {
  ASSERT_TRUE(round_trip(16, nullptr).has_value());
  UdpSocket moved = std::move(rx_);
  Bytes out(32, 0x5a);
  ASSERT_TRUE(tx_.send_to(moved.local_addr(), out));
  ASSERT_TRUE(waits_on(ep_, moved.fd(), 2000));
  EXPECT_EQ(moved.recv_from(), out);
}

TEST(EventFdTest, SignalWakesAnEpollUntilCleared) {
  EventFd ev;
  Epoll ep;
  ASSERT_TRUE(ev.valid());
  ASSERT_TRUE(ep.add_read(ev.fd()));
  EXPECT_TRUE(ep.wait(0).empty());
  ev.signal();
  ev.signal();  // signals fold into one wake-up
  EXPECT_TRUE(waits_on(ep, ev.fd(), 0));
  EXPECT_TRUE(waits_on(ep, ev.fd(), 0));  // level-triggered until cleared
  ev.clear();
  EXPECT_TRUE(ep.wait(0).empty());
}

}  // namespace
}  // namespace la::gate
