// Thin RAII layer over the real sockets API: a non-blocking UDP socket,
// an epoll instance, an eventfd other threads use to wake an epoll loop,
// and a WAN-emulated link that runs every datagram through the seeded
// net::Channel impairments before it touches the wire.
//
// This is the first place in the repo where bytes cross an actual kernel
// socket.  Everything stays loopback-friendly: bind to an ephemeral port,
// never block, surface EAGAIN as "nothing right now".
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/wan_profile.hpp"

namespace la::gate {

/// Host-order socket address (ip as in net::make_ip).
struct SockAddr {
  u32 ip = 0;
  u16 port = 0;

  bool operator==(const SockAddr&) const = default;
  std::string to_string() const;
};

/// A non-blocking IPv4 UDP socket.  Move-only; closes on destruction.
/// Reads go through one receive buffer the socket owns, so a socket is
/// read by one thread at a time (sends may come from anywhere).
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Create + bind (port 0 = kernel-assigned); false on any failure with
  /// errno preserved.  `ip` is dotted-quad ("127.0.0.1").
  bool bind(const std::string& ip, u16 port);

  /// Create without binding (client side; the kernel binds on first send).
  bool open();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The locally bound address (after bind()).
  SockAddr local_addr() const;

  /// Best-effort send; false only on hard errors (EAGAIN counts as sent-
  /// and-lost — this is UDP, the caller's retry logic owns reliability).
  bool send_to(const SockAddr& dst, std::span<const u8> data);

  /// One datagram if the kernel has one, sized to exactly the bytes
  /// received; nullopt on EAGAIN (one syscall, nothing allocated).
  std::optional<Bytes> recv_from(SockAddr* src = nullptr);

  void close();

 private:
  int fd_ = -1;
  std::unique_ptr<u8[]> rx_;  // 64 KiB, allocated by the first read
};

/// A level-triggered epoll wrapper over one or more fds.
class Epoll {
 public:
  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  bool valid() const { return fd_ >= 0; }
  bool add_read(int fd);
  /// Sleep until a registered fd is readable or timeout_ms passes; the
  /// fds found readable (empty on timeout), valid until the next wait.
  std::span<const int> wait(int timeout_ms);

 private:
  static constexpr int kMaxReady = 8;
  int fd_ = -1;
  int ready_[kMaxReady] = {};
};

/// A non-blocking eventfd: any thread may signal() it, and the thread
/// that watches it in an Epoll clear()s it once woken.
class EventFd {
 public:
  EventFd();
  ~EventFd();
  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void signal();
  void clear();

 private:
  int fd_ = -1;
};

/// One endpoint of an emulated wide-area path to a single peer: frames
/// pass through a seeded uplink Channel before sendto() and through a
/// downlink Channel after recvfrom(), so the exact impairment engine the
/// in-process tests use (drop/dup/reorder/corrupt/truncate/delay) applies
/// to real socket traffic.  Channel delays age by pump rounds: each
/// pump() / poll_recv() call is one round, so a caller that keeps polling
/// always makes progress.
class WanLink {
 public:
  WanLink(UdpSocket& sock, SockAddr peer, const net::WanProfile& profile)
      : sock_(sock), peer_(peer), up_(profile.uplink), down_(profile.downlink) {}

  /// Offer a frame to the (impaired) uplink and flush what's deliverable.
  void send(Bytes frame);

  /// Next frame off the (impaired) downlink, pumping the socket first.
  std::optional<Bytes> poll_recv();

  /// Age both directions one round and flush deliverable uplink frames.
  void pump();

  const net::Channel& uplink() const { return up_; }
  const net::Channel& downlink() const { return down_; }
  const SockAddr& peer() const { return peer_; }

 private:
  void drain_socket_();
  void flush_uplink_();

  UdpSocket& sock_;
  SockAddr peer_;
  net::Channel up_;
  net::Channel down_;
};

/// Milliseconds on the host monotonic clock (the gateway's time base for
/// token buckets and retry-after hints).
double steady_now_ms();

}  // namespace la::gate
