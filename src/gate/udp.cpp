#include "gate/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace la::gate {

namespace {

sockaddr_in to_sockaddr(const SockAddr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  sa.sin_addr.s_addr = htonl(a.ip);
  return sa;
}

SockAddr from_sockaddr(const sockaddr_in& sa) {
  return SockAddr{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Largest datagram we ever expect (frame overhead + max payload, with
/// headroom so an oversized datagram is received whole and then rejected
/// by the codec instead of being silently truncated by the kernel).
constexpr std::size_t kRecvBuf = 64 * 1024;

}  // namespace

std::string SockAddr::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff, port);
  return buf;
}

UdpSocket::~UdpSocket() { close(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), rx_(std::move(other.rx_)) {
  other.fd_ = -1;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rx_ = std::move(other.rx_);
    other.fd_ = -1;
  }
  return *this;
}

bool UdpSocket::open() {
  close();
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return false;
  if (!set_nonblocking(fd_)) {
    close();
    return false;
  }
  return true;
}

bool UdpSocket::bind(const std::string& ip, u16 port) {
  if (!open()) return false;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
    close();
    return false;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    close();
    return false;
  }
  return true;
}

SockAddr UdpSocket::local_addr() const {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (fd_ < 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return {};
  }
  return from_sockaddr(sa);
}

bool UdpSocket::send_to(const SockAddr& dst, std::span<const u8> data) {
  if (fd_ < 0) return false;
  const sockaddr_in sa = to_sockaddr(dst);
  const ssize_t n =
      ::sendto(fd_, data.data(), data.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (n == static_cast<ssize_t>(data.size())) return true;
  // A full socket buffer drops the datagram — UDP semantics, not an
  // error the caller can do anything about beyond its retry loop.
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS;
}

std::optional<Bytes> UdpSocket::recv_from(SockAddr* src) {
  if (fd_ < 0) return std::nullopt;
  if (!rx_) rx_ = std::make_unique_for_overwrite<u8[]>(kRecvBuf);
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  const ssize_t n = ::recvfrom(fd_, rx_.get(), kRecvBuf, 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) return std::nullopt;  // EAGAIN and friends: nothing now
  if (src != nullptr) *src = from_sockaddr(sa);
  return Bytes(rx_.get(), rx_.get() + n);
}

void UdpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Epoll::Epoll() : fd_(::epoll_create1(0)) {}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

bool Epoll::add_read(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return fd_ >= 0 && ::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

std::span<const int> Epoll::wait(int timeout_ms) {
  if (fd_ < 0) return {};
  epoll_event out[kMaxReady];
  const int n = ::epoll_wait(fd_, out, kMaxReady, timeout_ms);
  for (int i = 0; i < n; ++i) ready_[i] = out[i].data.fd;
  return {ready_, static_cast<std::size_t>(n > 0 ? n : 0)};
}

EventFd::EventFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

EventFd::~EventFd() {
  if (fd_ >= 0) ::close(fd_);
}

void EventFd::signal() {
  const u64 one = 1;
  // Only a counter at its ceiling refuses a write, and it is then already
  // readable: nothing to handle.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof one);
}

void EventFd::clear() {
  u64 count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof count);
}

void WanLink::send(Bytes frame) {
  up_.send(std::move(frame));
  flush_uplink_();
}

std::optional<Bytes> WanLink::poll_recv() {
  drain_socket_();
  flush_uplink_();  // ages the uplink's delayed frames too
  return down_.receive();
}

void WanLink::pump() {
  drain_socket_();
  flush_uplink_();
}

void WanLink::drain_socket_() {
  while (auto dgram = sock_.recv_from()) down_.send(std::move(*dgram));
}

void WanLink::flush_uplink_() {
  while (auto frame = up_.receive()) sock_.send_to(peer_, *frame);
}

double steady_now_ms() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

}  // namespace la::gate
