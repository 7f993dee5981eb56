#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace clarens::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SystemError(what + ": " + std::strerror(errno));
}

// The send paths never raise SIGPIPE: a peer that reset the connection
// surfaces as EPIPE on this call instead of killing the process.
ssize_t send_bytes(int fd, const void* data, std::size_t size) {
  return ::send(fd, data, size, MSG_NOSIGNAL);
}

ssize_t send_iov(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string h = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    throw SystemError("invalid IPv4 address: " + host);
  }
  return addr;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

Fd::~Fd() {
  if (fd_ >= 0) ::close(fd_);
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port) {
  // Blackhole fault: pretend the host dropped off the network. Armed per
  // "host:port" detail by the cluster fault tests.
  if (CLARENS_FAULT("net.connect", host + ":" + std::to_string(port))) {
    throw SystemError("injected blackhole: connect to " + host + ":" +
                      std::to_string(port));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Fd owned(fd);
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  TcpConnection conn(std::move(owned));
  conn.set_nodelay(true);
  return conn;
}

TcpConnection TcpConnection::connect_nonblocking(const std::string& host,
                                                 std::uint16_t port) {
  if (CLARENS_FAULT("net.connect", host + ":" + std::to_string(port))) {
    throw SystemError("injected blackhole: connect to " + host + ":" +
                      std::to_string(port));
  }
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  if (raw < 0) throw_errno("socket");
  TcpConnection conn{Fd(raw)};
  conn.set_nonblocking(true);
  sockaddr_in addr = make_addr(host, port);
  if (::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  return conn;
}

bool TcpConnection::finish_connect(const std::string& host,
                                   std::uint16_t port) {
  // Re-issuing connect() reports the handshake state without needing a
  // prior readiness notification: EALREADY/EINPROGRESS while in flight,
  // EISCONN (or 0) once established, the real error on failure.
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) == 0 ||
      errno == EISCONN) {
    set_nodelay(true);
    return true;
  }
  if (errno == EALREADY || errno == EINPROGRESS || errno == EINTR ||
      errno == EAGAIN || errno == EWOULDBLOCK) {
    return false;
  }
  throw_errno("connect to " + host + ":" + std::to_string(port));
}

std::size_t TcpConnection::read(std::span<std::uint8_t> out) {
  for (;;) {
    ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw_errno("read");
  }
}

void TcpConnection::write_all(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send_bytes(fd_.get(), data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full socket buffer: wait for drainage so
        // write_all keeps its full-span contract on worker-owned writes.
        // clarens-lint: allow(reactor-blocking): worker-side blocking write; the reactor's inline path uses writev_some + outbox instead.
        wait_writable(-1);
        continue;
      }
      throw_errno("write");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Stream::write_vec(std::span<const std::string_view> chunks) {
  for (std::string_view chunk : chunks) write_all(chunk);
}

void TcpConnection::write_vec(std::span<const std::string_view> chunks) {
  // One writev(2) in the common case: header + body leave the process in
  // a single syscall without gluing them into a temporary string.
  iovec iov[8];
  std::size_t count = 0;
  std::size_t total = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty()) continue;
    if (count == std::size(iov)) {  // overflow: flush what we have
      break;
    }
    iov[count].iov_base = const_cast<char*>(chunk.data());
    iov[count].iov_len = chunk.size();
    total += chunk.size();
    ++count;
  }
  if (count == 0) return;
  std::size_t sent = 0;
  std::size_t first = 0;
  while (sent < total) {
    ssize_t n = send_iov(fd_.get(), iov + first, count - first);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // clarens-lint: allow(reactor-blocking): worker-side blocking write; the reactor's inline path uses writev_some + outbox instead.
        wait_writable(-1);
        continue;
      }
      throw_errno("writev");
    }
    sent += static_cast<std::size_t>(n);
    // Skip fully-sent iovecs; trim a partially-sent one.
    std::size_t done = static_cast<std::size_t>(n);
    while (first < count && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < count && done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  // Chunks beyond the iovec window (rare: >8 non-empty chunks) fall back.
  std::size_t consumed = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty()) continue;
    if (consumed == std::size(iov)) write_all(chunk);
    else ++consumed;
  }
}

// clarens-lint: allow(reactor-blocking): the blocking-wait primitive itself; callers on the reactor thread are forbidden, workers may block here.
bool TcpConnection::wait_writable(int timeout_ms) {
  pollfd pfd{fd_.get(), POLLOUT, 0};
  for (;;) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return rc > 0;
  }
}

void TcpConnection::close() { fd_.reset(); }

std::optional<std::size_t> TcpConnection::read_some(std::span<std::uint8_t> out) {
  for (;;) {
    ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("read");
  }
}

std::size_t TcpConnection::write_some(std::span<const std::uint8_t> data) {
  for (;;) {
    ssize_t n = send_bytes(fd_.get(), data.data(), data.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("write");
  }
}

std::size_t TcpConnection::writev_some(
    std::span<const std::string_view> chunks) {
  iovec iov[8];
  std::size_t count = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty() || count == std::size(iov)) continue;
    iov[count].iov_base = const_cast<char*>(chunk.data());
    iov[count].iov_len = chunk.size();
    ++count;
  }
  if (count == 0) return 0;
  for (;;) {
    ssize_t n = send_iov(fd_.get(), iov, count);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("writev");
  }
}

void TcpConnection::set_nonblocking(bool on) {
  int flags = fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_.get(), F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
}

void TcpConnection::set_nodelay(bool on) {
  int v = on ? 1 : 0;
  if (setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

std::size_t TcpConnection::sendfile(int file_fd, std::int64_t offset,
                                    std::size_t count) {
  off_t off = static_cast<off_t>(offset);
  std::size_t total = 0;
  while (total < count) {
    ssize_t n = ::sendfile(fd_.get(), file_fd, &off, count - total);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // clarens-lint: allow(reactor-blocking): file regions are streamed by workers; inline dispatch spills them before reaching here.
        wait_writable(-1);
        continue;
      }
      if ((errno == EINVAL || errno == ENOSYS) && total == 0) {
        // Kernel refuses sendfile for this fd pair (e.g. the source is
        // not mmap-able): degrade to splice through a pipe, still never
        // copying the payload into userspace.
        return splice_from(file_fd, offset, count);
      }
      throw_errno("sendfile");
    }
    if (n == 0) break;  // EOF on source file
    total += static_cast<std::size_t>(n);
  }
  return total;
}

std::size_t TcpConnection::splice_from(int file_fd, std::int64_t offset,
                                       std::size_t count) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return copy_from(file_fd, offset, count);  // no pipes left: plain copy
  }
  Fd pipe_r(pipe_fds[0]);
  Fd pipe_w(pipe_fds[1]);
  loff_t off = static_cast<loff_t>(offset);
  std::size_t total = 0;
  while (total < count) {
    ssize_t in = ::splice(file_fd, &off, pipe_w.get(), nullptr, count - total,
                          SPLICE_F_MOVE);
    if (in < 0) {
      if (errno == EINTR) continue;
      if ((errno == EINVAL || errno == ENOSYS) && total == 0) {
        return copy_from(file_fd, offset, count);
      }
      throw_errno("splice(file->pipe)");
    }
    if (in == 0) break;  // EOF on source file
    std::size_t in_pipe = static_cast<std::size_t>(in);
    while (in_pipe > 0) {
      ssize_t out = ::splice(pipe_r.get(), nullptr, fd_.get(), nullptr,
                             in_pipe, SPLICE_F_MOVE);
      if (out < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // clarens-lint: allow(reactor-blocking): worker-side streaming path, like sendfile above.
          wait_writable(-1);
          continue;
        }
        throw_errno("splice(pipe->socket)");
      }
      in_pipe -= static_cast<std::size_t>(out);
      total += static_cast<std::size_t>(out);
    }
  }
  return total;
}

std::size_t TcpConnection::copy_from(int file_fd, std::int64_t offset,
                                     std::size_t count) {
  std::size_t total = 0;
  std::array<std::uint8_t, 64 * 1024> buf;
  while (total < count) {
    std::size_t want = std::min(count - total, buf.size());
    ssize_t n = ::pread(file_fd, buf.data(), want,
                        static_cast<off_t>(offset + static_cast<std::int64_t>(total)));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (n == 0) break;  // EOF on source file
    write_all(std::span<const std::uint8_t>(buf.data(),
                                            static_cast<std::size_t>(n)));
    total += static_cast<std::size_t>(n);
  }
  return total;
}

TcpListener TcpListener::listen(std::uint16_t port, const std::string& host,
                                int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  TcpListener listener;
  listener.fd_ = Fd(fd);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  listener.port_ = bound_port(fd);
  return listener;
}

TcpConnection TcpListener::accept() {
  for (;;) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      TcpConnection conn{Fd(fd)};
      conn.set_nodelay(true);
      return conn;
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

void TcpListener::set_nonblocking(bool on) {
  int flags = fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_.get(), F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
}

std::optional<TcpConnection> TcpListener::accept_nonblocking() {
  for (;;) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      TcpConnection conn{Fd(fd)};
      conn.set_nodelay(true);
      return conn;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("accept");
  }
}

void TcpListener::shutdown() {
  // ::shutdown() wakes a blocked accept() (plain close() does not on
  // Linux) and leaves fd_ untouched, so concurrent readers are safe.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpListener::close() {
  shutdown();
  fd_.reset();
}

UdpSocket UdpSocket::bind(std::uint16_t port, const std::string& host) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket(udp)");
  UdpSocket sock;
  sock.fd_ = Fd(fd);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind udp " + host + ":" + std::to_string(port));
  }
  sock.port_ = bound_port(fd);
  return sock;
}

void UdpSocket::send_to(const std::string& host, std::uint16_t port,
                        std::span<const std::uint8_t> data) {
  sockaddr_in addr = make_addr(host, port);
  ssize_t n = ::sendto(fd_.get(), data.data(), data.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (n < 0) throw_errno("sendto");
}

std::optional<std::string> UdpSocket::recv(int timeout_ms) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return std::nullopt;
  char buf[65536];
  ssize_t n = ::recvfrom(fd_.get(), buf, sizeof(buf), 0, nullptr, nullptr);
  if (n < 0) throw_errno("recvfrom");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace clarens::net
