#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <cstring>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace emx {
namespace net {

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::string ErrnoText(const char* syscall_name) {
  return std::string(syscall_name) + ": " + std::strerror(errno);
}

namespace {

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::IoError(ErrnoText("setsockopt(TCP_NODELAY)"));
  }
  return Status::OK();
}

}  // namespace

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(ErrnoText("fcntl"));
  }
  return Status::OK();
}

Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::IoError(ErrnoText("socket"));

  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Status::IoError(ErrnoText("setsockopt(SO_REUSEADDR)"));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError("bind port " + std::to_string(port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(sock.fd(), 128) < 0) {
    return Status::IoError(ErrnoText("listen"));
  }

  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) <
      0) {
    return Status::IoError(ErrnoText("getsockname"));
  }
  if (bound_port != nullptr) *bound_port = ntohs(actual.sin_port);

  EMX_RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  return sock;
}

Result<Socket> AcceptTcp(int listener_fd) {
  Socket sock(::accept(listener_fd, nullptr, nullptr));
  if (!sock.valid()) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("accept: no pending connection");
    }
    return Status::IoError(ErrnoText("accept"));
  }
  EMX_RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  EMX_RETURN_IF_ERROR(SetNoDelay(sock.fd()));
  return sock;
}

Result<Socket> ConnectTcp(uint16_t port, int timeout_ms) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::IoError(ErrnoText("socket"));
  EMX_RETURN_IF_ERROR(SetNonBlocking(sock.fd()));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect port " + std::to_string(port) +
                                 ": " + std::strerror(errno));
    }
    pollfd pfd{sock.fd(), POLLOUT, 0};
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n == 0) {
      return Status::DeadlineExceeded("connect port " + std::to_string(port) +
                                      " timed out");
    }
    if (n < 0) return Status::IoError(ErrnoText("poll"));
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      return Status::Unavailable("connect port " + std::to_string(port) +
                                 ": " + std::strerror(err != 0 ? err : errno));
    }
  }

  // Back to blocking for the client side; request/response writes are small
  // and the reader thread owns all reads.
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(sock.fd(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return Status::IoError(ErrnoText("fcntl"));
  }
  SetNoDelay(sock.fd());  // best effort: without it only latency suffers
  return sock;
}

Status SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 5000) <= 0) {
        return Status::DeadlineExceeded("send stalled (peer not reading)");
      }
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable(ErrnoText("send"));
    }
    return Status::IoError(ErrnoText("send"));
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, char* buf, size_t n, int timeout_ms) {
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) return Status::DeadlineExceeded("recv timed out");
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoText("poll"));
    }
    const ssize_t r = ::recv(fd, buf, n, 0);
    if (r >= 0) return static_cast<size_t>(r);  // 0 = peer closed orderly
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    if (errno == ECONNRESET) return Status::Unavailable(ErrnoText("recv"));
    return Status::IoError(ErrnoText("recv"));
  }
}

}  // namespace net
}  // namespace emx
