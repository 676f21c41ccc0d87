#ifndef EMX_NET_SOCKET_H_
#define EMX_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace emx {
namespace net {

/// Thin Status-returning wrappers over POSIX TCP sockets. Every failure
/// carries the syscall name and strerror(errno) text so callers can print
/// an actionable message instead of exiting silently.

/// Owning socket fd; closes on destruction. Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

  /// shutdown(2) both directions without closing or mutating the fd.
  /// Use this to wake a thread blocked in RecvSome/poll on this socket so
  /// it can exit before the fd is closed — Close() concurrent with a
  /// reader is a data race on the fd member (and a use-after-close once
  /// the fd number is recycled).
  void ShutdownBoth() const;

 private:
  int fd_ = -1;
};

/// Formats "<syscall>: <strerror(errno)>" for error statuses.
std::string ErrnoText(const char* syscall_name);

/// Binds and listens on 127.0.0.1:`port` (SO_REUSEADDR). `port` 0 asks the
/// kernel for an ephemeral port; the actually-bound port is written to
/// `*bound_port` either way. The listener fd is non-blocking.
Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Accepts one pending connection on the non-blocking `listener_fd`. The
/// returned socket is non-blocking with TCP_NODELAY set, so a small
/// response written while an earlier one is still unacknowledged leaves at
/// once instead of waiting on the peer's delayed ACK. Fails with
/// Unavailable when nothing is pending (EAGAIN), IoError otherwise.
Result<Socket> AcceptTcp(int listener_fd);

/// Connects to 127.0.0.1:`port` (blocking, with `timeout_ms` on the
/// connect itself). The returned socket is blocking with TCP_NODELAY set.
Result<Socket> ConnectTcp(uint16_t port, int timeout_ms = 5000);

/// Writes all `n` bytes, polling on short writes/EAGAIN. Fails with
/// Unavailable when the peer closed, IoError on other errors.
Status SendAll(int fd, const char* data, size_t n);

/// Reads up to `n` bytes, waiting at most `timeout_ms` for readability.
/// Returns the byte count (0 = peer closed orderly), DeadlineExceeded on
/// timeout, IoError on socket errors.
Result<size_t> RecvSome(int fd, char* buf, size_t n, int timeout_ms);

/// Marks `fd` non-blocking.
Status SetNonBlocking(int fd);

}  // namespace net
}  // namespace emx

#endif  // EMX_NET_SOCKET_H_
