#ifndef TABULA_NET_SOCKET_H_
#define TABULA_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/wire.h"

namespace tabula {

/// \brief Thin POSIX TCP wrappers used by TabulaNetServer/TabulaClient.
///
/// All helpers are deadline-aware (poll-based): `deadline_ms <= 0`
/// means wait forever. Timeouts surface as kUnavailable (retryable),
/// a peer that closed cleanly between frames as kIOError with message
/// "connection closed", and a connection that died mid-frame as
/// kDataLoss (the torn-frame contract of the wire protocol).
///
/// SIGPIPE note: every send uses MSG_NOSIGNAL, so writing into a
/// half-closed socket fails with a Status instead of killing the
/// process.

/// RAII file-descriptor owner (close on destruction).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Close(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

 private:
  int fd_ = -1;
};

/// Opens a listening TCP socket on 127.0.0.1:`port` (0 → an ephemeral
/// port chosen by the kernel). On success `*bound_port` holds the
/// actual port. SO_REUSEADDR is set so restarted servers rebind fast.
Result<int> ListenOn(uint16_t port, uint16_t* bound_port,
                     int backlog = 64);

/// Connects to `host`:`port` with a connect deadline. The returned fd
/// is blocking (per-operation deadlines are enforced by the read/write
/// helpers below).
Result<int> ConnectTo(const std::string& host, uint16_t port,
                      double deadline_ms);

/// Writes all `size` bytes (short writes retried). kUnavailable on
/// deadline, kIOError when the peer is gone.
Status WriteFull(int fd, const char* data, size_t size,
                 double deadline_ms = 0.0);

/// Reads exactly `size` bytes. `eof_ok_at_start`: a clean EOF before
/// the first byte returns kIOError "connection closed" (the peer hung
/// up between frames — normal); EOF after at least one byte is always
/// kDataLoss (torn frame).
Status ReadFull(int fd, char* data, size_t size, double deadline_ms = 0.0);

/// Reads one complete frame (header + payload, checksum verified).
Result<Frame> ReadFrame(int fd, double deadline_ms = 0.0);

/// Writes one complete frame as a single buffer.
Status WriteFrame(int fd, FrameType type, uint64_t request_id,
                  const std::string& payload, double deadline_ms = 0.0);

/// True when `fd` has bytes ready to read within `wait_ms` (a cheap
/// poll; used by the hedging race in TabulaClient).
bool PollReadable(int fd, double wait_ms);

/// Polls two fds at once and reports which became readable first:
/// 0 → `fd_a`, 1 → `fd_b`, -1 → neither within `wait_ms`. Ties go to
/// `fd_a` (the primary). The hedging race: primary and hedge request
/// both in flight, first responder wins.
int PollFirstReadable(int fd_a, int fd_b, double wait_ms);

}  // namespace tabula

#endif  // TABULA_NET_SOCKET_H_
