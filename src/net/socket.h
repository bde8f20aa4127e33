#ifndef TABULA_NET_SOCKET_H_
#define TABULA_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// \brief Reads the frames of one connection through a receive buffer.
///
/// A receive takes whatever the socket holds, up to the buffer's free
/// space, so a frame the peer wrote whole costs one `recv`. Bytes past a
/// frame stay buffered and are the start of the next Read(), so frames
/// that arrive back to back are returned one by one, in order.
///
/// The buffer starts at kFloorBytes and doubles only when the bytes of
/// the frame being read fill it, never beyond that frame's size: its
/// capacity is at most max(kFloorBytes, 2 × bytes received), however
/// large a `payload_len` the header declares. Once every received byte
/// has been returned in a frame, a buffer that grew drops back to the
/// floor.
class FrameReader {
 public:
  /// The buffer a reader starts with; a constant, not an option.
  static constexpr size_t kFloorBytes = 16u << 10;

  /// `fd` must outlive the reader.
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Returns the next frame, checksum verified, receiving until the
  /// buffer holds one. `readable`: the caller's own poll just reported
  /// the socket readable, so the first receive does not poll again.
  /// A clean EOF before any byte of the frame is kIOError "connection
  /// closed"; an EOF or a receive error inside a frame is kDataLoss; the
  /// deadline passing is kUnavailable.
  Result<Frame> Read(double deadline_ms = 0.0, bool readable = false);

  /// Bytes received past the frames returned so far.
  size_t buffered() const { return end_ - begin_; }
  /// Bytes allocated for the buffer.
  size_t capacity() const { return capacity_; }

 private:
  /// Makes room at the end of the buffer for `frame_bytes` (the size of
  /// the frame at begin_, 0 while its header is incomplete).
  void MakeRoom(size_t frame_bytes);

  int fd_;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< first byte not yet returned in a frame
  size_t end_ = 0;    ///< one past the last byte received
};

/// Reads the one reply of a request/response exchange through a reader
/// scoped to this call. Bytes after that frame mean the peer broke
/// request/response: kDataLoss, and the caller closes the connection.
Result<Frame> ReadFrame(int fd, double deadline_ms = 0.0,
                        bool readable = false);

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
