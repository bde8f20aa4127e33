#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>

#include "common/stopwatch.h"

namespace tabula {

void OwnedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// A positive wait in whole poll() milliseconds, rounded up so a 0.4 ms
/// budget polls 1 ms instead of busy-spinning, and clamped to INT_MAX
/// (a NaN wait clamps too) so the cast stays defined.
int CeilPollMs(double wait_ms) {
  if (!(wait_ms < static_cast<double>(INT_MAX))) return INT_MAX;
  return static_cast<int>(wait_ms) + 1;
}

/// Remaining budget for a poll() call: whole deadline left; <= 0
/// deadline → infinite (-1).
int PollBudgetMs(double deadline_ms, const Stopwatch& timer) {
  if (deadline_ms <= 0.0) return -1;
  double remaining = deadline_ms - timer.ElapsedMillis();
  if (remaining <= 0.0) return 0;
  return CeilPollMs(remaining);
}

}  // namespace

Result<int> ListenOn(uint16_t port, uint16_t* bound_port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  OwnedFd guard(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return guard.release();
}

Result<int> ConnectTo(const std::string& host, uint16_t port,
                      double deadline_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  OwnedFd guard(fd);
  int one = 1;
  // Frames are written whole; Nagle only adds latency on the
  // request/response pattern.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  // Non-blocking connect + poll so the deadline is honoured, then back
  // to blocking (per-operation deadlines come from the frame helpers).
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  if (rc != 0) {
    Stopwatch timer;
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, PollBudgetMs(deadline_ms, timer));
    if (ready <= 0) {
      return Status::Unavailable("connect deadline exceeded (" + host + ":" +
                                 std::to_string(port) + ")");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Status::IOError("connect " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return guard.release();
}

Status WriteFull(int fd, const char* data, size_t size, double deadline_ms) {
  Stopwatch timer;
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      int budget = PollBudgetMs(deadline_ms, timer);
      if (budget == 0 || ::poll(&pfd, 1, budget) <= 0) {
        return Status::Unavailable("write deadline exceeded");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

void FrameReader::MakeRoom(size_t frame_bytes) {
  if (begin_ > 0) {
    // The frame being read starts mid-buffer: move it to the front.
    std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ < capacity_) return;
  }
  // The frame's received bytes fill the buffer: double it, but never
  // past the frame's own size (known here: the floor holds a header).
  size_t grown = std::max(kFloorBytes, 2 * capacity_);
  if (frame_bytes > capacity_) grown = std::min(grown, frame_bytes);
  auto bigger = std::make_unique_for_overwrite<char[]>(grown);
  if (end_ > 0) std::memcpy(bigger.get(), buf_.get(), end_);
  buf_ = std::move(bigger);
  capacity_ = grown;
}

Result<Frame> FrameReader::Read(double deadline_ms, bool readable) {
  Stopwatch timer;
  bool poll_first = !readable;
  while (true) {
    const size_t have = end_ - begin_;
    size_t frame_bytes = 0;
    if (have >= kFrameHeaderBytes) {
      TABULA_ASSIGN_OR_RETURN(
          FrameHeader h,
          DecodeFrameHeader(buf_.get() + begin_, kFrameHeaderBytes));
      frame_bytes = kFrameHeaderBytes + h.payload_len;
      if (have >= frame_bytes) {
        Frame frame;
        frame.type = h.type;
        frame.request_id = h.request_id;
        frame.payload.assign(buf_.get() + begin_ + kFrameHeaderBytes,
                             h.payload_len);
        begin_ += frame_bytes;
        if (begin_ == end_) {
          begin_ = end_ = 0;
          if (capacity_ > kFloorBytes) {
            buf_.reset();
            capacity_ = 0;
          }
        }
        TABULA_RETURN_NOT_OK(CheckFramePayload(h, frame.payload));
        return frame;
      }
    }
    if (end_ == capacity_) MakeRoom(frame_bytes);
    if (poll_first) {
      pollfd pfd{fd_, POLLIN, 0};
      int budget = PollBudgetMs(deadline_ms, timer);
      if (budget == 0) return Status::Unavailable("read deadline exceeded");
      int ready = ::poll(&pfd, 1, budget);
      if (ready == 0) return Status::Unavailable("read deadline exceeded");
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Errno("poll");
      }
    }
    poll_first = true;
    ssize_t n = ::recv(fd_, buf_.get() + end_, capacity_ - end_,
                       MSG_DONTWAIT);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // Clean EOF: between frames it is an orderly hang-up; inside a
      // frame the stream tore mid-record.
      if (have == 0) return Status::IOError("connection closed");
      return Status::DataLoss("connection closed mid-frame (torn frame, " +
                              std::to_string(have) + " bytes received)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == EINTR) {
      poll_first = false;
      continue;
    }
    if (have == 0) return Errno("recv");
    // A frame that cannot be completed is torn regardless of why the
    // bytes stopped: the stream is unframeable now.
    return Status::DataLoss("torn frame: " + Errno("recv").message());
  }
}

Result<Frame> ReadFrame(int fd, double deadline_ms, bool readable) {
  FrameReader reader(fd);
  TABULA_ASSIGN_OR_RETURN(Frame frame, reader.Read(deadline_ms, readable));
  if (reader.buffered() != 0) {
    return Status::DataLoss(std::to_string(reader.buffered()) +
                            " stray bytes after a " +
                            FrameTypeName(frame.type) + " reply");
  }
  return frame;
}

Status WriteFrame(int fd, FrameType type, uint64_t request_id,
                  const std::string& payload, double deadline_ms) {
  std::string frame = EncodeFrame(type, request_id, payload);
  return WriteFull(fd, frame.data(), frame.size(), deadline_ms);
}

bool PollReadable(int fd, double wait_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int budget = wait_ms <= 0.0 ? 0 : CeilPollMs(wait_ms);
  return ::poll(&pfd, 1, budget) > 0;
}

int PollFirstReadable(int fd_a, int fd_b, double wait_ms) {
  pollfd pfds[2] = {{fd_a, POLLIN, 0}, {fd_b, POLLIN, 0}};
  int budget = wait_ms <= 0.0 ? 0 : CeilPollMs(wait_ms);
  int ready = ::poll(pfds, 2, budget);
  if (ready <= 0) return -1;
  if (pfds[0].revents != 0) return 0;
  return 1;
}

}  // namespace tabula
