//===- service/Socket.h - Minimal local-socket plumbing --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's transport layer, kept deliberately small: an fd RAII
/// wrapper, unix-domain and loopback-TCP listen/connect helpers, a
/// robust writeAll, and a buffered line/exact reader for the framed
/// ingest protocol. Everything is blocking — the daemon is
/// thread-per-connection — and local-only: the TCP listener binds
/// 127.0.0.1, never a routable address.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_SOCKET_H
#define LUD_SERVICE_SOCKET_H

#include <cstdint>
#include <string>

namespace lud {
namespace serve {

/// Owning file descriptor; -1 when empty.
class Fd {
public:
  Fd() = default;
  explicit Fd(int RawFd) : RawFd(RawFd) {}
  Fd(Fd &&O) noexcept : RawFd(O.RawFd) { O.RawFd = -1; }
  Fd &operator=(Fd &&O) noexcept;
  ~Fd() { reset(); }

  Fd(const Fd &) = delete;
  Fd &operator=(const Fd &) = delete;

  int get() const { return RawFd; }
  bool valid() const { return RawFd >= 0; }
  explicit operator bool() const { return valid(); }
  /// Closes the held descriptor (if any) and takes ownership of \p NewFd.
  void reset(int NewFd = -1);
  /// Releases ownership without closing.
  int release() {
    int R = RawFd;
    RawFd = -1;
    return R;
  }

private:
  int RawFd = -1;
};

/// Makes SIGPIPE a write error instead of process death. Idempotent;
/// every daemon/client entry point calls it.
void ignoreSigpipe();

/// Binds and listens on a unix-domain socket at \p Path (unlinking a
/// stale file first). Invalid Fd with \p Err set on failure.
Fd listenUnix(const std::string &Path, std::string &Err);
Fd connectUnix(const std::string &Path, std::string &Err);

/// Binds and listens on 127.0.0.1:\p Port (0 picks a free port); the
/// bound port comes back in \p PortOut.
Fd listenTcp(uint16_t Port, uint16_t &PortOut, std::string &Err);
Fd connectTcp(uint16_t Port, std::string &Err);

/// Writes all of \p Data, retrying on EINTR and partial writes.
bool writeAll(int RawFd, const void *Data, size_t Len);
bool writeAll(int RawFd, const std::string &S);

/// Buffered reader over a connected socket for the line-framed protocol:
/// '\n'-terminated command lines interleaved with exact-length binary
/// payloads.
class SocketReader {
public:
  /// Longest line readLine() accepts, '\n' excluded. No protocol line
  /// (ingest command, HTTP request or header) comes near it.
  static constexpr size_t kMaxLineBytes = 64 * 1024;

  explicit SocketReader(int RawFd) : RawFd(RawFd) {}

  /// Reads up to the next '\n' (consumed, not returned). False on EOF or
  /// error with nothing buffered, and on a line longer than kMaxLineBytes:
  /// lineTooLong() then says so, and the reader buffers nothing more.
  bool readLine(std::string &Line);
  bool lineTooLong() const { return TooLong; }
  /// Reads exactly \p Len bytes into \p Out: the bytes already buffered,
  /// then the rest received straight into \p Out (no staging copy, and the
  /// line buffer never holds a payload). \p Out is reserved for \p Len
  /// bytes (at most 64 MiB) but sized only as bytes arrive, so memory
  /// follows what was received, not what was announced. False on EOF or
  /// error first.
  bool readExact(std::string &Out, size_t Len);
  /// Reads everything up to EOF into \p Out.
  void readToEnd(std::string &Out);

private:
  bool fill();

  int RawFd;
  std::string Buf;
  size_t Pos = 0;
  bool TooLong = false;
};

} // namespace serve
} // namespace lud

#endif // LUD_SERVICE_SOCKET_H
