//===- service/Socket.cpp - Minimal local-socket plumbing ------------------===//

#include "service/Socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lud;
using namespace lud::serve;

Fd &Fd::operator=(Fd &&O) noexcept {
  if (this != &O) {
    reset(O.RawFd);
    O.RawFd = -1;
  }
  return *this;
}

void Fd::reset(int NewFd) {
  if (RawFd >= 0)
    ::close(RawFd);
  RawFd = NewFd;
}

void lud::serve::ignoreSigpipe() {
  // MSG_NOSIGNAL covers sends, but a peer reset between poll and write can
  // still raise SIGPIPE through other paths; belt and braces.
  ::signal(SIGPIPE, SIG_IGN);
}

static std::string errnoMsg(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

Fd lud::serve::listenUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return Fd();
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  Fd S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S) {
    Err = errnoMsg("socket");
    return Fd();
  }
  ::unlink(Path.c_str()); // A stale socket file from a dead daemon.
  if (::bind(S.get(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = errnoMsg(("bind " + Path).c_str());
    return Fd();
  }
  if (::listen(S.get(), 64) != 0) {
    Err = errnoMsg("listen");
    return Fd();
  }
  return S;
}

Fd lud::serve::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return Fd();
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  Fd S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S) {
    Err = errnoMsg("socket");
    return Fd();
  }
  if (::connect(S.get(), reinterpret_cast<sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    Err = errnoMsg(("connect " + Path).c_str());
    return Fd();
  }
  return S;
}

Fd lud::serve::listenTcp(uint16_t Port, uint16_t &PortOut, std::string &Err) {
  Fd S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S) {
    Err = errnoMsg("socket");
    return Fd();
  }
  int One = 1;
  ::setsockopt(S.get(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Local-only, always.
  Addr.sin_port = htons(Port);
  if (::bind(S.get(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = errnoMsg("bind 127.0.0.1");
    return Fd();
  }
  if (::listen(S.get(), 64) != 0) {
    Err = errnoMsg("listen");
    return Fd();
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(S.get(), reinterpret_cast<sockaddr *>(&Addr), &Len) !=
      0) {
    Err = errnoMsg("getsockname");
    return Fd();
  }
  PortOut = ntohs(Addr.sin_port);
  return S;
}

Fd lud::serve::connectTcp(uint16_t Port, std::string &Err) {
  Fd S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S) {
    Err = errnoMsg("socket");
    return Fd();
  }
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(S.get(), reinterpret_cast<sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    Err = errnoMsg("connect 127.0.0.1");
    return Fd();
  }
  return S;
}

bool lud::serve::writeAll(int RawFd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len) {
#ifdef MSG_NOSIGNAL
    ssize_t N = ::send(RawFd, P, Len, MSG_NOSIGNAL);
#else
    ssize_t N = ::send(RawFd, P, Len, 0);
#endif
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= size_t(N);
  }
  return true;
}

bool lud::serve::writeAll(int RawFd, const std::string &S) {
  return writeAll(RawFd, S.data(), S.size());
}

bool SocketReader::fill() {
  char Tmp[16384];
  for (;;) {
    ssize_t N = ::recv(RawFd, Tmp, sizeof(Tmp), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    // Compact occasionally so a long-lived connection doesn't keep every
    // consumed byte around.
    if (Pos > 1 << 20) {
      Buf.erase(0, Pos);
      Pos = 0;
    }
    Buf.append(Tmp, size_t(N));
    return true;
  }
}

bool SocketReader::readLine(std::string &Line) {
  for (;;) {
    size_t NL = Buf.find('\n', Pos);
    size_t Len = (NL == std::string::npos ? Buf.size() : NL) - Pos;
    // Checked before buffering more: an unterminated line costs at most
    // kMaxLineBytes plus one fill().
    if (Len > kMaxLineBytes) {
      TooLong = true;
      return false;
    }
    if (NL != std::string::npos) {
      Line.assign(Buf, Pos, Len);
      Pos = NL + 1;
      return true;
    }
    if (!fill())
      return false;
  }
}

bool SocketReader::readExact(std::string &Out, size_t Len) {
  // What is already buffered comes first; the rest is received straight
  // into Out, so a large payload never grows Buf. Out is reserved once for
  // the whole payload (up to kMaxReserve), so a frame is one allocation
  // and no reallocation copies. It is sized, and so its pages touched,
  // only kStep at a time as bytes arrive: a length announced but never
  // sent costs address space, not memory.
  constexpr size_t kStep = size_t(1) << 20;
  constexpr size_t kMaxReserve = size_t(64) << 20;
  size_t Have = std::min(Len, Buf.size() - Pos);
  Out.clear();
  Out.reserve(std::min(Len, kMaxReserve));
  Out.append(Buf, Pos, Have);
  Pos += Have;
  if (Pos == Buf.size()) {
    Buf.clear();
    Pos = 0;
  }
  while (Have < Len) {
    if (Have == Out.size())
      Out.resize(Have + std::min(Len - Have, kStep));
    ssize_t N = ::recv(RawFd, &Out[Have], Out.size() - Have, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Out.resize(Have);
      return false;
    }
    Have += size_t(N);
  }
  return true;
}

void SocketReader::readToEnd(std::string &Out) {
  while (fill())
    ;
  Out.assign(Buf, Pos);
  Pos = Buf.size();
}
