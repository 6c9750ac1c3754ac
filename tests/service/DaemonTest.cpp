//===- tests/service/DaemonTest.cpp - End-to-end daemon tests -------------===//
//
// The lud-serve daemon over real sockets: streamed ingest sessions whose
// folded GET /report is byte-identical to the offline renderer over the
// same traces (the ISSUE's acceptance diff, at 1 and 4 worker threads,
// with interleaved frames), per-session failure isolation with verbatim
// diagnostics on the wire, the telemetry endpoints, and clean shutdown.
//
//===----------------------------------------------------------------------===//

#include "profiling/FrozenGraph.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Render.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lud;
using namespace lud::serve;

namespace {

SessionConfig allClientsConfig() {
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  return Cfg;
}

std::string recordTrace(const Module &M, unsigned Runs = 1) {
  StringOutStream Sink;
  SessionConfig Cfg = allClientsConfig();
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  for (unsigned I = 0; I != Runs; ++I)
    S.run(M);
  return Sink.str();
}

/// A unique-per-test unix socket path under /tmp.
std::string socketPath(const char *Tag) {
  return "/tmp/lud-daemon-test-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

ReportSpec fullSpec() {
  ReportSpec Spec;
  Spec.Report = true;
  Spec.Dead = true;
  Spec.Caches = true;
  return Spec;
}

/// What GET /report must serve: the sequential replay of \p Traces
/// rendered through the shared renderer — lud-replay's output.
std::string offlineReport(const Module &M,
                          const std::vector<std::string> &Traces,
                          const ReportSpec &Spec) {
  ProfileSession S(allClientsConfig());
  uint64_t Events = 0;
  for (const std::string &T : Traces) {
    ReplayRun R = S.replay(M, T);
    EXPECT_TRUE(R.Ok) << R.Error;
    Events += R.Events;
  }
  FrozenGraph FG(S.slicing()->graph());
  if (S.stats())
    FG.accountStats(*S.stats());
  StringOutStream OS;
  renderReplayReport(M, S, FG, Events, Traces.size(), Spec, OS);
  return OS.str();
}

DaemonConfig daemonConfig(const std::string &Socket, unsigned Workers) {
  DaemonConfig Cfg;
  Cfg.SocketPath = Socket;
  Cfg.HttpPort = 0; // Pick a free port.
  Cfg.Workers = Workers;
  Cfg.Base = allClientsConfig();
  Cfg.Spec = fullSpec();
  return Cfg;
}

// The ISSUE's end-to-end acceptance bar: N interleaved streamed sessions,
// fetched over HTTP, byte-identical to the offline sequential replay — at
// worker counts 1 and 4.
TEST(DaemonTest, InterleavedSessionsReportMatchesOfflineReplay) {
  Workload W = buildWorkload("fop", 50);
  std::vector<std::string> Traces = {recordTrace(*W.M, 3),
                                     recordTrace(*W.M, 2),
                                     recordTrace(*W.M, 1)};
  std::string Want = offlineReport(*W.M, Traces, fullSpec());

  for (unsigned Workers : {1u, 4u}) {
    std::string Socket =
        socketPath(Workers == 1 ? "interleave1" : "interleave4");
    Daemon D(*W.M, daemonConfig(Socket, Workers));
    std::string Err;
    ASSERT_TRUE(D.start(Err)) << Err;

    // One connection per trace; whole-segment frames round-robin across
    // the connections so the daemon sees them interleaved.
    std::vector<ServeClient> Clients(Traces.size());
    std::vector<std::vector<std::string>> Frames(Traces.size());
    for (size_t I = 0; I != Traces.size(); ++I) {
      ASSERT_TRUE(splitSegments(Traces[I], Frames[I], Err)) << Err;
      ASSERT_TRUE(Clients[I].connect(Socket, Err)) << Err;
      ASSERT_TRUE(Clients[I].open(Err)) << Err;
      EXPECT_EQ(Clients[I].id(), I + 1);
    }
    for (size_t Round = 0, More = 1; More; ++Round) {
      More = 0;
      for (size_t I = 0; I != Clients.size(); ++I) {
        if (Round >= Frames[I].size())
          continue;
        More = 1;
        ASSERT_TRUE(Clients[I].feed(Frames[I][Round], Err)) << Err;
      }
    }
    for (size_t I = 0; I != Clients.size(); ++I) {
      ASSERT_TRUE(Clients[I].done(Err)) << Err;
      EXPECT_EQ(Clients[I].segments(), Frames[I].size());
      Clients[I].close();
    }

    std::string Body;
    ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
    EXPECT_EQ(Body, Want) << "workers=" << Workers;

    // Serving the report is non-destructive: fetch it again.
    ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
    EXPECT_EQ(Body, Want);
    D.stop();
  }
}

// A corrupt stream terminates only its own session; the ERR line carries
// the TraceIO diagnostic verbatim, and the sibling session still serves
// the exact single-trace report.
TEST(DaemonTest, CorruptSessionIsIsolatedWithVerbatimDiagnostic) {
  Workload W = buildWorkload("chart", 60);
  std::string Good = recordTrace(*W.M);
  std::string Bad = "not a lud.trace.v1 stream";

  std::string WantDiag;
  {
    ProfileSession Direct(allClientsConfig());
    ReplayRun R = Direct.replay(*W.M, Bad);
    ASSERT_FALSE(R.Ok);
    WantDiag = R.Error;
  }

  std::string Socket = socketPath("corrupt");
  Daemon D(*W.M, daemonConfig(Socket, 2));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  ServeClient CBad, CGood;
  ASSERT_TRUE(CBad.connect(Socket, Err)) << Err;
  ASSERT_TRUE(CBad.open(Err)) << Err;
  ASSERT_TRUE(CGood.connect(Socket, Err)) << Err;
  ASSERT_TRUE(CGood.open(Err)) << Err;

  ASSERT_TRUE(CBad.feed(Bad, Err)) << Err; // Queued; fails on replay.
  EXPECT_FALSE(CBad.done(Err));
  EXPECT_EQ(Err, WantDiag); // Verbatim over the wire.

  ASSERT_TRUE(CGood.feed(Good, Err)) << Err;
  ASSERT_TRUE(CGood.done(Err)) << Err;
  CBad.close();
  CGood.close();

  std::string Body;
  ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
  EXPECT_EQ(Body, offlineReport(*W.M, {Good}, fullSpec()));

  // The roster shows the failed session with its diagnostic.
  ASSERT_TRUE(httpGet(D.httpPort(), "/sessions", Body, Err)) << Err;
  EXPECT_NE(Body.find("\"failed\""), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"closed\""), std::string::npos) << Body;
  D.stop();
}

TEST(DaemonTest, SessionsCanPickTheirOwnClientSet) {
  Workload W = buildWorkload("chart", 50);
  std::string Trace = recordTrace(*W.M);

  std::string Socket = socketPath("clients");
  Daemon D(*W.M, daemonConfig(Socket, 2));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  ServeClient C;
  ASSERT_TRUE(C.connect(Socket, Err)) << Err;
  ASSERT_TRUE(C.open(ClientSet::nullness(), Err)) << Err;
  SessionHandle *H = D.sessions().find(C.id());
  ASSERT_TRUE(H);
  EXPECT_EQ(H->clients(), ClientSet::nullness());
  ASSERT_TRUE(C.feed(Trace, Err)) << Err;
  ASSERT_TRUE(C.done(Err)) << Err;
  C.close();
  D.stop();
}

TEST(DaemonTest, TelemetryAndHealthEndpoints) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("telemetry");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  std::string Body;
  ASSERT_TRUE(httpGet(D.httpPort(), "/healthz", Body, Err)) << Err;
  EXPECT_EQ(Body, "ok\n");

  // No completed sessions yet: /report is a 404, not an empty report.
  EXPECT_FALSE(httpGet(D.httpPort(), "/report", Body, Err));

  std::string Trace = recordTrace(*W.M);
  ServeClient C;
  ASSERT_TRUE(C.connect(Socket, Err)) << Err;
  ASSERT_TRUE(C.open(Err)) << Err;
  ASSERT_TRUE(C.feed(Trace, Err)) << Err;
  ASSERT_TRUE(C.done(Err)) << Err;
  C.close();

  ASSERT_TRUE(httpGet(D.httpPort(), "/stats", Body, Err)) << Err;
  EXPECT_NE(Body.find("lud.stats.v1"), std::string::npos);
  EXPECT_NE(Body.find("serve.sessions_closed"), std::string::npos);
  EXPECT_NE(Body.find("serve.http_requests"), std::string::npos);

  ASSERT_TRUE(httpGet(D.httpPort(), "/sessions", Body, Err)) << Err;
  EXPECT_NE(Body.find("\"id\": 1"), std::string::npos) << Body;
  D.stop();
}

TEST(SocketReaderTest, LinesAreBoundedBeforeBuffering) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  Fd Reader(Pair[0]), Writer(Pair[1]);
  const size_t Max = SocketReader::kMaxLineBytes;
  std::thread Feed([&] {
    writeAll(Writer.get(), std::string(Max, 'x') + "\n");
    writeAll(Writer.get(), std::string(Max + 1, 'y'));
    writeAll(Writer.get(), std::string(Max, 'z') + "\n");
    Writer.reset();
  });
  SocketReader In(Reader.get());
  std::string Line;
  // A line of exactly the limit is accepted...
  ASSERT_TRUE(In.readLine(Line));
  EXPECT_EQ(Line, std::string(Max, 'x'));
  EXPECT_FALSE(In.lineTooLong());
  // ...one byte more is refused, although its '\n' follows later.
  EXPECT_FALSE(In.readLine(Line));
  EXPECT_TRUE(In.lineTooLong());
  Feed.join();
}

TEST(SocketReaderTest, PayloadSplitBetweenBufferAndSocket) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  Fd Reader(Pair[0]), Writer(Pair[1]);
  SocketReader In(Reader.get());
  std::string Line, Payload;

  // The line and the payload's head arrive together, so reading the line
  // buffers "abc"; the tail is still unsent.
  ASSERT_TRUE(writeAll(Writer.get(), "FEED 8\nabc"));
  ASSERT_TRUE(In.readLine(Line));
  EXPECT_EQ(Line, "FEED 8");
  ASSERT_TRUE(writeAll(Writer.get(), "defghNEXT\n"));
  ASSERT_TRUE(In.readExact(Payload, 8));
  EXPECT_EQ(Payload, "abcdefgh");
  ASSERT_TRUE(In.readLine(Line));
  EXPECT_EQ(Line, "NEXT");

  // A payload larger than the socket buffer, received straight into the
  // caller's string while the writer is still sending.
  std::string Big(3 << 20, '\0');
  for (size_t I = 0; I != Big.size(); ++I)
    Big[I] = char(I * 131 + (I >> 9));
  std::thread Feed([&] {
    writeAll(Writer.get(), "x" + Big + "END\n");
    Writer.reset();
  });
  ASSERT_TRUE(In.readExact(Payload, 1));
  EXPECT_EQ(Payload, "x");
  ASSERT_TRUE(In.readExact(Payload, Big.size()));
  EXPECT_TRUE(Payload == Big);
  ASSERT_TRUE(In.readLine(Line));
  EXPECT_EQ(Line, "END");
  Feed.join();
  // EOF before the payload is complete fails.
  EXPECT_FALSE(In.readExact(Payload, 1));
}

/// This process's resident set size in KiB, from /proc/self/status.
size_t residentKiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::stoul(Line.substr(6));
  return 0;
}

TEST(SocketReaderTest, AnnouncedLengthCommitsOnlyWhatArrives) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  Fd Reader(Pair[0]), Writer(Pair[1]);
  SocketReader In(Reader.get());
  std::string Line, Payload;
  // A FEED header announcing 256 MiB, followed by ten bytes and a hang-up:
  // the payload may reserve address space, but the memory it touches must
  // follow the ten bytes, not the announcement.
  ASSERT_TRUE(writeAll(Writer.get(), "FEED 268435456\n0123456789"));
  Writer.reset();
  ASSERT_TRUE(In.readLine(Line));
  size_t Before = residentKiB();
  ASSERT_GT(Before, 0u);
  EXPECT_FALSE(In.readExact(Payload, size_t(1) << 28));
  EXPECT_EQ(Payload, "0123456789");
  EXPECT_LT(residentKiB(), Before + 32 * 1024);
}

/// Connects to the ingest socket with a receive timeout, so a daemon that
/// wrongly waits for more bytes fails the test instead of hanging it.
Fd connectWithTimeout(const std::string &Socket) {
  std::string Err;
  Fd Conn = connectUnix(Socket, Err);
  EXPECT_TRUE(Conn) << Err;
  timeval TV{10, 0};
  ::setsockopt(Conn.get(), SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  return Conn;
}

TEST(DaemonTest, OverlongCommandLineIsRefused) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("longline");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  Fd Conn = connectWithTimeout(Socket);
  SocketReader In(Conn.get());
  std::string Reply;
  ASSERT_TRUE(writeAll(Conn.get(), "OPEN\n"));
  ASSERT_TRUE(In.readLine(Reply));
  ASSERT_EQ(Reply.rfind("OK id=", 0), 0u) << Reply;
  ASSERT_TRUE(writeAll(Conn.get(),
                       std::string(SocketReader::kMaxLineBytes + 100, 'A')));
  ASSERT_TRUE(In.readLine(Reply));
  EXPECT_EQ(Reply, "ERR line too long");
  EXPECT_FALSE(In.readLine(Reply)); // And the daemon hung up.
  EXPECT_FALSE(In.lineTooLong());
  ASSERT_EQ(D.sessions().sessions().size(), 1u);
  EXPECT_EQ(D.sessions().sessions()[0]->state(), SessionState::Failed);
  EXPECT_EQ(D.sessions().sessions()[0]->error(), "line too long");

  // HTTP: an over-long request line is a 414.
  std::string Body;
  EXPECT_FALSE(httpGet(D.httpPort(),
                       "/" + std::string(SocketReader::kMaxLineBytes, 'p'),
                       Body, Err));
  EXPECT_NE(Err.find("414"), std::string::npos) << Err;
  D.stop();
}

TEST(DaemonTest, FeedLengthIsCheckedAgainstTheQuotaBeforeReading) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("feedquota");
  DaemonConfig Cfg = daemonConfig(Socket, 1);
  Cfg.Limits.MaxSessionBytes = 1000;
  Daemon D(*W.M, Cfg);
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  Fd Conn = connectWithTimeout(Socket);
  SocketReader In(Conn.get());
  std::string Reply;
  ASSERT_TRUE(writeAll(Conn.get(), "OPEN\n"));
  ASSERT_TRUE(In.readLine(Reply));
  ASSERT_EQ(Reply.rfind("OK id=", 0), 0u) << Reply;
  // Announce a gigabyte and send none of it: the refusal must come from
  // the header alone.
  ASSERT_TRUE(writeAll(Conn.get(), "FEED 1000000000\n"));
  ASSERT_TRUE(In.readLine(Reply));
  EXPECT_EQ(Reply,
            "ERR session quota exceeded (0 + 1000000000 > 1000 bytes)");
  EXPECT_FALSE(In.readLine(Reply)); // The link is dropped.
  SessionHandle *H = D.sessions().sessions()[0];
  EXPECT_EQ(H->state(), SessionState::Failed);
  EXPECT_EQ(H->bytesFed(), 0u);
  D.stop();
}

/// The value of metric \p Name in the lud.stats.v1 body \p Json; 0 when
/// the registry has no such metric yet.
uint64_t statValue(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"name\": \"" + Name + "\"");
  if (At == std::string::npos)
    return 0;
  At = Json.find("\"value\": ", At);
  return At == std::string::npos ? 0 : std::stoull(Json.substr(At + 9));
}

TEST(DaemonTest, FinishedConnectionThreadsAreJoined) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("reap");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;
  std::string Body;
  for (int I = 0; I != 40; ++I)
    ASSERT_TRUE(httpGet(D.httpPort(), "/healthz", Body, Err)) << Err;
  // Each accept joins the handler threads that have exited since the last
  // one. Once every earlier handler has exited, a /stats request finds all
  // connections but its own joined.
  bool AllJoined = false;
  for (int I = 0; I != 500 && !AllJoined; ++I) {
    ASSERT_TRUE(httpGet(D.httpPort(), "/stats", Body, Err)) << Err;
    uint64_t Conns = statValue(Body, "serve.http_connections");
    AllJoined = Conns > 40 &&
                statValue(Body, "serve.connection_threads_joined") ==
                    Conns - 1;
    if (!AllJoined)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(AllJoined) << Body;
  D.stop();
}

TEST(DaemonTest, StopShutsListenersDownCleanly) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("stop");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;
  EXPECT_TRUE(D.running());
  uint16_t Port = D.httpPort();
  EXPECT_NE(Port, 0);

  D.stop();
  EXPECT_FALSE(D.running());
  std::string Body;
  EXPECT_FALSE(httpGet(Port, "/healthz", Body, Err));
  ServeClient C;
  EXPECT_FALSE(C.connect(Socket, Err));
  D.stop(); // Idempotent.
}

} // namespace
