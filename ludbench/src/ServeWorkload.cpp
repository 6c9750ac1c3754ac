//===- ludbench/src/ServeWorkload.cpp - serve -----------------------------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve: an in-process serve::Daemon over the composed tier. Set-up
/// generates the program, records its trace and starts the daemon. The
/// window then has two phases:
///
///  - ingest, a closed loop: up to three connections each stream their
///    share of the sessions, waiting for OK before the next FEED and for
///    DONE before the next OPEN. Every round starts a fresh daemon, so each
///    round folds the same session set; ingest_mevents_per_s is the median
///    over rounds of replayed events per second from the first FEED to the
///    last DONE reply.
///  - reports: one HTTP connection at a time issues back-to-back
///    GET /report against the last round's daemon. Every request folds the
///    same sessions, so every request does identical work.
///
/// No engine runs inside the window: the daemon drives the profiling layer
/// from decoded events. Load-generator threads plus daemon workers stay
/// within the processor count.
///
/// Output check: every /report body is byte-identical to rendering the
/// offline sequential ProfileSession::replay of the same traces.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "profiling/FrozenGraph.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Render.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"
#include "workloads/Composed.h"
#include "workloads/Driver.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace lud;
using namespace ludbench;

namespace {

/// Processors this process may run on (nproc).
unsigned processors() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return unsigned(std::max(1, CPU_COUNT(&Set)));
}

/// Sessions streamed per ingest round, and runs recorded per session (one
/// trace segment, hence one FEED, per run).
constexpr unsigned kSessions = 6;
constexpr unsigned kRunsPerSession = 2;
/// Requests an untraced report phase always makes: enough for a p90 with
/// ten samples beyond it. A traced run needs only enough for medians.
constexpr size_t kMinRequests = 100;
constexpr size_t kMinTracedRequests = 20;

struct Served {
  std::unique_ptr<Module> M;
  std::vector<std::string> Frames;
  uint64_t TraceEvents = 0;
  uint64_t TraceBytes = 0;
  std::unique_ptr<serve::Daemon> D;
};

serve::DaemonConfig daemonConfig(unsigned Workers) {
  serve::DaemonConfig Cfg;
  // Relative to the working directory: the benchmark writes only there.
  Cfg.SocketPath = "ludbench-" + std::to_string(::getpid()) + ".sock";
  Cfg.Workers = Workers;
  Cfg.Base = SessionConfig::profiled();
  Cfg.Spec.Report = true;
  Cfg.Spec.Dead = true;
  return Cfg;
}

bool startDaemon(Served &S, unsigned Workers, std::string &Err) {
  S.D.reset(); // Unbinds the previous daemon's socket first.
  S.D = std::make_unique<serve::Daemon>(*S.M, daemonConfig(Workers));
  return S.D->start(Err);
}

uint64_t serveCounter(serve::Daemon &D, const char *Name) {
  uint64_t V = 0;
  D.sessions().withStats([&](obs::MetricsRegistry &Reg) {
    obs::MetricId Id = Reg.find(Name);
    if (Id != obs::kNoMetric)
      V = Reg.value(Id);
  });
  return V;
}

struct IngestRound {
  bool Ok = true;
  std::string Error;
  uint64_t Events = 0;
  double Seconds = 0;
  double FeedSeconds = 0;
};

/// Streams kSessions sessions over \p Conns connections in a closed loop.
IngestRound ingest(const Served &S, unsigned Conns) {
  IngestRound Out;
  std::mutex Mu;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  Clock::time_point Last = Clock::now();
  auto Caller = [&](unsigned C) {
    uint64_t Events = 0;
    double Feed = 0;
    std::string Err;
    bool Ok = true;
    bool Waited = false;
    for (unsigned I = C; I < kSessions && Ok; I += Conns) {
      serve::ServeClient Client;
      Ok = Client.connect(S.D->socketPath(), Err) && Client.open(Err);
      if (!Waited) {
        // All callers start streaming together, so the window opens at
        // the first FEED.
        Waited = true;
        ++Ready;
        while (!Go)
          std::this_thread::yield();
      }
      for (size_t F = 0; Ok && F != S.Frames.size(); ++F) {
        Clock::time_point T0 = Clock::now();
        Ok = Client.feed(S.Frames[F], Err);
        Feed += secondsSince(T0);
      }
      Ok = Ok && Client.done(Err);
      Ok = Ok && Client.events() == S.TraceEvents;
      if (Ok)
        Events += Client.events();
      else if (Err.empty())
        Err = "session replayed an unexpected number of events";
    }
    if (!Waited) {
      ++Ready;
      while (!Go)
        std::this_thread::yield();
    }
    std::lock_guard<std::mutex> Lock(Mu);
    Last = std::max(Last, Clock::now());
    Out.Events += Events;
    Out.FeedSeconds += Feed;
    if (!Ok && Out.Ok) {
      Out.Ok = false;
      Out.Error = Err;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Conns; ++C)
    Threads.emplace_back(Caller, C);
  while (Ready != Conns)
    std::this_thread::yield();
  Clock::time_point T0 = Clock::now();
  Go = true;
  for (std::thread &T : Threads)
    T.join();
  Out.Seconds = std::chrono::duration<double>(Last - T0).count();
  return Out;
}

} // namespace

void ludbench::runServe(Run &R) {
  Tracer &T = R.tracer();
  const unsigned Procs = std::max(2u, processors());
  const unsigned Conns = std::min(3u, Procs / 2);
  const unsigned Workers = std::max(1u, Procs - Conns);
  const int64_t Scale = R.scaled(500, 36);

  Served S;
  bool Started = true;
  std::string Err;
  R.timeSetup([&] {
    S.D.reset();
    {
      Scope Sp(T, "workloads.generate");
      S.M = std::move(buildComposedWorkload(Scale).M);
    }
    {
      Scope Sp(T, "trace.record");
      SessionConfig Rec = SessionConfig::baseline();
      StringOutStream Sink;
      Rec.RecordSink = &Sink;
      ProfileSession PS(Rec);
      for (unsigned I = 0; I != kRunsPerSession; ++I)
        PS.run(*S.M);
      S.TraceEvents = PS.recorder()->events();
      S.TraceBytes = PS.recorder()->bytes();
      S.Frames.clear();
      Started = serve::splitSegments(Sink.str(), S.Frames, Err);
    }
    Scope Sp(T, "service.start");
    Started = Started && startDaemon(S, Workers, Err);
  });
  R.check(Started, "serve set-up failed: " + Err);
  if (!Started)
    return;
  shuffle(S.Frames, R.rng());

  // The expected body: the offline sequential replay of the same sessions.
  std::string Expected;
  double ReplaySeconds = 0;
  {
    SessionConfig Cfg = daemonConfig(Workers).Base;
    Cfg.CollectStats = true;
    ProfileSession PS(Cfg);
    uint64_t Events = 0;
    for (unsigned I = 0; I != kSessions; ++I)
      for (const std::string &F : S.Frames) {
        ReplayRun RR = PS.replay(*S.M, F);
        R.check(RR.Ok, "offline replay failed: " + RR.Error);
        Events += RR.Events;
        ReplaySeconds += RR.Seconds;
      }
    FrozenGraph FG(PS.slicing()->graph());
    StringOutStream OS;
    serve::renderReplayReport(*S.M, PS, FG, Events, kSessions,
                              daemonConfig(Workers).Spec, OS);
    Expected = OS.str();
    R.perLayer("profiling.gcost_nodes", double(FG.numNodes()));
    R.perLayer("profiling.gcost_edges", double(FG.numEdges()));
    R.perLayer("profiling.sealed_bytes", double(FG.memoryFootprint().total()));
    R.perLayer("profiling.build_bytes", buildBytes(*PS.stats()));
    R.perLayer("trace.replay_ns_per_event",
               1e9 * ReplaySeconds / double(Events));
  }
  if (R.args().CorruptDigest)
    Expected[Expected.size() / 2] ^= 1;

  // Ingest rounds, each against a fresh daemon.
  std::vector<double> Rates, WallRates, FeedWaits;
  uint64_t Opened = 0, Failed = 0;
  R.startWindow(0.4);
  for (size_t Round = 0; R.keepGoing(Round, 3); ++Round) {
    if (Round > 0) {
      Opened += serveCounter(*S.D, "serve.sessions_opened");
      Failed += serveCounter(*S.D, "serve.sessions_failed");
      if (!startDaemon(S, Workers, Err)) {
        R.check(false, "daemon did not restart: " + Err);
        return;
      }
    }
    IngestRound IR;
    double Scale = R.referenceScale([&] {
      Scope Sp(T, "service.ingest");
      IR = ingest(S, Conns);
    });
    R.check(IR.Ok, "ingest: " + IR.Error);
    if (IR.Ok && IR.Seconds > 0) {
      Rates.push_back(double(IR.Events) / (IR.Seconds * Scale) / 1e6);
      WallRates.push_back(double(IR.Events) / IR.Seconds / 1e6);
    }
    FeedWaits.push_back(IR.FeedSeconds);
  }
  Opened += serveCounter(*S.D, "serve.sessions_opened");
  Failed += serveCounter(*S.D, "serve.sessions_failed");
  R.check(Failed == 0, "daemon failed " + std::to_string(Failed) + " sessions");

  // Back-to-back reports. A traced run also folds, seals and renders
  // through the library directly on every request, to split the request's
  // time; half of those requests carry spans.
  std::vector<double> Latency, WallLatency, PassSeconds, Fold, Seal, Render;
  serve::SessionManager &Mgr = S.D->sessions();
  R.startWindow(0.6);
  const size_t MinRequests =
      R.args().Trace ? kMinTracedRequests : kMinRequests;
  for (size_t Req = 0; R.keepGoing(Req, MinRequests); ++Req) {
    bool Traced = R.args().Trace && Req % 2 == 1;
    T.setEnabled(Traced);
    // A traced run does not probe, so its pass starts here as well.
    Clock::time_point T0 = Clock::now();
    Scope PassSpan(T, "bench.pass");
    std::string Body;
    double HttpSeconds = 0;
    double Scale = R.referenceScale([&] {
      Clock::time_point Start = Clock::now();
      Scope Sp(T, "service.http");
      R.check(serve::httpGet(S.D->httpPort(), "/report", Body, Err),
              "GET /report: " + Err);
      HttpSeconds = secondsSince(Start);
    });
    Latency.push_back(HttpSeconds * Scale);
    WallLatency.push_back(HttpSeconds);
    R.check(Body == Expected,
            "/report differs from the offline sequential replay");
    if (!R.args().Trace)
      continue;
    uint64_t Events = 0, NumSessions = 0;
    Clock::time_point T1 = Clock::now();
    std::unique_ptr<ProfileSession> Folded;
    {
      Scope Sp(T, "service.fold");
      Folded = Mgr.foldClosed(Events, NumSessions);
    }
    R.check(Folded != nullptr, "no closed session to fold");
    if (!Folded)
      continue;
    Clock::time_point T2 = Clock::now();
    std::optional<FrozenGraph> FG;
    {
      Scope Sp(T, "profiling.seal");
      FG.emplace(Folded->slicing()->graph());
    }
    Clock::time_point T3 = Clock::now();
    StringOutStream OS;
    {
      Scope Sp(T, "service.render");
      serve::renderReplayReport(*S.M, *Folded, *FG, Events, NumSessions,
                                daemonConfig(Workers).Spec, OS);
    }
    Clock::time_point T4 = Clock::now();
    R.check(OS.str() == Expected,
            "folded report differs from the offline sequential replay");
    auto Sec = [](Clock::time_point A, Clock::time_point B) {
      return std::chrono::duration<double>(B - A).count();
    };
    Fold.push_back(Sec(T1, T2));
    Seal.push_back(Sec(T2, T3));
    Render.push_back(Sec(T3, T4));
    if (!Traced)
      PassSeconds.push_back(Sec(T0, T4));
  }
  T.setEnabled(false);
  S.D->stop();

  double P50 = median(Latency);
  double TailPct = tailPercentile(Latency.size());
  R.endToEnd("report_s", P50);
  R.endToEnd("ingest_mevents_per_s", median(Rates));
  R.extra("report_wall_s", median(WallLatency), "s");
  R.extra("ingest_wall_mevents_per_s", median(WallRates), "Mevents/s");
  R.extra("report_latency_s.p50", P50, "s");
  R.extra("report_latency_s.tail", percentile(Latency, TailPct),
          ("s (p" + std::to_string(TailPct).substr(0, 4) + " of " +
           std::to_string(Latency.size()) + " requests)")
              .c_str());
  if (!R.args().Trace)
    return;

  R.ledger(PassSeconds);
  std::vector<double> Gen, Rec;
  for (uint32_t Setup : T.roots("bench.setup")) {
    Gen.push_back(T.total(Setup, "workloads.generate"));
    Rec.push_back(T.total(Setup, "trace.record"));
  }
  R.perLayer("workloads.generate_s", median(Gen));
  R.perLayer("trace.record_s", median(Rec));
  R.perLayer("trace.bytes_per_event",
             double(S.TraceBytes) / double(S.TraceEvents));
  R.perLayer("service.feed_blocked_s", median(FeedWaits));
  R.perLayer("service.fold_s", median(Fold));
  R.perLayer("profiling.seal_s", median(Seal));
  R.perLayer("service.render_s", median(Render));
  R.perLayer("service.http_s",
             P50 - median(Fold) - median(Seal) - median(Render));
  R.perLayer("service.sessions_opened", double(Opened));
  R.perLayer("service.sessions_failed", double(Failed));
}
