//===- bench/replay_bench.cpp - Live vs record vs replay -------------------===//
//
// The trace layer's cost model, measured three ways per workload:
//
//   live        — the ordinary profiled run (all clients), recording off.
//                 With recording disabled the session instantiates exactly
//                 the pre-trace pipelines, so this is also the "<2% when
//                 off" reference: there is no recorder branch on the hot
//                 path to pay for.
//   record      — the same run with a TraceRecorder composed ahead of the
//                 clients, encoding every hook into an in-memory sink.
//   replay-only — re-driving the same analyses from the recorded bytes,
//                 with no interpreter: the marginal cost of the analyses
//                 themselves, and the speedup ceiling for re-running a
//                 different client mix offline.
//
// A second table splits the trace layer's own cost on the composed tier,
// the shape lud-serve ingests: recording over the uninstrumented baseline
// run, decode (replay into the empty ComposedProfiler<>, so decode, checks
// and heap rebuild only), and replay into the substrate alone, which is
// what the daemon's sessions do.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/OutStream.h"
#include "workloads/Composed.h"
#include "trace/TraceRecorder.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

double liveSeconds(const Module &M, size_t *Nodes = nullptr,
                   size_t *Edges = nullptr) {
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  ProfileSession S(Cfg);
  double Sec = S.run(M).Seconds;
  if (Nodes)
    *Nodes = S.slicing()->graph().numNodes();
  if (Edges)
    *Edges = S.slicing()->graph().numEdges();
  return Sec;
}

double recordSeconds(const Module &M, std::string *TraceOut) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  double Sec = S.run(M).Seconds;
  if (TraceOut)
    *TraceOut = Sink.str();
  return Sec;
}

/// Replays \p Trace into a session built from \p Cfg (no recording).
double replayInto(SessionConfig Cfg, const Module &M,
                  const std::string &Trace) {
  ProfileSession S(std::move(Cfg));
  ReplayRun R = S.replay(M, Trace);
  if (!R.Ok) {
    std::fprintf(stderr, "replay failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return R.Seconds;
}

double replaySeconds(const Module &M, const std::string &Trace) {
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  return replayInto(std::move(Cfg), M, Trace);
}

/// Best of \p Reps calls of \p Fn, which returns seconds.
template <typename FnT> double bestOf(int Reps, FnT Fn) {
  double Best = Fn();
  for (int I = 1; I < Reps; ++I)
    Best = std::min(Best, Fn());
  return Best;
}

/// The trace layer's cost split on the composed tier.
void printSplitTable() {
  const int64_t S = tableScale() / 2;
  Workload W = buildComposedWorkload(S);
  const Module &M = *W.M;
  std::string Trace;
  uint64_t Events = 0;
  double Base = bestOf(3, [&] {
    ProfileSession Sess(SessionConfig::baseline());
    return Sess.run(M).Seconds;
  });
  double Rec = bestOf(3, [&] {
    StringOutStream Sink;
    SessionConfig Cfg = SessionConfig::baseline();
    Cfg.RecordSink = &Sink;
    ProfileSession Sess(Cfg);
    double Sec = Sess.run(M).Seconds;
    Events = Sess.recorder()->events();
    Trace = Sink.str();
    return Sec;
  });
  double Decode = bestOf(
      3, [&] { return replayInto(SessionConfig::baseline(), M, Trace); });
  double Substrate = bestOf(
      3, [&] { return replayInto(SessionConfig::profiled(), M, Trace); });

  std::printf("=== Trace layer split: composed tier (scale %lld, %llu "
              "events, %.1f B/event) ===\n",
              (long long)S, (unsigned long long)Events,
              Events ? double(Trace.size()) / double(Events) : 0.0);
  std::printf("%-22s %10s %12s\n", "row", "time", "ns/event");
  auto Row = [&](const char *Name, double Sec) {
    std::printf("%-22s %9.3fs %12.1f\n", Name, Sec,
                Events ? 1e9 * Sec / double(Events) : 0.0);
    emitJsonRow(std::string("replay/") + Name + "/composed", S, Sec, 0, 0);
  };
  Row("baseline", Base);
  Row("record_baseline", Rec);
  Row("decode", Decode);
  Row("substrate", Substrate);
  std::printf("record overhead: %.1f ns/event\n\n",
              Events ? 1e9 * (Rec - Base) / double(Events) : 0.0);
}

void printTable() {
  const int64_t S = tableScale() / 2;
  std::printf("=== Trace layer: live vs record vs replay-only "
              "(scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %10s %10s %12s %10s %10s\n", "workload", "live",
              "record", "replay-only", "rec-cost", "trace-KB");
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, S);
    size_t Nodes = 0, Edges = 0;
    double Live = liveSeconds(*W.M, &Nodes, &Edges);
    std::string Trace;
    double Rec = recordSeconds(*W.M, &Trace);
    double Rep = replaySeconds(*W.M, Trace);
    std::printf("%-12s %9.3fs %9.3fs %11.3fs %9.2fx %9.1f\n", Name.c_str(),
                Live, Rec, Rep, Live > 0 ? Rec / Live : 0,
                double(Trace.size()) / 1024.0);
    emitJsonRow("replay/live/" + Name, S, Live, Nodes, Edges);
    emitJsonRow("replay/record/" + Name, S, Rec, Nodes, Edges);
    emitJsonRow("replay/replay_only/" + Name, S, Rep, Nodes, Edges);
  }
  std::printf("\n");

  // Telemetry export: a recording session's registry carries the trace.*
  // gauges (events, bytes, per-phase attribution, compression).
  if (statsEnabled()) {
    Workload W = buildWorkload("eclipse", S);
    StringOutStream Sink;
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;
    Cfg.RecordSink = &Sink;
    Cfg.CollectStats = true;
    ProfileSession Sess(Cfg);
    Sess.run(*W.M);
    emitStats(Sess);
  }
}

/// Timing aspect: the live run, recording off (the overhead reference).
void BM_LiveAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(liveSeconds(*W.M));
  }
}

/// Timing aspect: the same run with the recorder composed in.
void BM_RecordAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(recordSeconds(*W.M, nullptr));
  }
}

/// Timing aspect: replaying the recorded hook stream, no interpreter.
void BM_ReplayAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  std::string Trace;
  recordSeconds(*W.M, &Trace);
  for (auto _ : State) {
    benchmark::DoNotOptimize(replaySeconds(*W.M, Trace));
  }
}

} // namespace

BENCHMARK(BM_LiveAllClients)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecordAllClients)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplayAllClients)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  initStats(&argc, argv);
  printTable();
  printSplitTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
