//===- ludbench/src/ReportWorkloads.cpp - deep and wide -------------------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two report workloads share one pass: profile each program, seal the
/// graph, run the analyses and render the report text. They stress opposite
/// dimensions of it:
///
///  - deep: the 18 DaCapo analogues, all three clients on. Each program has
///    a small static shape (a few hundred Gcost nodes) and a long dynamic
///    run, so the engine, the tracking and the clients carry the time and
///    seal/analysis cost almost nothing.
///  - wide: the composed tier (1000 tiles, ~128K nodes), substrate only,
///    starting each pass from program text. The static dimension is large,
///    so parse, graph-build memory, seal and the full analysis set carry
///    the weight that deep leaves out.
///
/// Output checks: every profiled run's status, result, sink hash and
/// instruction count equal the uninstrumented run on the reference
/// Interpreter; every pass renders the same report digest; and before the
/// window opens, the direct-threaded engine renders the same digest too.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/CacheCost.h"
#include "analysis/Clients.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <optional>

using namespace lud;
using namespace ludbench;

namespace {

/// What distinguishes deep from wide.
struct Shape {
  /// Each pass parses the program text first.
  bool Parse = false;
  ClientSet Clients;
  /// Overwrites, predicates, methods and caches (lud-run --all).
  bool AllSections = false;
};

struct Program {
  std::string Name;
  std::unique_ptr<Module> M;
  /// Printed program (wide: the pass input).
  std::string Text;
  /// The reference Interpreter's uninstrumented run.
  RunResult Ref;
  uint64_t Digest = 0;
};

struct Rendered {
  RunResult Run;
  size_t SealedBytes = 0;
  std::string Text;
};

constexpr size_t kTopK = 15;

/// One program through the pass: profile, seal, analyze, render.
Rendered renderReport(Tracer &T, const Module &M, const Shape &S,
                      EngineKind Engine) {
  Rendered Out;
  SessionConfig Cfg;
  Cfg.Engine = Engine;
  Cfg.Clients = S.Clients;
  std::optional<ProfileSession> Session;
  {
    Scope Sp(T, "profiling.run");
    Session.emplace(Cfg);
    Out.Run = Session->run(M).Run;
  }
  const SlicingProfiler &Prof = *Session->slicing();
  std::optional<FrozenGraph> FG;
  {
    Scope Sp(T, "profiling.seal");
    FG.emplace(Prof.graph());
  }
  Out.SealedBytes = FG->memoryFootprint().total();
  std::optional<CostModel> CM;
  {
    Scope Sp(T, "analysis.costmodel");
    CM.emplace(*FG);
  }
  StringOutStream OS;
  OS << "Gcost: " << uint64_t(FG->numNodes()) << " nodes, "
     << uint64_t(FG->numEdges()) << " edges\n";
  {
    Scope Sp(T, "analysis.report");
    LowUtilityReport Report(*CM, M);
    OS << "\n=== low-utility data structures ===\n";
    Report.print(OS, kTopK);
  }
  {
    Scope Sp(T, "analysis.extras");
    ClientOptions CO;
    if (S.AllSections) {
      OS << "\n=== locations rewritten before read ===\n";
      printOverwrites(rankOverwrites(Prof, M, CO), OS, kTopK);
      OS << "\n=== always-constant predicates ===\n";
      printConstantPredicates(findConstantPredicates(Prof, *CM, M, CO), OS,
                              kTopK);
      OS << "\n=== costliest method return values ===\n";
      printMethodCosts(computeMethodCosts(*CM, M), OS, kTopK);
      OS << "\n=== cache effectiveness (least effective first) ===\n";
      printCacheScores(rankCacheEffectiveness(*CM, M), OS, kTopK);
    }
    Session->printClientReports(M, OS, kTopK);
  }
  {
    Scope Sp(T, "analysis.dead");
    DeadValueAnalysis DV = computeDeadValues(*FG, Out.Run.ExecutedInstrs);
    OS << "\n=== bloat metrics ===\nIPD ";
    OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
    OS << "%   IPP ";
    OS.printFixed(100.0 * DV.Metrics.ipp(), 1);
    OS << "%   NLD ";
    OS.printFixed(100.0 * DV.Metrics.nld(), 1);
    OS << "%\n";
  }
  Out.Text = OS.str();
  return Out;
}

bool sameRun(const RunResult &A, const RunResult &B) {
  return A.Status == B.Status &&
         A.ReturnValue.asInt() == B.ReturnValue.asInt() &&
         A.SinkHash == B.SinkHash && A.ExecutedInstrs == B.ExecutedInstrs;
}

/// The cost ladder, one rung per separate run through public configs:
/// baseline, substrate without hot-path caches, substrate, plus clients,
/// plus the trace recorder, then a replay of the recording. No span is
/// placed inside ProfileSession::run; the rungs' differences attribute
/// the run's time to runtime, tracking, clients and recording.
struct Ladder {
  double Base = 0, NoCache = 0, Substrate = 0, Clients = 0, Record = 0,
         Replay = 0;
  uint64_t Instrs = 0, Events = 0, TraceBytes = 0;
  uint64_t Nodes = 0, Edges = 0, BuildBytes = 0;
};

double timedRun(const Module &M, SessionConfig Cfg, Ladder *Gauges) {
  Cfg.CollectStats = Gauges != nullptr;
  ProfileSession S(Cfg);
  double Sec = S.run(M).Seconds;
  if (Gauges) {
    const DepGraph &G = S.slicing()->graph();
    Gauges->Nodes += G.numNodes();
    Gauges->Edges += G.numEdges();
    Gauges->BuildBytes += uint64_t(buildBytes(*S.stats()));
  }
  return Sec;
}

Ladder climb(Run &R, const Module &M, const Shape &S) {
  Ladder L;
  SessionConfig Base = SessionConfig::baseline();
  Base.Engine = EngineKind::Interp;
  {
    ProfileSession BS(Base);
    TimedRun TR = BS.run(M);
    L.Base = TR.Seconds;
    L.Instrs = TR.Run.ExecutedInstrs;
  }
  SessionConfig Prof = SessionConfig::profiled();
  Prof.Engine = EngineKind::Interp;
  SessionConfig NoCache = Prof;
  NoCache.Slicing.HotPathCaches = false;
  L.NoCache = timedRun(M, NoCache, nullptr);
  L.Substrate = timedRun(M, Prof, &L);
  SessionConfig All = Prof;
  All.Clients = ClientSet::all();
  L.Clients = timedRun(M, All, nullptr);

  SessionConfig Rec = Prof;
  Rec.Clients = S.Clients;
  StringOutStream Sink;
  Rec.RecordSink = &Sink;
  {
    ProfileSession RS(Rec);
    L.Record = RS.run(M).Seconds;
    L.Events = RS.recorder()->events();
    L.TraceBytes = RS.recorder()->bytes();
  }
  SessionConfig Rep = Prof;
  Rep.Clients = S.Clients;
  ProfileSession PS(Rep);
  ReplayRun RR = PS.replay(M, Sink.str());
  R.check(RR.Ok && RR.Events == L.Events, "ladder replay: " + RR.Error);
  L.Replay = RR.Seconds;
  return L;
}

void runReportWorkload(Run &R, const Shape &S,
                       const std::function<std::vector<Program>()> &Make) {
  Tracer &T = R.tracer();
  std::vector<Program> Progs;
  R.timeSetup([&] { Progs = Make(); });
  shuffle(Progs, R.rng());

  // Output-check preparation (not timed): the reference runs and the
  // report digests on both engines.
  for (Program &P : Progs) {
    if (S.Parse) {
      std::vector<std::string> Errors;
      P.M = parseModule(P.Text, Errors);
      R.check(P.M != nullptr, P.Name + ": printed program does not parse");
      if (!P.M)
        return;
    }
    P.Ref = referenceRun(*P.M);
    Tracer Off;
    Rendered A = renderReport(Off, *P.M, S, EngineKind::Interp);
    Rendered B = renderReport(Off, *P.M, S, EngineKind::Threaded);
    P.Digest = digest(A.Text);
    R.check(sameRun(A.Run, P.Ref) && A.Run.Status == RunStatus::Finished,
            P.Name + ": profiled run differs from the reference run");
    R.check(digest(B.Text) == P.Digest,
            P.Name + ": threaded engine renders a different report");
    if (R.args().CorruptDigest)
      P.Digest ^= 1;
  }

  // Each program's wall and reference seconds, per untraced pass; report_s
  // sums the programs' medians.
  std::vector<std::vector<double>> WallSeconds(Progs.size()),
      RefSeconds(Progs.size());
  std::vector<double> PassSeconds, SealedBytes;
  uint64_t PassInstrs = 0;
  R.startWindow(R.args().Trace ? 0.6 : 1.0);
  for (size_t Pass = 0; R.keepGoing(Pass, 3); ++Pass) {
    bool Traced = R.args().Trace && Pass % 2 == 1;
    T.setEnabled(Traced);
    uint64_t Instrs = 0;
    double Sealed = 0;
    Clock::time_point PassStart = Clock::now();
    Scope PassSpan(T, "bench.pass");
    for (size_t I = 0; I != Progs.size(); ++I) {
      Program &P = Progs[I];
      std::optional<Rendered> Out;
      double Sec = 0;
      double Scale = R.referenceScale([&] {
        Clock::time_point T0 = Clock::now();
        std::unique_ptr<Module> Parsed;
        if (S.Parse) {
          Scope Sp(T, "ir.parse");
          std::vector<std::string> Errors;
          Parsed = parseModule(P.Text, Errors);
        }
        const Module *M = S.Parse ? Parsed.get() : P.M.get();
        if (M)
          Out = renderReport(T, *M, S, EngineKind::Interp);
        Sec = secondsSince(T0);
      });
      if (!Out) {
        R.check(false, P.Name + ": program text no longer parses");
        continue;
      }
      R.check(sameRun(Out->Run, P.Ref),
              P.Name + ": profiled run differs from the reference run");
      R.check(digest(Out->Text) == P.Digest,
              P.Name + ": report digest differs from the expected report");
      Instrs += Out->Run.ExecutedInstrs;
      Sealed += double(Out->SealedBytes);
      if (!Traced) {
        WallSeconds[I].push_back(Sec);
        RefSeconds[I].push_back(Sec * Scale);
      }
    }
    if (!Traced)
      PassSeconds.push_back(secondsSince(PassStart));
    SealedBytes.push_back(Sealed);
    PassInstrs = Instrs;
  }
  T.setEnabled(false);
  double ReportS = sumOfMedians(RefSeconds);
  R.endToEnd("report_s", ReportS);
  R.endToEnd("ingest_mevents_per_s", double(PassInstrs) / ReportS / 1e6);
  R.extra("report_wall_s", sumOfMedians(WallSeconds), "s");
  if (!R.args().Trace)
    return;

  // The per-layer ledger: span totals per traced pass, then the ladder.
  R.ledger(PassSeconds);
  std::vector<uint32_t> Passes = T.roots("bench.pass");
  auto PerPass = [&](const char *Name) {
    std::vector<double> V;
    for (uint32_t P : Passes)
      V.push_back(T.total(P, Name));
    return median(V);
  };
  std::vector<double> Gen;
  for (uint32_t Setup : T.roots("bench.setup"))
    Gen.push_back(T.total(Setup, "workloads.generate"));
  R.perLayer("workloads.generate_s", median(Gen));
  R.perLayer("ir.parse_s", PerPass("ir.parse"));
  R.perLayer("profiling.seal_s", PerPass("profiling.seal"));
  R.perLayer("profiling.sealed_bytes", median(SealedBytes));
  R.perLayer("analysis.costmodel_s", PerPass("analysis.costmodel"));
  R.perLayer("analysis.report_s", PerPass("analysis.report"));
  R.perLayer("analysis.dead_s", PerPass("analysis.dead"));
  R.perLayer("analysis.extras_s", PerPass("analysis.extras"));

  std::vector<Ladder> Rounds;
  R.startWindow(0.4);
  for (size_t Round = 0; R.keepGoing(Round, 1); ++Round) {
    Ladder Sum;
    for (const Program &P : Progs) {
      std::unique_ptr<Module> Parsed;
      if (S.Parse) {
        std::vector<std::string> Errors;
        Parsed = parseModule(P.Text, Errors);
      }
      Ladder L = climb(R, S.Parse ? *Parsed : *P.M, S);
      Sum.Base += L.Base;
      Sum.NoCache += L.NoCache;
      Sum.Substrate += L.Substrate;
      Sum.Clients += L.Clients;
      Sum.Record += L.Record;
      Sum.Replay += L.Replay;
      Sum.Instrs += L.Instrs;
      Sum.Events += L.Events;
      Sum.TraceBytes += L.TraceBytes;
      Sum.Nodes += L.Nodes;
      Sum.Edges += L.Edges;
      Sum.BuildBytes += L.BuildBytes;
    }
    Rounds.push_back(Sum);
  }
  auto Med = [&](double Ladder::*F) {
    std::vector<double> V;
    for (const Ladder &L : Rounds)
      V.push_back(L.*F);
    return median(V);
  };
  const Ladder &First = Rounds.front();
  double Instrs = double(First.Instrs);
  double Base = Med(&Ladder::Base);
  R.perLayer("runtime.exec_s", Base);
  R.perLayer("runtime.ns_per_instr", 1e9 * Base / Instrs);
  R.perLayer("profiling.track_ns_per_instr",
             1e9 * (Med(&Ladder::Substrate) - Base) / Instrs);
  R.perLayer("profiling.nocache_ns_per_instr",
             1e9 * (Med(&Ladder::NoCache) - Base) / Instrs);
  R.perLayer("profiling.clients_s",
             Med(&Ladder::Clients) - Med(&Ladder::Substrate));
  R.perLayer("profiling.gcost_nodes", double(First.Nodes));
  R.perLayer("profiling.gcost_edges", double(First.Edges));
  R.perLayer("profiling.build_bytes", double(First.BuildBytes));
  R.perLayer("trace.record_s", Med(&Ladder::Record));
  R.perLayer("trace.bytes_per_event",
             double(First.TraceBytes) / double(First.Events));
  R.perLayer("trace.replay_ns_per_event",
             1e9 * Med(&Ladder::Replay) / double(First.Events));
}

} // namespace

void ludbench::runDeep(Run &R) {
  Shape S;
  S.Clients = ClientSet::all();
  const int64_t Scale = R.scaled(1000, 10);
  runReportWorkload(R, S, [&] {
    std::vector<Program> Progs;
    for (const std::string &Name : dacapoNames()) {
      Program P;
      P.Name = Name;
      Scope Sp(R.tracer(), "workloads.generate");
      P.M = std::move(buildWorkload(Name, Scale).M);
      Progs.push_back(std::move(P));
    }
    return Progs;
  });
}

void ludbench::runWide(Run &R) {
  Shape S;
  S.Parse = true;
  S.AllSections = true;
  const int64_t Scale = R.scaled(2000, 36);
  runReportWorkload(R, S, [&] {
    Program P;
    P.Name = "composed";
    {
      Scope Sp(R.tracer(), "workloads.generate");
      P.M = std::move(buildComposedWorkload(Scale).M);
    }
    {
      Scope Sp(R.tracer(), "ir.print");
      StringOutStream OS;
      printModule(*P.M, OS);
      P.Text = OS.str();
    }
    P.M.reset();
    std::vector<Program> Progs;
    Progs.push_back(std::move(P));
    return Progs;
  });
}
