//===- ludbench/src/OptimizeWorkload.cpp - optimize -----------------------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// optimize: opt::PassManager::run with the default passes and both-engine
/// validation, as shipped, over the six case-study analogues, through the
/// rendered optimizer report. Some of them commit rewrites and some do
/// not. It is the only workload through analysis Evidence, ir
/// Rewrite/Verifier and candidate validation.
///
/// Output checks: each rewritten program's status, result and sink hash on
/// the reference Interpreter equal the original's, and the executed
/// instructions saved (instrs_saved_pct) repeat exactly on every pass. A
/// rolled-back candidate is a normal outcome, not a failure.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/PassManager.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

using namespace lud;
using namespace ludbench;

namespace {

struct Program {
  std::string Name;
  std::unique_ptr<Module> M;
  RunResult Ref;
};

opt::PipelineOptions pipelineOptions(bool BothEngines) {
  opt::PipelineOptions PO;
  PO.Engine = EngineKind::Interp;
  PO.ValidateBothEngines = BothEngines;
  return PO;
}

double timedOptimize(const Module &M, bool BothEngines) {
  Clock::time_point T0 = Clock::now();
  opt::PassManager PM(pipelineOptions(BothEngines));
  opt::PipelineResult PR = PM.run(M);
  return secondsSince(T0);
}

} // namespace

void ludbench::runOptimize(Run &R) {
  Tracer &T = R.tracer();
  const int64_t Scale = R.scaled(1000, 10);
  std::vector<Program> Progs;
  R.timeSetup([&] {
    Progs.clear();
    for (const char *Name :
         {"bloat", "eclipse", "sunflow", "derby", "tomcat", "tradebeans"}) {
      Scope Sp(T, "workloads.generate");
      Program P;
      P.Name = Name;
      P.M = std::move(buildWorkload(Name, Scale).M);
      Progs.push_back(std::move(P));
    }
  });
  shuffle(Progs, R.rng());
  uint64_t InstrsBefore = 0;
  for (Program &P : Progs) {
    P.Ref = referenceRun(*P.M);
    InstrsBefore += P.Ref.ExecutedInstrs;
  }

  // Each program's wall and reference seconds, per untraced pass.
  std::vector<std::vector<double>> WallSeconds(Progs.size()),
      RefSeconds(Progs.size());
  std::vector<double> Saved, Applied, RolledBack, UntracedPasses;
  double FirstSaved = -1;
  R.startWindow(R.args().Trace ? 0.6 : 1.0);
  for (size_t Pass = 0; R.keepGoing(Pass, 3); ++Pass) {
    bool Traced = R.args().Trace && Pass % 2 == 1;
    T.setEnabled(Traced);
    uint64_t InstrsAfter = 0;
    size_t NumApplied = 0, NumRolledBack = 0;
    Clock::time_point PassStart = Clock::now();
    {
      Scope PassSpan(T, "bench.pass");
      for (size_t I = 0; I != Progs.size(); ++I) {
        const Program &P = Progs[I];
        opt::PipelineResult PR;
        StringOutStream OS;
        double Sec = 0;
        double Scale = R.referenceScale([&] {
          Clock::time_point T0 = Clock::now();
          {
            Scope Sp(T, "analysis.optimize");
            opt::PassManager PM(pipelineOptions(true));
            PR = PM.run(*P.M);
          }
          {
            Scope Sp(T, "analysis.render");
            opt::renderOptimizeReport(PR, OS);
          }
          Sec = secondsSince(T0);
        });
        if (!Traced) {
          WallSeconds[I].push_back(Sec);
          RefSeconds[I].push_back(Sec * Scale);
        }
        for (const auto &[Name, St] : PR.PerPass) {
          NumApplied += St.Applied;
          NumRolledBack += St.RolledBack;
        }
        Scope Sp(T, "bench.check");
        RunResult Out = referenceRun(PR.M ? *PR.M : *P.M);
        R.check(!OS.str().empty() && Out.Status == P.Ref.Status &&
                    Out.ReturnValue.asInt() == P.Ref.ReturnValue.asInt() &&
                    Out.SinkHash == P.Ref.SinkHash,
                P.Name + ": rewritten program's observables differ");
        InstrsAfter += Out.ExecutedInstrs;
      }
    }
    double PassSeconds = secondsSince(PassStart);
    double Pct = 100.0 * (double(InstrsBefore) - double(InstrsAfter)) /
                 double(InstrsBefore);
    if (FirstSaved < 0)
      FirstSaved = R.args().CorruptDigest ? Pct + 1 : Pct;
    R.check(Pct == FirstSaved, "instrs_saved_pct changed between passes");
    Saved.push_back(Pct);
    Applied.push_back(double(NumApplied));
    RolledBack.push_back(double(NumRolledBack));
    if (!Traced)
      UntracedPasses.push_back(PassSeconds);
  }
  T.setEnabled(false);
  // Per program: the pass's summed medians over its program count.
  double OptimizeS = sumOfMedians(RefSeconds) / double(Progs.size());
  R.endToEnd("report_s", OptimizeS);
  R.endToEnd("ingest_mevents_per_s",
             double(InstrsBefore) / double(Progs.size()) / OptimizeS / 1e6);
  R.extra("optimize_s", OptimizeS, "s");
  R.extra("optimize_wall_s",
          sumOfMedians(WallSeconds) / double(Progs.size()), "s");
  R.extra("instrs_saved_pct", Saved.front(), "%");
  if (!R.args().Trace)
    return;

  // The traced and untraced pass times the ledger compares include the
  // output check, which both kinds of pass run.
  R.ledger(UntracedPasses);
  std::vector<double> Gen;
  for (uint32_t Setup : T.roots("bench.setup"))
    Gen.push_back(T.total(Setup, "workloads.generate"));
  R.perLayer("workloads.generate_s", median(Gen));
  double A = median(Applied), B = median(RolledBack);
  R.perLayer("analysis.opt_applied", A);
  R.perLayer("analysis.opt_rolled_back", B);
  R.perLayer("analysis.opt_useful_ratio", A + B > 0 ? A / (A + B) : 0);
  R.perLayer("analysis.opt_instrs_saved_pct", Saved.front());

  // The ladder: baseline and substrate runs of the originals, and the
  // pipeline with and without the second validation engine.
  std::vector<double> Base, Track, Second;
  uint64_t Nodes = 0, Edges = 0;
  double Build = 0;
  R.startWindow(0.4);
  for (size_t Round = 0; R.keepGoing(Round, 1); ++Round) {
    double RoundBase = 0, RoundProf = 0, RoundSecond = 0;
    Nodes = Edges = 0;
    Build = 0;
    for (const Program &P : Progs) {
      SessionConfig BC = SessionConfig::baseline();
      BC.Engine = EngineKind::Interp;
      ProfileSession BS(BC);
      RoundBase += BS.run(*P.M).Seconds;
      SessionConfig PC = SessionConfig::profiled();
      PC.Engine = EngineKind::Interp;
      PC.CollectStats = true;
      ProfileSession PS(PC);
      RoundProf += PS.run(*P.M).Seconds;
      Nodes += PS.slicing()->graph().numNodes();
      Edges += PS.slicing()->graph().numEdges();
      Build += buildBytes(*PS.stats());
      RoundSecond += timedOptimize(*P.M, true) - timedOptimize(*P.M, false);
    }
    Base.push_back(RoundBase);
    Track.push_back(RoundProf);
    Second.push_back(RoundSecond / double(Progs.size()));
  }
  double BaseS = median(Base);
  R.perLayer("runtime.exec_s", BaseS);
  R.perLayer("runtime.ns_per_instr", 1e9 * BaseS / double(InstrsBefore));
  R.perLayer("profiling.track_ns_per_instr",
             1e9 * (median(Track) - BaseS) / double(InstrsBefore));
  R.perLayer("profiling.gcost_nodes", double(Nodes));
  R.perLayer("profiling.gcost_edges", double(Edges));
  R.perLayer("profiling.build_bytes", Build);
  R.perLayer("analysis.opt_second_engine_s", median(Second));
}
