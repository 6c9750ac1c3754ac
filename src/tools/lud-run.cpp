//===- tools/lud-run.cpp - Command-line driver -----------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing driver: loads a textual .lud program, executes it (with
/// or without profiling), and prints the requested diagnoses. All requested
/// analyses — the Gcost-based reports and any --clients client profilers —
/// come out of ONE interpretation pass over a composed profiler pipeline.
///
///   lud-run program.lud                       # just run it
///   lud-run --report program.lud              # low-utility ranking
///   lud-run --all --slots 32 program.lud      # every Gcost analysis
///   lud-run --clients=copy,nullness,typestate --report program.lud
///   lud-run --stats=json --stats-out=s.json --report program.lud
///   lud-run --record=p.trace program.lud      # record the hook stream
///   lud-run --replay=p.trace --report program.lud  # same reports, no run
///   lud-run --optimize --optimize-out=o.lud program.lud
///                                             # rewrite-pass pipeline
///
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"
#include "ir/Obfuscate.h"
#include "ir/Printer.h"
#include "service/Render.h"
#include "service/SessionManager.h"
#include "support/OutStream.h"
#include "tools/CliOptions.h"
#include "workloads/ParallelDriver.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lud;

namespace {

struct Options {
  std::string File;
  std::string WorkloadName;
  int64_t WorkloadScale = 2000;
  /// Sections to render; Spec.Client carries --depth and --top.
  serve::ReportSpec Spec;
  bool PrintIR = false;
  bool Baseline = false;
  ClientSet Clients;
  uint32_t Slots = 16;
  std::string DumpGraph;
  bool Obfuscate = false;
  ObfuscateOptions Obf;
  std::string ObfManifest;
  bool Optimize = false;
  std::vector<std::string> OptimizePasses;
  std::string OptimizeOut;
  std::string RecordPath;
  std::string ReplayPath;
  cli::StatsOptions Stats;
  unsigned Shards = 1;
  unsigned Threads = 1;
  EngineKind Engine = defaultEngineKind();
};

bool isPowerOfTwo(uint32_t N) { return N != 0 && (N & (N - 1)) == 0; }

void declareOptions(cli::OptionSet &P, Options &O) {
  serve::ReportSpec &S = O.Spec;
  P.flag("--report", S.Report, "rank data structures by cost/benefit");
  P.flag("--dead", S.Dead, "print IPD/IPP/NLD bloat metrics");
  P.flag("--overwrites", S.Overwrites,
         "rank locations rewritten before read");
  P.flag("--predicates", S.Predicates, "list always-constant predicates");
  P.flag("--methods", S.Methods, "rank methods by return-value cost");
  P.flag("--caches", S.Caches, "rank structures by cache effectiveness");
  P.custom("--all", cli::ValueMode::None, "everything above",
           [&S](const std::string &) {
             S.Report = S.Dead = S.Overwrites = S.Predicates = S.Methods =
                 S.Caches = true;
             return true;
           });
  cli::clientsOption(P, O.Clients,
                     "LIST  client analyses to run in the same pass, "
                     "comma-separated: copy, nullness, typestate, or all");
  P.flag("--baseline", O.Baseline, "run without instrumentation (timing)");
  cli::engineOption(P, O.Engine);
  P.str("--record", O.RecordPath,
        "F  record the hook stream to trace file F (one file per shard)");
  P.str("--replay", O.ReplayPath,
        "F  re-drive the analyses from trace F instead of interpreting");
  P.flag("--print-ir", O.PrintIR, "echo the parsed program and exit");
  P.str("--workload", O.WorkloadName,
        "NAME  run a generated workload instead of a program file: one of "
        "the 18 DaCapo analogues, or 'composed' (the paper-scale tier)");
  P.number("--scale", O.WorkloadScale,
           "N  scale for --workload (default 2000)", /*Min=*/1);
  P.str("--dump-graph", O.DumpGraph,
        "F  serialize Gcost to file F (offline use)");
  P.custom("--obfuscate", cli::ValueMode::Optional,
           "[=LIST]  obfuscate the program before running (junk, opaque, "
           "strings, or all; default all)",
           [&O](const std::string &V) {
             O.Obfuscate = true;
             if (V.empty()) {
               O.Obf.Junk = O.Obf.Opaque = O.Obf.Strings = true;
               return true;
             }
             std::string Err;
             if (parseObfuscatePasses(V, O.Obf, Err))
               return true;
             errs() << Err << "\n";
             return false;
           });
  P.number("--obfuscate-seed", O.Obf.Seed,
           "N  seed of the obfuscation transform stream (default 1)",
           /*Min=*/0);
  P.str("--obfuscate-manifest", O.ObfManifest,
        "F  write the injected-site manifest to F (implies --obfuscate)");
  P.custom("--optimize", cli::ValueMode::Optional,
           "[=LIST]  run the rewrite-pass pipeline (dead-stores, "
           "map-to-array, clone-per-op, once-read-memo, dead-stores-final) "
           "and print its report; LIST restricts to those passes, in order",
           [&O](const std::string &V) {
             O.Optimize = true;
             std::string Cur;
             for (size_t I = 0; I <= V.size(); ++I) {
               if (I == V.size() || V[I] == ',') {
                 if (!Cur.empty()) {
                   if (!opt::isKnownPassName(Cur)) {
                     errs() << "unknown pass '" << Cur
                            << "' (expected dead-stores, map-to-array, "
                               "clone-per-op, once-read-memo, or "
                               "dead-stores-final)\n";
                     return false;
                   }
                   O.OptimizePasses.push_back(Cur);
                   Cur.clear();
                 }
               } else {
                 Cur += V[I];
               }
             }
             return true;
           });
  P.str("--optimize-out", O.OptimizeOut,
        "F  write the rewritten program to F (implies --optimize)");
  P.number("--slots", O.Slots, "N  context slots s (default 16)", /*Min=*/1);
  P.number("--depth", S.Client.Depth,
           "N  reference-tree height n (default 4)");
  P.number("--top", S.Client.TopK, "K  rows per report (default 15)");
  P.number("--shards", O.Shards,
           "N  profile N sharded runs and merge them (default 1)",
           /*Min=*/1);
  P.number("--threads", O.Threads, "N  worker threads for --shards",
           /*Min=*/1);
  cli::statsOptions(P, O.Stats);
}

bool parseArgs(cli::OptionSet &P, int argc, char **argv, Options &O) {
  if (!P.parse(argc, argv))
    return false;
  if (P.exitRequested())
    return true; // --help/--version already printed; skip validation.
  if (P.positionals().size() > 1) {
    errs() << "multiple input files\n";
    return false;
  }
  if (!P.positionals().empty())
    O.File = P.positionals()[0];
  if (!isPowerOfTwo(O.Slots))
    errs() << "warning: --slots " << O.Slots
           << " is not a power of two; contexts fold by modulo either "
              "way, but results won't line up with the paper's s = 2^k "
              "sweeps\n";
  if (O.Baseline && O.Clients.any()) {
    errs() << "--baseline runs without instrumentation; it cannot be "
              "combined with --clients\n";
    return false;
  }
  if (!O.OptimizeOut.empty())
    O.Optimize = true;
  if (!O.ObfManifest.empty() && !O.Obfuscate) {
    O.Obfuscate = true;
    O.Obf.Junk = O.Obf.Opaque = O.Obf.Strings = true;
  }
  if (!O.ReplayPath.empty()) {
    if (O.Baseline || !O.RecordPath.empty()) {
      errs() << "--replay re-drives a recorded run; it cannot be combined "
                "with --baseline or --record\n";
      return false;
    }
    if (O.Optimize) {
      errs() << "--optimize validates against the live run's output; it "
                "cannot be combined with --replay\n";
      return false;
    }
  }
  if (!O.WorkloadName.empty() && !O.File.empty()) {
    errs() << "--workload generates the program; it cannot be combined "
              "with an input file\n";
    return false;
  }
  return !O.File.empty() || !O.WorkloadName.empty();
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  cli::OptionSet Cli("lud-run", "<program.lud>");
  declareOptions(Cli, O);
  if (!parseArgs(Cli, argc, argv, O)) {
    Cli.usage();
    return 2;
  }
  if (Cli.exitRequested())
    return 0;

  std::unique_ptr<Module> M;
  if (!O.WorkloadName.empty()) {
    if (!(M = cli::buildNamedWorkload(O.WorkloadName, O.WorkloadScale)))
      return 2;
  } else if (!(M = cli::loadProgram(O.File))) {
    return 1;
  }

  if (O.Obfuscate) {
    // Obfuscation happens before anything looks at the module, so
    // --print-ir shows the obfuscated program and every analysis below
    // sees the adversarial shapes. The summary goes to stderr to keep the
    // report streams stable.
    ObfuscationResult Res = obfuscateModule(*M, O.Obf);
    size_t NumJunk = 0, NumOpaque = 0, NumTables = 0;
    for (const ObfSiteTag &T : Res.Manifest) {
      NumJunk += T.Kind == ObfKind::Junk;
      NumOpaque += T.Kind == ObfKind::Opaque;
      NumTables += T.Kind == ObfKind::StringTable;
    }
    errs() << "obfuscated: " << uint64_t(NumJunk) << " junk sites, "
           << uint64_t(NumOpaque) << " opaque predicates, "
           << uint64_t(NumTables) << " string tables (seed "
           << O.Obf.Seed << ")\n";
    if (!O.ObfManifest.empty()) {
      std::FILE *F = std::fopen(O.ObfManifest.c_str(), "w");
      if (!F) {
        errs() << "cannot write manifest file '" << O.ObfManifest << "'\n";
        return 1;
      }
      FileOutStream FOS(F);
      for (const ObfSiteTag &T : Res.Manifest)
        FOS << obfKindName(T.Kind) << "\t" << T.Description << "\n";
      std::fclose(F);
    }
    M = std::move(Res.M);
  }

  OutStream &OS = outs();
  if (O.PrintIR) {
    printModule(*M, OS);
    return 0;
  }

  RunConfig RCfg;
  RCfg.PrintStream = &OS;

  if (O.Baseline) {
    SessionConfig BCfg;
    BCfg.Engine = O.Engine;
    BCfg.Instrument = false;
    BCfg.Run = RCfg;
    BCfg.CollectStats = O.Stats.enabled();
    BCfg.RecordPath = O.RecordPath;
    ProfileSession Session(std::move(BCfg));
    TimedRun R = Session.run(*M);
    if (!Session.recordError().empty()) {
      errs() << Session.recordError() << "\n";
      return 1;
    }
    OS << "status: "
       << (R.Run.Status == RunStatus::Finished ? "finished"
                                               : trapKindName(R.Run.Trap))
       << ", " << R.Run.ExecutedInstrs << " instructions, ";
    OS.printFixed(R.Seconds * 1e3, 2);
    OS << " ms, result " << R.Run.ReturnValue.asInt() << ", sink "
       << R.Run.SinkHash << "\n";
    if (!cli::writeStats(Session.stats(), O.Stats))
      return 1;
    return R.Run.Status == RunStatus::Finished ? 0 : 1;
  }

  // One interpretation pass per shard: the slicing substrate plus every
  // requested client rides the same composed pipeline. --shards 1 (the
  // default) is a plain single session.
  SessionConfig SCfg;
  SCfg.Engine = O.Engine;
  SCfg.Slicing.ContextSlots = O.Slots;
  SCfg.Clients = O.Clients;
  SCfg.Run = RCfg;
  SCfg.CollectStats = O.Stats.enabled();
  SCfg.RecordPath = O.RecordPath;
  ShardedSession SR;
  if (!O.ReplayPath.empty()) {
    // Re-drive the same analyses from the recorded hook stream; shard N
    // reads the file shard N of the recording run wrote.
    std::vector<std::string> Paths;
    for (unsigned S = 0; S != O.Shards; ++S)
      Paths.push_back(shardTracePath(O.ReplayPath, S, O.Shards));
    SR = replayShardedSession(*M, Paths, std::move(SCfg), O.Threads);
  } else {
    SR = runShardedSession(*M, O.Shards, std::move(SCfg), O.Threads);
  }
  if (!SR.Error.empty()) {
    errs() << SR.Error << "\n";
    return 1;
  }
  ProfileSession &Session = *SR.Session;
  const RunResult &Run = SR.Run;
  if (!O.ReplayPath.empty()) {
    OS << "replayed " << SR.Events << " events from " << O.Shards
       << (O.Shards == 1 ? " trace\n" : " traces\n");
  } else {
    OS << "status: "
       << (Run.Status == RunStatus::Finished ? "finished"
                                             : trapKindName(Run.Trap))
       << ", " << Run.ExecutedInstrs << " instructions, result "
       << Run.ReturnValue.asInt() << "\n";
    if (!O.RecordPath.empty())
      OS << "trace written to " << O.RecordPath
         << (O.Shards > 1 ? " (one .shardN file per shard)\n" : "\n");
  }
  const SlicingProfiler &Prof = *Session.slicing();
  const DepGraph &G = Prof.graph();
  OS << "Gcost: " << uint64_t(G.numNodes()) << " nodes, "
     << uint64_t(G.numEdges()) << " edges, ";
  OS.printFixed(double(G.memoryFootprint().total()) / 1024.0, 1);
  OS << " KB, CR ";
  OS.printFixed(Prof.averageCR(), 3);
  OS << "\n";

  // Profiling is over: seal once, and every read path below — serializer,
  // cost model, dead-value sweep, optimizer — consumes the packed form.
  // (The profiler keeps its build graph for non-graph state such as
  // location activity; serialization and reports are byte-identical
  // either way.)
  FrozenGraph FG(G);
  if (obs::MetricsRegistry *Stats = Session.stats())
    FG.accountStats(*Stats);

  if (!O.DumpGraph.empty() && !cli::dumpGraph(FG, O.DumpGraph, OS))
    return 1;

  serve::renderReportSections(*M, &Session, FG, O.Spec, OS);
  if (O.Optimize) {
    // The pipeline profiles, proposes, validates (both engines) and
    // commits or rolls back each candidate on its own; the session above
    // only supplied the human-facing reports.
    opt::PipelineOptions PO;
    PO.Engine = O.Engine;
    PO.Slicing.ContextSlots = O.Slots;
    PO.Passes = O.OptimizePasses;
    opt::PassManager PM(std::move(PO));
    opt::PipelineResult R = PM.run(*M);
    OS << "\n";
    opt::renderOptimizeReport(R, OS);
    if (obs::MetricsRegistry *Stats = Session.stats())
      opt::PassManager::accountStats(R, *Stats);
    if (!O.OptimizeOut.empty()) {
      const Module &Out = R.M ? *R.M : *M;
      std::FILE *F = std::fopen(O.OptimizeOut.c_str(), "wb");
      if (!F) {
        errs() << "cannot write '" << O.OptimizeOut << "'\n";
        return 1;
      }
      FileOutStream FOS(F);
      printModule(Out, FOS);
      std::fclose(F);
      OS << "rewritten program written to " << O.OptimizeOut << "\n";
    }
  }
  if (O.Spec.Dead) {
    // Under --replay there is no RunResult; the graph's own frequency total
    // is the denominator, as in offline lud-analyze.
    serve::renderBloatMetrics(
        FG, O.ReplayPath.empty() ? Run.ExecutedInstrs : FG.totalFreq(), OS);
  }
  if (!cli::writeStats(Session.stats(), O.Stats))
    return 1;
  if (!O.ReplayPath.empty())
    return 0; // Replay has no run status of its own.
  return Run.Status == RunStatus::Finished ? 0 : 1;
}
