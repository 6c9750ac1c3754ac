//===- tools/lud-replay.cpp - Re-drive analyses from a trace ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline twin of `lud-run --record`: replays one or more
/// `lud.trace.v1` files through a fresh profiling session and prints the
/// same reports the live run would have, without interpreting a single
/// instruction. Multiple traces fold in argument order, exactly like the
/// recording run's shards:
///
///   lud-run --record=p.trace --clients=all p.lud
///   lud-replay --clients=all --report p.lud p.trace
///
///   lud-run --record=p.trace --shards 8 p.lud
///   lud-replay p.lud p.trace.shard0 ... p.trace.shard7
///
//===----------------------------------------------------------------------===//

#include "profiling/FrozenGraph.h"
#include "service/Render.h"
#include "service/SessionManager.h"
#include "support/OutStream.h"
#include "tools/CliOptions.h"

#include <string>
#include <vector>

using namespace lud;

namespace {

struct Options {
  std::string Program;
  std::vector<std::string> Traces;
  /// Sections to render; Spec.Client carries --depth and --top.
  serve::ReportSpec Spec;
  ClientSet Clients;
  uint32_t Slots = 16;
  unsigned Threads = 1;
  std::string DumpGraph;
  cli::StatsOptions Stats;
};

void declareOptions(cli::OptionSet &P, Options &O) {
  P.flag("--report", O.Spec.Report, "rank data structures by cost/benefit");
  P.flag("--dead", O.Spec.Dead, "print IPD/IPP/NLD bloat metrics");
  P.flag("--caches", O.Spec.Caches, "rank structures by cache effectiveness");
  cli::clientsOption(P, O.Clients,
                     "LIST  client analyses to re-drive from the trace: "
                     "copy, nullness, typestate, or all");
  P.number("--slots", O.Slots, "N  context slots s (default 16)", /*Min=*/1);
  P.number("--depth", O.Spec.Client.Depth,
           "N  reference-tree height n (default 4)");
  P.number("--top", O.Spec.Client.TopK, "K  rows per report (default 15)");
  P.number("--threads", O.Threads, "N  worker threads for multiple traces",
           /*Min=*/1);
  P.str("--dump-graph", O.DumpGraph,
        "F  serialize the replayed Gcost to file F");
  cli::statsOptions(P, O.Stats);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  cli::OptionSet Cli("lud-replay", "<program.lud> <trace>...");
  declareOptions(Cli, O);
  if (!Cli.parse(argc, argv)) {
    Cli.usage();
    return 2;
  }
  if (Cli.exitRequested())
    return 0;
  if (Cli.positionals().size() < 2) {
    errs() << "expected a program and at least one trace\n";
    Cli.usage();
    return 2;
  }
  O.Program = Cli.positionals()[0];
  O.Traces.assign(Cli.positionals().begin() + 1, Cli.positionals().end());

  std::unique_ptr<Module> M = cli::loadProgram(O.Program);
  if (!M)
    return 1;

  SessionConfig SCfg;
  SCfg.Slicing.ContextSlots = O.Slots;
  SCfg.Clients = O.Clients;
  SCfg.CollectStats = O.Stats.enabled();
  ShardedSession SR =
      replayShardedSession(*M, O.Traces, std::move(SCfg), O.Threads);
  if (!SR.Error.empty()) {
    errs() << SR.Error << "\n";
    return 1;
  }

  OutStream &OS = outs();
  ProfileSession &Session = *SR.Session;
  // Replay is done mutating the graph: seal once for every read path —
  // the summary line included, so the printed footprint is the sealed
  // form's, same as the daemon serves for the same streams.
  FrozenGraph FG(Session.slicing()->graph());
  if (obs::MetricsRegistry *Stats = Session.stats())
    FG.accountStats(*Stats);

  serve::renderReplaySummary(Session, FG, SR.Events,
                             uint64_t(O.Traces.size()), OS);

  if (!O.DumpGraph.empty() && !cli::dumpGraph(FG, O.DumpGraph, OS))
    return 1;

  serve::renderReportSections(*M, &Session, FG, O.Spec, OS);
  if (O.Spec.Dead)
    serve::renderBloatMetrics(FG, FG.totalFreq(), OS);
  if (!cli::writeStats(Session.stats(), O.Stats))
    return 1;
  return 0;
}
