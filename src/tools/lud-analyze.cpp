//===- tools/lud-analyze.cpp - Offline graph analysis ----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of the Section 3.2 hand-off: given a program and a
/// Gcost previously serialized by `lud-run --dump-graph`, re-runs the
/// analyses without executing anything ("the JVM only needs to write Gcost
/// to external storage").
///
///   lud-run --dump-graph prog.graph prog.lud
///   lud-analyze prog.lud prog.graph [--depth N] [--top K]
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "profiling/GraphIO.h"
#include "service/Render.h"
#include "support/OutStream.h"
#include "tools/CliOptions.h"
#include "trace/TraceIO.h"

#include <string>
#include <vector>

using namespace lud;

int main(int argc, char **argv) {
  // The offline report: ranking and cache effectiveness from the graph
  // alone (overwrites, predicates and client sections need a session).
  serve::ReportSpec Spec;
  Spec.Report = Spec.Caches = true;
  cli::OptionSet P("lud-analyze", "<program.lud> <gcost.graph>");
  P.number("--depth", Spec.Client.Depth,
           "N  reference-tree height n (default 4)");
  P.number("--top", Spec.Client.TopK, "K  rows per report (default 15)");
  if (!P.parse(argc, argv)) {
    P.usage();
    return 2;
  }
  if (P.exitRequested())
    return 0;
  if (P.positionals().size() != 2) {
    P.usage();
    return 2;
  }
  const std::string &ProgPath = P.positionals()[0];
  const std::string &GraphPath = P.positionals()[1];

  std::unique_ptr<Module> M = cli::loadProgram(ProgPath);
  if (!M)
    return 1;
  std::string GraphText;
  if (!trace::readFileBytes(GraphPath, GraphText)) {
    errs() << "cannot read '" << GraphPath << "'\n";
    return 1;
  }
  std::vector<std::string> Errors;
  std::unique_ptr<DepGraph> G = readGraph(GraphText, Errors);
  if (!G) {
    for (const std::string &E : Errors)
      errs() << GraphPath << ": " << E << "\n";
    return 1;
  }

  // The build-phase graph is done mutating: seal it and analyze the packed
  // representation only.
  FrozenGraph FG = FrozenGraph::seal(std::move(*G));
  G.reset();

  OutStream &OS = outs();
  OS << "offline Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
     << uint64_t(FG.numEdges()) << " edges, covering " << FG.totalFreq()
     << " instruction instances\n";

  serve::renderReportSections(*M, nullptr, FG, Spec, OS);
  serve::renderBloatMetrics(FG, FG.totalFreq(), OS,
                            "bloat metrics (relative to covered instances)");
  return 0;
}
