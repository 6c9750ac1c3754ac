//===- service/Render.cpp - The one report renderer -----------------------===//

#include "service/Render.h"

#include "analysis/CacheCost.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"

using namespace lud;
using namespace lud::serve;

void lud::serve::renderReplaySummary(const ProfileSession &S,
                                     const FrozenGraph &FG, uint64_t Events,
                                     uint64_t NumTraces, OutStream &OS) {
  OS << "replayed " << Events << " events from " << NumTraces
     << (NumTraces == 1 ? " trace\n" : " traces\n");
  OS << "Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
     << uint64_t(FG.numEdges()) << " edges, sealed ";
  OS.printFixed(double(FG.memoryFootprint().total()) / 1024.0, 1);
  OS << " KB, CR ";
  const SlicingProfiler *Prof = S.slicing();
  OS.printFixed(Prof ? Prof->averageCR() : 0.0, 3);
  OS << "\n";
}

void lud::serve::renderReportSections(const Module &M,
                                      const ProfileSession *S,
                                      const FrozenGraph &FG,
                                      const ReportSpec &Spec, OutStream &OS) {
  const SlicingProfiler *Prof = S ? S->slicing() : nullptr;
  const size_t TopK = Spec.Client.TopK;
  CostModel CM(FG);
  if (Spec.Report) {
    ReportOptions Opts;
    Opts.Depth = Spec.Client.Depth;
    LowUtilityReport Report(CM, M, Opts);
    OS << "\n=== low-utility data structures ===\n";
    Report.print(OS, TopK);
  }
  if (Prof && Spec.Overwrites) {
    OS << "\n=== locations rewritten before read ===\n";
    printOverwrites(rankOverwrites(*Prof, M, Spec.Client), OS, TopK);
  }
  if (Prof && Spec.Predicates) {
    OS << "\n=== always-constant predicates ===\n";
    printConstantPredicates(findConstantPredicates(*Prof, CM, M, Spec.Client),
                            OS, TopK);
  }
  if (Spec.Methods) {
    OS << "\n=== costliest method return values ===\n";
    printMethodCosts(computeMethodCosts(CM, M), OS, TopK);
  }
  if (Spec.Caches) {
    OS << "\n=== cache effectiveness (least effective first) ===\n";
    printCacheScores(rankCacheEffectiveness(CM, M), OS, TopK);
  }
  if (S)
    S->printClientReports(M, OS, TopK);
}

void lud::serve::renderBloatMetrics(const FrozenGraph &FG,
                                    uint64_t Denominator, OutStream &OS,
                                    std::string_view Heading) {
  DeadValueAnalysis DV = computeDeadValues(FG, Denominator);
  OS << "\n=== " << Heading << " ===\nIPD ";
  OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
  OS << "%   IPP ";
  OS.printFixed(100.0 * DV.Metrics.ipp(), 1);
  OS << "%   NLD ";
  OS.printFixed(100.0 * DV.Metrics.nld(), 1);
  OS << "%\n";
}

void lud::serve::renderReplayReport(const Module &M, const ProfileSession &S,
                                    const FrozenGraph &FG, uint64_t Events,
                                    uint64_t NumTraces, const ReportSpec &Spec,
                                    OutStream &OS) {
  renderReplaySummary(S, FG, Events, NumTraces, OS);
  renderReportSections(M, &S, FG, Spec, OS);
  if (Spec.Dead)
    renderBloatMetrics(FG, FG.totalFreq(), OS);
}
