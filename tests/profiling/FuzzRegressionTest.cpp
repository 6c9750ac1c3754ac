//===- tests/profiling/FuzzRegressionTest.cpp - Caches-flip pins ----------===//
//
// Fuzz-derived regression pins for SlicingConfig::HotPathCaches. The
// caches document a hard promise: bit-identical results on and off. The
// differential fuzzer exercises this across random programs; these fixed
// seeds pin the promise in the tier-1 suite so a cache that starts
// observing its own presence fails here with a byte diff, not only in a
// nightly fuzz job. Seeds were picked from fuzz corpus sweeps to cover
// recursion, aliasing through ref fields, null flows, dead stores, and
// global traffic — the shapes most likely to disturb memoization.
//
//===----------------------------------------------------------------------===//

#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace lud;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

struct Artifacts {
  RunResult Run;
  std::string Graph;
  /// The three client graphs, serialized back to back: the caches now
  /// cover every Gcost builder, so node ids and frequencies of the client
  /// graphs are pinned too, not only what the reports print.
  std::string ClientGraphs;
  std::string Reports;
};

Artifacts runWithCaches(const Module &M, bool Caches, uint32_t Slots,
                        EngineKind Engine = EngineKind::Interp) {
  SessionConfig Cfg;
  Cfg.Instrument = true;
  Cfg.Clients = kAllClients;
  Cfg.Engine = Engine;
  Cfg.Slicing.HotPathCaches = Caches;
  Cfg.Slicing.ContextSlots = Slots;
  ProfileSession S(Cfg);
  Artifacts A;
  A.Run = S.run(M).Run;
  StringOutStream GS;
  if (S.slicing())
    writeGraph(S.slicing()->graph(), GS);
  A.Graph = GS.str();
  StringOutStream CS;
  if (S.copy())
    writeGraph(S.copy()->graph(), CS);
  if (S.nullness())
    writeGraph(S.nullness()->graph(), CS);
  if (S.typestate())
    writeGraph(S.typestate()->graph(), CS);
  A.ClientGraphs = CS.str();
  StringOutStream RS;
  S.printClientReports(M, RS);
  A.Reports = RS.str();
  return A;
}

void expectSame(const Artifacts &On, const Artifacts &Off,
                const std::string &What) {
  EXPECT_EQ(On.Run.Status, Off.Run.Status) << What;
  EXPECT_EQ(On.Run.ExecutedInstrs, Off.Run.ExecutedInstrs) << What;
  EXPECT_EQ(On.Run.SinkHash, Off.Run.SinkHash) << What;
  EXPECT_EQ(On.Graph, Off.Graph)
      << What << ": Gcost depends on HotPathCaches";
  EXPECT_EQ(On.ClientGraphs, Off.ClientGraphs)
      << What << ": client graphs depend on HotPathCaches";
  EXPECT_EQ(On.Reports, Off.Reports)
      << What << ": client reports depend on HotPathCaches";
}

std::unique_ptr<Module> fuzzShape(uint64_t Seed) {
  RandomProgramOptions P;
  P.Seed = Seed;
  P.NumClasses = 3;
  P.NumFunctions = 6;
  P.OpsPerFunction = 45;
  P.NumGlobals = 3;
  P.Recursion = true;
  P.Aliasing = true;
  P.NullFlows = true;
  P.DeadStores = true;
  return generateRandomProgram(P);
}

TEST(FuzzRegressionTest, HotPathCachesAreObservationFree) {
  for (uint64_t Seed : {3u, 17u, 44u, 71u}) {
    for (uint32_t Slots : {1u, 16u}) {
      std::unique_ptr<Module> M = fuzzShape(Seed);
      Artifacts On = runWithCaches(*M, /*Caches=*/true, Slots);
      Artifacts Off = runWithCaches(*M, /*Caches=*/false, Slots);
      expectSame(On, Off,
                 "seed " + std::to_string(Seed) + " slots " +
                     std::to_string(Slots));
    }
  }
  // Every DaCapo analogue on both engines, all clients enabled.
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 80);
    for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
      Artifacts On = runWithCaches(*W.M, /*Caches=*/true, 16, E);
      Artifacts Off = runWithCaches(*W.M, /*Caches=*/false, 16, E);
      EXPECT_FALSE(On.ClientGraphs.empty()) << Name;
      expectSame(On, Off,
                 Name + (E == EngineKind::Interp ? " interp" : " threaded"));
    }
  }
}

} // namespace
