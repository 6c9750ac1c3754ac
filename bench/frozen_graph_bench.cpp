//===- bench/frozen_graph_bench.cpp - Sealed read-path latency -------------===//
//
// Measures what the FrozenGraph refactor buys on the paper-scale composed
// workload: per-lookup latency of the branchless Eytzinger node index
// against the build graph's FlatMap hash probe (hits over every interned
// key and deliberate misses), the per-location activity sweep that the
// analyses actually run (frozen offset-indexed spans vs a FlatMap::find
// per location), seal cost, and the end-to-end wall time of report + n-RAC
// generation over the sealed representation, with every analysis section
// the report renderer runs timed on its own (the `frozen_graph/analysis_all`
// row is their sum). The acceptance shape: the frozen read-path sweep beats
// FlatMap::find by an order of magnitude, Eytzinger wins the miss probes,
// and the full report pipeline stays under a second at 100K+ nodes. (On
// uniform-random hit probes the single-probe hash stays ahead of any
// comparison search — that number is reported too, not hidden.)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/CacheCost.h"
#include "analysis/Clients.h"
#include "analysis/CostModel.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "profiling/FrozenGraph.h"
#include "support/RNG.h"
#include "workloads/Composed.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>
#include <vector>

using namespace lud;
using namespace lud::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct SealedRun {
  Workload W;
  ProfiledRun Run;
  FrozenGraph Frozen;
  double SealSeconds;
};

/// Profiles the composed workload once and seals a copy of its graph; the
/// build graph stays alive in Run.Prof as the FlatMap baseline.
SealedRun profileComposed(int64_t Scale) {
  Workload W = buildComposedWorkload(Scale);
  ProfiledRun P = profiledRun(*W.M);
  auto T0 = std::chrono::steady_clock::now();
  FrozenGraph F(P.Prof->graph());
  double Seal = secondsSince(T0);
  return SealedRun{std::move(W), std::move(P), std::move(F), Seal};
}

/// Every interned (instruction, domain) key, shuffled so the probe order
/// does not replay graph construction order.
std::vector<std::pair<InstrId, uint32_t>> shuffledKeys(const FrozenGraph &G) {
  std::vector<std::pair<InstrId, uint32_t>> Keys;
  Keys.reserve(G.numNodes());
  for (NodeId N = 0; N != G.numNodes(); ++N)
    Keys.emplace_back(G.instr(N), G.domain(N));
  RNG R(0x5EA1ED);
  for (size_t I = Keys.size(); I > 1; --I)
    std::swap(Keys[I - 1], Keys[R.nextBelow(I)]);
  return Keys;
}

/// Miss probes: instruction ids far above anything the module interns.
std::vector<std::pair<InstrId, uint32_t>>
missKeys(const std::vector<std::pair<InstrId, uint32_t>> &Hits) {
  std::vector<std::pair<InstrId, uint32_t>> Keys = Hits;
  for (auto &K : Keys)
    K.first |= 0x40000000u;
  return Keys;
}

template <typename LookupFn>
double nsPerLookup(const std::vector<std::pair<InstrId, uint32_t>> &Keys,
                   LookupFn &&Lookup) {
  auto T0 = std::chrono::steady_clock::now();
  uint64_t Sum = 0;
  for (const auto &K : Keys)
    Sum += Lookup(K.first, K.second);
  benchmark::DoNotOptimize(Sum);
  return secondsSince(T0) * 1e9 / double(Keys.empty() ? 1 : Keys.size());
}

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== FrozenGraph: sealed read path (composed scale %lld) ===\n",
              (long long)S);
  SealedRun R = profileComposed(S);
  const DepGraph &G = R.Run.Prof->graph();
  const FrozenGraph &F = R.Frozen;
  std::printf("graph: %zu nodes, %zu edges, seal %.1f ms\n", F.numNodes(),
              F.numEdges(), R.SealSeconds * 1e3);

  FrozenGraph::MemoryFootprint MF = F.memoryFootprint();
  std::printf("frozen bytes: nodes %zu, edges %zu, locs %zu, index %zu "
              "(total %.1f KB vs build graph %.1f KB)\n",
              MF.NodeBytes, MF.EdgeBytes, MF.LocBytes, MF.IndexBytes,
              double(MF.total()) / 1024.0,
              double(G.memoryFootprint().total()) / 1024.0);

  std::vector<std::pair<InstrId, uint32_t>> Hits = shuffledKeys(F);
  std::vector<std::pair<InstrId, uint32_t>> Misses = missKeys(Hits);
  // A few repetitions, keep the best: the arrays dwarf L2, so the first
  // pass is a cold-cache measurement and later ones steady-state.
  double EytHit = 1e99, EytMiss = 1e99, MapHit = 1e99, MapMiss = 1e99;
  for (int Rep = 0; Rep != 5; ++Rep) {
    EytHit = std::min(EytHit, nsPerLookup(Hits, [&](InstrId I, uint32_t D) {
                        return uint64_t(F.lookup(I, D));
                      }));
    MapHit = std::min(MapHit, nsPerLookup(Hits, [&](InstrId I, uint32_t D) {
                        return uint64_t(G.lookup(I, D));
                      }));
    EytMiss = std::min(EytMiss, nsPerLookup(Misses, [&](InstrId I, uint32_t D) {
                         return uint64_t(F.lookup(I, D));
                       }));
    MapMiss = std::min(MapMiss, nsPerLookup(Misses, [&](InstrId I, uint32_t D) {
                         return uint64_t(G.lookup(I, D));
                       }));
  }
  std::printf("%-24s | %10s %10s\n", "node lookup (ns/op)", "hit", "miss");
  std::printf("%-24s | %10.1f %10.1f\n", "FlatMap::find (build)", MapHit,
              MapMiss);
  std::printf("%-24s | %10.1f %10.1f\n", "Eytzinger (frozen)", EytHit,
              EytMiss);
  std::printf("%-24s | %9.2fx %9.2fx\n", "speedup",
              EytHit > 0 ? MapHit / EytHit : 0,
              EytMiss > 0 ? MapMiss / EytMiss : 0);

  // Heap-location activity: the lookup the read path actually replaced.
  // The old Report/CacheCost passes did a FlatMap::find per location per
  // map; the frozen universe makes the same sweep a direct offset index.
  const auto &WMap = G.writers();
  const auto &RMap = G.readers();
  double MapSweep = 1e99, FrzSweep = 1e99, KeySweep = 1e99;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      HeapLoc L = F.loc(LI);
      auto WIt = WMap.find(L);
      if (WIt != WMap.end())
        for (NodeId N : WIt->second)
          Sum += G.freq(N);
      auto RIt = RMap.find(L);
      if (RIt != RMap.end())
        for (NodeId N : RIt->second)
          Sum += G.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    MapSweep = std::min(MapSweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
    T0 = std::chrono::steady_clock::now();
    Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      for (NodeId N : F.writersAt(LI))
        Sum += F.freq(N);
      for (NodeId N : F.readersAt(LI))
        Sum += F.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    FrzSweep = std::min(FrzSweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
    T0 = std::chrono::steady_clock::now();
    Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      HeapLoc L = F.loc(LI);
      for (NodeId N : F.writersOf(L))
        Sum += F.freq(N);
      for (NodeId N : F.readersOf(L))
        Sum += F.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    KeySweep = std::min(KeySweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
  }
  std::printf("%-24s | %10s\n", "loc activity (ns/loc)", "sweep");
  std::printf("%-24s | %10.1f\n", "FlatMap::find (build)", MapSweep);
  std::printf("%-24s | %10.1f\n", "frozen spans (indexed)", FrzSweep);
  std::printf("%-24s | %10.1f\n", "frozen spans (by key)", KeySweep);
  std::printf("%-24s | %9.2fx\n", "speedup (indexed)",
              FrzSweep > 0 ? MapSweep / FrzSweep : 0);

  // The analysis layer over the sealed graph, section by section, in the
  // order the report renderer runs them. The CostModel row is construction
  // plus the first location query, which fills the per-location table
  // every later section reads. Best of three passes, each on a fresh model.
  const char *SectionNames[] = {"CostModel", "report",  "overwrites",
                                "predicates", "methods", "caches",
                                "dead values"};
  constexpr size_t NumSections = std::size(SectionNames);
  double Best[NumSections];
  std::fill(std::begin(Best), std::end(Best), 1e99);
  ReportOptions Opts;
  for (int Rep = 0; Rep != 3; ++Rep) {
    double Sec[NumSections];
    size_t K = 0;
    auto T0 = std::chrono::steady_clock::now();
    auto Lap = [&] {
      auto Now = std::chrono::steady_clock::now();
      Sec[K++] = std::chrono::duration<double>(Now - T0).count();
      T0 = Now;
    };
    CostModel CM(F);
    if (F.numLocs())
      benchmark::DoNotOptimize(CM.locAt(0).Rab);
    Lap();
    LowUtilityReport Report(CM, *R.W.M, Opts);
    benchmark::DoNotOptimize(Report.sites().size());
    Lap();
    benchmark::DoNotOptimize(rankOverwrites(*R.Run.Prof, *R.W.M).size());
    Lap();
    benchmark::DoNotOptimize(
        findConstantPredicates(*R.Run.Prof, CM, *R.W.M).size());
    Lap();
    benchmark::DoNotOptimize(computeMethodCosts(CM, *R.W.M).size());
    Lap();
    benchmark::DoNotOptimize(rankCacheEffectiveness(CM, *R.W.M).size());
    Lap();
    DeadValueAnalysis DV = computeDeadValues(F, F.totalFreq());
    benchmark::DoNotOptimize(DV.Metrics.ipd());
    Lap();
    for (size_t I = 0; I != NumSections; ++I)
      Best[I] = std::min(Best[I], Sec[I]);
  }
  double AllSec = 0;
  std::printf("%-24s | %10s\n", "analysis section", "ms");
  for (size_t I = 0; I != NumSections; ++I) {
    std::printf("%-24s | %10.2f\n", SectionNames[I], Best[I] * 1e3);
    AllSec += Best[I];
  }
  // The historical row: cost model, ranked report, dead values.
  const double ReportSec = Best[0] + Best[1] + Best[NumSections - 1];
  std::printf("report + %u-RAC + dead-value generation: %.3f s\n",
              unsigned(Opts.Depth), ReportSec);
  std::printf("all analysis sections: %.3f s\n", AllSec);

  emitJsonRow("frozen_graph/lookup_hit_eytzinger_ns", S, EytHit * 1e-9,
              F.numNodes(), F.numEdges());
  emitJsonRow("frozen_graph/lookup_hit_flatmap_ns", S, MapHit * 1e-9,
              F.numNodes(), F.numEdges());
  emitJsonRow("frozen_graph/report_nrac", S, ReportSec, F.numNodes(),
              F.numEdges());
  emitJsonRow("frozen_graph/analysis_all", S, AllSec, F.numNodes(),
              F.numEdges());
  std::printf("\n");
}

/// Timing aspect: Eytzinger vs FlatMap lookups under the harness.
void BM_NodeLookup(benchmark::State &State) {
  static SealedRun R = profileComposed(tableScale() / 4);
  static std::vector<std::pair<InstrId, uint32_t>> Keys =
      shuffledKeys(R.Frozen);
  const bool UseFrozen = State.range(0) != 0;
  size_t I = 0;
  for (auto _ : State) {
    const auto &K = Keys[I];
    if (++I == Keys.size())
      I = 0;
    uint64_t N = UseFrozen ? uint64_t(R.Frozen.lookup(K.first, K.second))
                           : uint64_t(R.Run.Prof->graph().lookup(K.first,
                                                                 K.second));
    benchmark::DoNotOptimize(N);
  }
  State.SetLabel(UseFrozen ? "eytzinger" : "flatmap");
}
BENCHMARK(BM_NodeLookup)->Arg(0)->Arg(1);

/// Timing aspect: sealing the composed build graph.
void BM_Seal(benchmark::State &State) {
  static Workload W = buildComposedWorkload(tableScale() / 4);
  static ProfiledRun P = profiledRun(*W.M);
  for (auto _ : State) {
    FrozenGraph F(P.Prof->graph());
    benchmark::DoNotOptimize(F.numNodes());
  }
}
BENCHMARK(BM_Seal);

} // namespace

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
