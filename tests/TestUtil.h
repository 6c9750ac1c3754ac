//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//

#ifndef LUD_TESTS_TESTUTIL_H
#define LUD_TESTS_TESTUTIL_H

#include "analysis/CostModel.h"
#include "profiling/FrozenGraph.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/Interpreter.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lud {
namespace test {

/// Uninstrumented run through the session lifecycle — the spelling of the
/// retired runBaseline() free function.
inline TimedRun baselineRun(const Module &M, RunConfig RC = {}) {
  ProfileSession S(SessionConfig::baseline(RC));
  return S.run(M);
}

/// Substrate-only profiled run through the session lifecycle — the
/// spelling of the retired runProfiled() free function.
inline ProfiledRun profiledRun(const Module &M, SlicingConfig SCfg = {},
                               RunConfig RC = {}) {
  ProfileSession S(SessionConfig::profiled(SCfg, RC));
  TimedRun T = S.run(M);
  ProfiledRun Out;
  Out.Run = T.Run;
  Out.Seconds = T.Seconds;
  Out.Prof = S.takeSlicing();
  return Out;
}

/// Runs \p M under a SlicingProfiler and returns the profiler (plus the run
/// result through \p ResOut when non-null).
inline SlicingProfiler profileRun(const Module &M, SlicingConfig Cfg = {},
                                  RunResult *ResOut = nullptr,
                                  RunConfig RCfg = {}) {
  SlicingProfiler P(Cfg);
  RunResult R = runModule(M, P, RCfg);
  if (ResOut)
    *ResOut = R;
  return P;
}

/// All graph nodes whose instruction is \p I.
inline std::vector<NodeId> nodesFor(const DepGraph &G, InstrId I) {
  std::vector<NodeId> Out;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    if (G.node(N).Instr == I)
      Out.push_back(N);
  return Out;
}

inline std::vector<NodeId> nodesFor(const FrozenGraph &G, InstrId I) {
  std::vector<NodeId> Out;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    if (G.instr(N) == I)
      Out.push_back(N);
  return Out;
}

/// The unique node for instruction \p I; fails the test context if the
/// instruction has zero or multiple nodes.
inline NodeId soleNodeFor(const DepGraph &G, InstrId I) {
  std::vector<NodeId> All = nodesFor(G, I);
  return All.size() == 1 ? All[0] : kNoNode;
}

inline NodeId soleNodeFor(const FrozenGraph &G, InstrId I) {
  std::vector<NodeId> All = nodesFor(G, I);
  return All.size() == 1 ? All[0] : kNoNode;
}

/// The location table against Definitions 5/6 evaluated node by node: for
/// every location, Rac/Rab are the means of hrac/hrab over its writers and
/// readers, the flags are the readers' OR, and Writes/Reads are the
/// saturated frequency sums. The reference is a second model, so no table
/// result can leak into the per-node memo it is checked against.
inline void expectTableMatchesDefinitions(const FrozenGraph &G,
                                   const std::string &What) {
  CostModel Table(G), Ref(G);
  for (size_t I = 0; I != G.numLocs(); ++I) {
    LocCostBenefit Want;
    uint64_t RacSum = 0, RabSum = 0;
    for (NodeId W : G.writersAt(I)) {
      RacSum = saturatingAdd(RacSum, Ref.hrac(W));
      Want.Writes = saturatingAdd(Want.Writes, G.freq(W));
      ++Want.NumWriters;
    }
    for (NodeId R : G.readersAt(I)) {
      const BenefitInfo &B = Ref.hrab(R);
      RabSum = saturatingAdd(RabSum, B.Benefit);
      Want.Reads = saturatingAdd(Want.Reads, G.freq(R));
      Want.ReachesPredicate |= B.ReachesPredicate;
      Want.ReachesNative |= B.ReachesNative;
      ++Want.NumReaders;
    }
    if (Want.NumWriters)
      Want.Rac = double(RacSum) / double(Want.NumWriters);
    if (Want.NumReaders)
      Want.Rab = double(RabSum) / double(Want.NumReaders);
    const LocCostBenefit &Got = Table.locAt(I);
    const std::string Where = What + " loc #" + std::to_string(I);
    ASSERT_EQ(Got.NumWriters, Want.NumWriters) << Where;
    ASSERT_EQ(Got.NumReaders, Want.NumReaders) << Where;
    ASSERT_EQ(Got.Rac, Want.Rac) << Where;
    ASSERT_EQ(Got.Rab, Want.Rab) << Where;
    ASSERT_EQ(Got.Writes, Want.Writes) << Where;
    ASSERT_EQ(Got.Reads, Want.Reads) << Where;
    ASSERT_EQ(Got.ReachesPredicate, Want.ReachesPredicate) << Where;
    ASSERT_EQ(Got.ReachesNative, Want.ReachesNative) << Where;
    // The by-key lookup reads the same entry.
    LocCostBenefit ByKey = Table.locCostBenefit(G.loc(I));
    ASSERT_EQ(ByKey.Rab, Got.Rab) << Where;
    ASSERT_EQ(ByKey.Rac, Got.Rac) << Where;
  }
}

} // namespace test
} // namespace lud

#endif // LUD_TESTS_TESTUTIL_H
