//===- tests/analysis/PassPipelineTest.cpp - Rewrite-pass pipeline ---------===//

#include "analysis/PassManager.h"

#include "analysis/Optimizer.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

RunResult engineRun(const Module &M, EngineKind E) {
  SessionConfig SC = SessionConfig::baseline();
  SC.Engine = E;
  ProfileSession S(SC);
  return S.run(M).Run;
}

opt::PipelineResult runPipeline(const Module &M,
                                std::vector<std::string> Passes = {}) {
  opt::PipelineOptions PO;
  PO.Engine = EngineKind::Interp;
  PO.Passes = std::move(Passes);
  opt::PassManager PM(std::move(PO));
  return PM.run(M);
}

const opt::PassStats *statsFor(const opt::PipelineResult &R,
                               const std::string &Pass) {
  for (const auto &[Name, S] : R.PerPass)
    if (Name == Pass)
      return &S;
  return nullptr;
}

/// Expects the rewritten module to reproduce the original's observables on
/// both engines — the contract every committed rewrite promises.
void expectPreserved(const Module &Orig, const opt::PipelineResult &R,
                     const std::string &Ctx) {
  if (!R.Changed)
    return;
  ASSERT_NE(R.M, nullptr) << Ctx;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*R.M, Errors)) << Ctx;
  for (const std::string &E : Errors)
    ADD_FAILURE() << Ctx << ": " << E;
  for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
    RunResult A = engineRun(Orig, E);
    RunResult B = engineRun(*R.M, E);
    EXPECT_EQ(A.Status, B.Status) << Ctx;
    EXPECT_EQ(A.SinkHash, B.SinkHash) << Ctx;
    EXPECT_EQ(A.ReturnValue.asInt(), B.ReturnValue.asInt()) << Ctx;
  }
}

/// A lookup kernel in the exact shape map-to-array matches: an array built
/// once in the entry block, then an outer loop of linear lower-bound scans.
/// \p Sorted selects sorted (rewrite-safe) or shuffled (rewrite-unsafe)
/// contents.
std::unique_ptr<Module> buildScanKernel(bool Sorted) {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg Sz = B.iconst(32);
  Reg A = B.allocArray(TypeKind::Int, Sz);
  Reg One = B.iconst(1);
  Reg N = B.iconst(64);
  Reg Mask = B.iconst(63);
  Reg Step = B.iconst(7);
  for (int J = 0; J != 32; ++J) {
    Reg Jr = B.iconst(J);
    Reg Vr = B.iconst(Sorted ? 2 * J : (11 * J) & 63);
    B.storeElem(A, Jr, Vr);
  }
  Reg I = B.iconst(0);
  BasicBlock *OH = B.newBlock(); // outer header
  BasicBlock *PRE = B.newBlock(); // scan preheader
  BasicBlock *SH = B.newBlock(); // scan header
  BasicBlock *SB = B.newBlock(); // probe
  BasicBlock *ST = B.newBlock(); // step
  BasicBlock *SX = B.newBlock(); // scan exit
  BasicBlock *OX = B.newBlock(); // outer exit
  B.br(OH);
  B.setBlock(OH);
  B.condBr(CmpOp::Lt, I, N, PRE, OX);
  B.setBlock(PRE);
  Reg T = B.mul(I, Step);
  Reg Key = B.bin(BinOp::And, T, Mask);
  Reg Pos = B.iconst(0);
  B.br(SH);
  B.setBlock(SH);
  B.condBr(CmpOp::Lt, Pos, Sz, SB, SX);
  B.setBlock(SB);
  Reg At = B.loadElem(A, Pos);
  B.condBr(CmpOp::Lt, At, Key, ST, SX);
  B.setBlock(ST);
  B.binInto(Pos, BinOp::Add, Pos, One);
  B.br(SH);
  B.setBlock(SX);
  B.ncallVoid("sink", {Pos});
  B.binInto(I, BinOp::Add, I, One);
  B.br(OH);
  B.setBlock(OX);
  B.ret(I);
  B.endFunction();
  M->finalize();
  return M;
}

TEST(PassPipelineTest, DeadStorePassMatchesLegacyOptimizer) {
  Workload W = buildWorkload("chart", 100);
  ProfiledRun P = profiledRun(*W.M);
  FrozenGraph FG(P.Prof->graph());
  DeadValueAnalysis DV = computeDeadValues(FG, P.Run.ExecutedInstrs);
  OptimizeResult Legacy = removeProfiledDeadCode(*W.M, FG, DV);

  opt::PipelineResult R = runPipeline(*W.M, {"dead-stores"});
  ASSERT_TRUE(R.Changed);
  EXPECT_EQ(R.Stats.RemovedStores, Legacy.Stats.RemovedStores);
  EXPECT_EQ(R.Stats.RemovedPure, Legacy.Stats.RemovedPure);
  expectPreserved(*W.M, R, "chart/dead-stores");
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, MapToArrayRewritesSortedScan) {
  std::unique_ptr<Module> M = buildScanKernel(/*Sorted=*/true);
  opt::PipelineResult R = runPipeline(*M, {"map-to-array"});
  const opt::PassStats *S = statsFor(R, "map-to-array");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Applied, 1u);
  EXPECT_EQ(S->RolledBack, 0u);
  ASSERT_TRUE(R.Changed);
  EXPECT_NE(R.M->findFunction("lud.lowerBound"), kNoFunc);
  expectPreserved(*M, R, "sorted-scan/map-to-array");
  // Binary search beats the linear scan on the profiled input.
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
  ASSERT_FALSE(R.Outcomes.empty());
  EXPECT_NE(R.Outcomes.front().Rationale.find("build-once-read-many"),
            std::string::npos);
}

TEST(PassPipelineTest, MapToArrayRollsBackUnsortedScan) {
  // Same shape, shuffled contents: the evidence gate still fires (the
  // counters cannot see sortedness), but differential validation catches
  // the changed sink stream and rolls the candidate back.
  std::unique_ptr<Module> M = buildScanKernel(/*Sorted=*/false);
  opt::PipelineResult R = runPipeline(*M, {"map-to-array"});
  const opt::PassStats *S = statsFor(R, "map-to-array");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Applied, 0u);
  EXPECT_EQ(S->RolledBack, 1u);
  EXPECT_FALSE(R.Changed);
  ASSERT_FALSE(R.Outcomes.empty());
  EXPECT_FALSE(R.Outcomes.front().Applied);
  EXPECT_FALSE(R.Outcomes.front().Reason.empty());
}

TEST(PassPipelineTest, ClonePerOpHoistsThenUpdatesInPlace) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M, {"clone-per-op"});
  const opt::PassStats *S = statsFor(R, "clone-per-op");
  ASSERT_NE(S, nullptr);
  // The designed cascade: hoist the loop-invariant matrix chain first,
  // then specialize the clone-then-update callee for the cooled-down site.
  EXPECT_EQ(S->Applied, 2u);
  bool SawHoist = false, SawInPlace = false;
  for (const opt::PassOutcome &O : R.Outcomes) {
    if (O.Applied && O.Target.find("hoist su_render") != std::string::npos)
      SawHoist = true;
    if (O.Applied && O.Target.find("inplace") != std::string::npos &&
        O.Target.find("Matrix.scale") != std::string::npos)
      SawInPlace = true;
  }
  EXPECT_TRUE(SawHoist);
  EXPECT_TRUE(SawInPlace);
  ASSERT_TRUE(R.Changed);
  EXPECT_NE(R.M->findFunction("Matrix.scale_inplace"), kNoFunc);
  expectPreserved(*W.M, R, "sunflow/clone-per-op");
  EXPECT_LT(R.AllocsAfter, R.AllocsBefore);
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, OnceReadMemoRemovalFeedsFinalSweep) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R =
      runPipeline(*W.M, {"once-read-memo", "dead-stores-final"});
  const opt::PassStats *Memo = statsFor(R, "once-read-memo");
  const opt::PassStats *Sweep = statsFor(R, "dead-stores-final");
  ASSERT_NE(Memo, nullptr);
  ASSERT_NE(Sweep, nullptr);
  EXPECT_EQ(Memo->Applied, 1u);
  // The stranded memo table is the final sweep's food.
  EXPECT_GE(Sweep->Applied, 1u);
  EXPECT_GT(Sweep->RemovedStores, 0u);
  expectPreserved(*W.M, R, "sunflow/once-read-memo");
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, ReportRendersPassStatsAndRationales) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M);
  StringOutStream OS;
  opt::renderOptimizeReport(R, OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("=== Optimizer ==="), std::string::npos);
  EXPECT_NE(Text.find("pass clone-per-op"), std::string::npos);
  EXPECT_NE(Text.find("[applied]"), std::string::npos);
  EXPECT_NE(Text.find("evidence"), std::string::npos);
}

TEST(PassPipelineTest, StatsPublishedAsLudStatsV1) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M);
  ASSERT_TRUE(R.Changed);
  obs::MetricsRegistry Reg;
  opt::PassManager::accountStats(R, Reg);
  StringOutStream OS;
  Reg.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("opt.removed_stores"), std::string::npos);
  EXPECT_NE(Json.find("opt.rewrites.clone_per_op"), std::string::npos);
  EXPECT_NE(Json.find("opt.passes_applied"), std::string::npos);
  EXPECT_NE(Json.find("opt.executed_after"), std::string::npos);
}

TEST(PassPipelineTest, UnknownPassNamesAreRejectedByLookup) {
  EXPECT_TRUE(opt::isKnownPassName("dead-stores"));
  EXPECT_TRUE(opt::isKnownPassName("map-to-array"));
  EXPECT_TRUE(opt::isKnownPassName("clone-per-op"));
  EXPECT_TRUE(opt::isKnownPassName("once-read-memo"));
  EXPECT_TRUE(opt::isKnownPassName("dead-stores-final"));
  EXPECT_FALSE(opt::isKnownPassName("loop-unroll"));
  EXPECT_FALSE(opt::isKnownPassName(""));
}

TEST(PassPipelineTest, AllRecipesPreservedOnBothEngines) {
  // The acceptance contract: whatever the pipeline commits on any of the
  // 18 analogues, the rewritten module reproduces the original's
  // observables on both engines.
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 48);
    opt::PipelineResult R = runPipeline(*W.M);
    EXPECT_EQ(R.ReferenceStatus, RunStatus::Finished) << Name;
    expectPreserved(*W.M, R, Name);
    if (R.Changed) {
      EXPECT_LE(R.InstrsAfter, R.InstrsBefore) << Name;
    }
  }
}

} // namespace
