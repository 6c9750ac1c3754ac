//===- analysis/Clients.cpp - Section 3.2's auxiliary clients --------------===//

#include "analysis/Clients.h"

#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/OutStream.h"

#include <algorithm>

using namespace lud;

std::vector<OverwriteRow> lud::rankOverwrites(const SlicingProfiler &P,
                                              const Module &M,
                                              const ClientOptions &Opts) {
  const DepGraph &G = P.graph();
  // Aggregate per (site-or-global, slot) over context-annotated tags:
  // sort the locations by that key, then fold each run into one row.
  struct Keyed {
    uint64_t Key; // The static tag, or the allocation site.
    FieldSlot Slot;
    const LocationActivity *Act;
  };
  std::vector<Keyed> Locs;
  Locs.reserve(P.locationActivity().size());
  for (const auto &[Loc, Act] : P.locationActivity()) {
    uint64_t Key =
        DepGraph::isStaticTag(Loc.Tag) ? Loc.Tag : G.tagSite(Loc.Tag);
    Locs.push_back({Key, Loc.Slot, &Act});
  }
  std::sort(Locs.begin(), Locs.end(), [](const Keyed &A, const Keyed &B) {
    return A.Key != B.Key ? A.Key < B.Key : A.Slot < B.Slot;
  });

  std::vector<OverwriteRow> Rows;
  for (size_t I = 0, J; I != Locs.size(); I = J) {
    OverwriteRow Row;
    for (J = I; J != Locs.size() && Locs[J].Key == Locs[I].Key &&
                Locs[J].Slot == Locs[I].Slot;
         ++J) {
      Row.Writes += Locs[J].Act->Writes;
      Row.Reads += Locs[J].Act->Reads;
      Row.Overwrites += Locs[J].Act->Overwrites;
    }
    if (Row.Writes < Opts.MinWrites)
      continue;
    const uint64_t Key = Locs[I].Key;
    Row.Slot = Locs[I].Slot;
    if (DepGraph::isStaticTag(Key)) {
      Row.Global = GlobalId(Key - kStaticTagBase);
      Row.Description = "static @" + M.globals()[Row.Global].Name;
    } else {
      Row.Site = AllocSiteId(Key);
      ClassId Cls = kNoClass;
      if (const auto *A = dyn_cast<AllocInst>(M.getAllocSite(Row.Site)))
        Cls = A->Class;
      std::string FieldName;
      if (Row.Slot == kElemSlot)
        FieldName = "ELM";
      else if (Row.Slot == kLenSlot)
        FieldName = "length";
      else if (Cls != kNoClass)
        FieldName = M.fieldName(Cls, Row.Slot);
      else
        FieldName = "<slot" + std::to_string(Row.Slot) + ">";
      Row.Description = M.describeAllocSite(Row.Site) + " ." + FieldName;
    }
    Row.WasteRatio = Row.Writes ? double(Row.Overwrites) / double(Row.Writes)
                                : 0;
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const OverwriteRow &A, const OverwriteRow &B) {
              if (A.Overwrites != B.Overwrites)
                return A.Overwrites > B.Overwrites;
              if (A.WasteRatio != B.WasteRatio)
                return A.WasteRatio > B.WasteRatio;
              return A.Description < B.Description;
            });
  return Rows;
}

int lud::overwriteRankOf(const std::vector<OverwriteRow> &Rows,
                         AllocSiteId Site) {
  for (size_t I = 0; I != Rows.size(); ++I)
    if (Rows[I].Site == Site)
      return int(I);
  return -1;
}

std::vector<MethodCostRow> lud::computeMethodCosts(const CostModel &CM,
                                                   const Module &M) {
  const FrozenGraph &G = CM.graph();
  const size_t NumFuncs = M.functions().size();
  std::vector<MethodCostRow> ByFunc(NumFuncs);
  std::vector<uint64_t> RetHracSum(NumFuncs, 0);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    InstrId Instr = G.instr(N);
    const Function *Fn = M.getInstrFunction(Instr);
    MethodCostRow &Row = ByFunc[Fn->getId()];
    Row.Func = Fn->getId();
    Row.OwnFreq = saturatingAdd(Row.OwnFreq, G.freq(N));
    if (isa<ReturnInst>(M.getInstr(Instr))) {
      RetHracSum[Row.Func] = saturatingAdd(RetHracSum[Row.Func], CM.hrac(N));
      ++Row.ReturnNodes;
    }
  }
  std::vector<MethodCostRow> Rows;
  for (MethodCostRow &Row : ByFunc) {
    if (Row.Func == kNoFunc)
      continue; // No node of this function was profiled.
    Row.Name = M.getFunction(Row.Func)->getName();
    if (Row.ReturnNodes)
      Row.ReturnCost = double(RetHracSum[Row.Func]) / double(Row.ReturnNodes);
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const MethodCostRow &A, const MethodCostRow &B) {
              if (A.ReturnCost != B.ReturnCost)
                return A.ReturnCost > B.ReturnCost;
              return A.OwnFreq > B.OwnFreq;
            });
  return Rows;
}

std::vector<ConstantPredicateRow>
lud::findConstantPredicates(const SlicingProfiler &P, const CostModel &CM,
                            const Module &M, const ClientOptions &Opts) {
  std::vector<ConstantPredicateRow> Rows;
  for (const auto &[Node, Outcome] : P.predicateOutcomes()) {
    uint64_t Total = Outcome.TakenCount + Outcome.NotTakenCount;
    if (Total < Opts.MinCount)
      continue;
    if (Outcome.TakenCount != 0 && Outcome.NotTakenCount != 0)
      continue;
    ConstantPredicateRow Row;
    Row.Node = Node;
    Row.Instr = CM.graph().instr(Node);
    Row.Executions = Total;
    Row.AlwaysTrue = Outcome.TakenCount != 0;
    Row.OperandCost = CM.hrac(Node);
    Row.Text = instToString(M, *M.getInstr(Row.Instr)) + " @ " +
               M.getInstrFunction(Row.Instr)->getName();
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const ConstantPredicateRow &A, const ConstantPredicateRow &B) {
              double WA = double(A.OperandCost) * double(A.Executions);
              double WB = double(B.OperandCost) * double(B.Executions);
              if (WA != WB)
                return WA > WB;
              return A.Instr < B.Instr;
            });
  return Rows;
}
