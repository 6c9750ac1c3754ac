//===- profiling/CopyProfiler.cpp - Extended copy profiling ----------------===//

#include "profiling/CopyProfiler.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "obs/Metrics.h"
#include "profiling/FrozenGraph.h"

#include <cassert>

using namespace lud;

uint32_t CopyProfiler::LocTable::intern(const HeapLoc &L) {
  auto [Id, Inserted] = Ids.insert(L, uint32_t(Locs.size() + 1));
  if (Inserted)
    Locs.push_back(L);
  return Id;
}

uint32_t CopyProfiler::locOf(const Instruction &I, uint64_t Tag,
                             FieldSlot Slot, LocTable &T) {
  InstrId Id = I.getId();
  if (Id < LocMemo.size() && LocMemo[Id].Tag == Tag)
    return LocMemo[Id].Loc;
  uint32_t Loc = 0;
  // Objects never carry static pseudo-tags (DepGraph::makeTag asserts it),
  // so a static tag here is a static location.
  if (Tag != kNoTag)
    Loc = T.intern(DepGraph::isStaticTag(Tag)
                       ? HeapLoc{Tag, Slot}
                       : HeapLoc{Sub->graph().tagSite(Tag), Slot});
  if (Id < LocMemo.size())
    LocMemo[Id] = {Tag, Loc};
  return Loc;
}

void CopyProfiler::onRunStart(const Module &Mod, Heap &Heap_) {
  H = &Heap_;
  Sh.startRun(Heap_, Mod.globals().size());
  G.sizeHitMemo(Mod.getNumInstrs());
  if (!G.hotPathMemo())
    LocMemo.clear();
  else if (LocMemo.size() != Mod.getNumInstrs())
    LocMemo.assign(Mod.getNumInstrs(), TagMemo{});
}

void CopyProfiler::onEntryFrame(const Function &F) {
  Sh.enterEntry(F.getNumRegs());
}

void CopyProfiler::onConst(const ConstInst &I) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
}

void CopyProfiler::onAssign(const AssignInst &I) {
  // A register copy keeps the origin alive: this is an intermediate stack
  // hop of a copy chain.
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin);
  edgeFrom(Src, N);
  regs()[I.Dst] = {N, Src.Origin};
  if (Src.Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onBin(const BinInst &I) { compute(I, I.Dst, I.Lhs, I.Rhs); }

void CopyProfiler::onUn(const UnInst &I) { compute(I, I.Dst, I.Src); }

void CopyProfiler::onAlloc(const AllocInst &I, ObjId O) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
  Sh.objShadow(O);
}

void CopyProfiler::onAllocArray(const AllocArrayInst &I, ObjId O) {
  NodeId N = hit(I, kBottomOrigin);
  edgeFrom(regs()[I.Len], N);
  regs()[I.Dst] = {N, kBottomOrigin};
  Sh.objShadow(O);
}

void CopyProfiler::onLoadField(const LoadFieldInst &I, ObjId Base,
                               const Value &) {
  // The loaded value originates from this field: a chain starts here.
  OriginId Origin = locOf(I, H->obj(Base).Tag, I.Slot, Origins);
  NodeId N = hit(I, Origin);
  edgeFrom(Sh.objShadow(Base)[I.Slot], N);
  regs()[I.Dst] = {N, Origin};
  if (Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onStoreField(const StoreFieldInst &I, ObjId Base,
                                const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin);
  edgeFrom(Src, N);
  Sh.objShadow(Base)[I.Slot] = {N, Src.Origin};
  storeCopy(I, Src.Origin, H->obj(Base).Tag, I.Slot, N);
}

void CopyProfiler::onLoadStatic(const LoadStaticInst &I, const Value &) {
  OriginId Origin = locOf(I, DepGraph::makeStaticTag(I.Global), 0, Origins);
  NodeId N = hit(I, Origin);
  edgeFrom(Sh.staticAt(I.Global), N);
  regs()[I.Dst] = {N, Origin};
  ++CopyCount;
}

void CopyProfiler::onStoreStatic(const StoreStaticInst &I, const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin);
  edgeFrom(Src, N);
  Sh.staticAt(I.Global) = {N, Src.Origin};
  storeCopy(I, Src.Origin, DepGraph::makeStaticTag(I.Global), 0, N);
}

void CopyProfiler::onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                              const Value &) {
  OriginId Origin = locOf(I, H->obj(Base).Tag, kElemSlot, Origins);
  NodeId N = hit(I, Origin);
  edgeFrom(Sh.objShadow(Base)[Index], N);
  regs()[I.Dst] = {N, Origin};
  if (Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onStoreElem(const StoreElemInst &I, ObjId Base,
                               uint32_t Index, const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin);
  edgeFrom(Src, N);
  Sh.objShadow(Base)[Index] = {N, Src.Origin};
  storeCopy(I, Src.Origin, H->obj(Base).Tag, kElemSlot, N);
}

void CopyProfiler::onArrayLen(const ArrayLenInst &I, ObjId) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
}

void CopyProfiler::onPredicate(const CondBrInst &I, bool) {
  NodeId N = G.hitConsumer(I.getId(), ConsumerKind::Predicate);
  edgeFrom(regs()[I.Lhs], N);
  edgeFrom(regs()[I.Rhs], N);
}

void CopyProfiler::onNativeCall(const NativeCallInst &I) {
  NodeId N = G.hitConsumer(I.getId(), ConsumerKind::Native);
  for (Reg A : I.Args)
    edgeFrom(regs()[A], N);
  if (I.Dst != kNoReg)
    regs()[I.Dst] = {N, kBottomOrigin};
}

void CopyProfiler::onCallEnter(const CallInst &I, const Function &Callee,
                               ObjId) {
  Sh.pushFrame(I, Callee.getNumRegs());
}

void CopyProfiler::onReturn(const ReturnInst &I) {
  Sh.Pending = ShadowVal();
  if (I.Src != kNoReg) {
    ShadowVal Src = regs()[I.Src];
    NodeId N = hit(I, Src.Origin);
    edgeFrom(Src, N);
    Sh.Pending = {N, Src.Origin};
    if (Src.Origin != kBottomOrigin)
      ++CopyCount;
  }
  Sh.popFrame();
}

void CopyProfiler::onReturnBound(Reg Dst) {
  if (Dst != kNoReg)
    regs()[Dst] = Sh.Pending;
  Sh.Pending = ShadowVal();
}

void CopyProfiler::storeCopy(const Instruction &I, OriginId Src,
                             uint64_t Tag, FieldSlot Slot, NodeId N) {
  if (Src == kBottomOrigin)
    return;
  uint32_t To = locOf(I, Tag, Slot, Dests);
  if (To == 0)
    return;
  ++CopyCount;
  recordChain(Src, To, N);
}

void CopyProfiler::recordChain(OriginId From, uint32_t To, NodeId Store) {
  auto [Idx, Inserted] = ChainIndex.insert((uint64_t(From) << 32) | To,
                                           uint32_t(Chains.size()));
  if (Inserted)
    Chains.push_back({originLoc(From), Dests.Locs[To - 1], 0, Store});
  ++Chains[Idx].Count;
}

void CopyProfiler::accountStats(obs::MetricsRegistry &R) const {
  R.set(R.gauge("copy.instances"), CopyCount);
  R.set(R.gauge("copy.chains"), Chains.size());
  uint64_t ChainCopies = 0;
  for (const CopyChain &C : Chains)
    ChainCopies += C.Count;
  R.set(R.gauge("copy.chain_copies"), ChainCopies);
  R.set(R.gauge("copy.origins"), Origins.Locs.size());
  R.set(R.gauge("copy.graph.nodes"), G.numNodes());
  R.set(R.gauge("copy.graph.edges"), G.numEdges());
  R.set(R.gauge("mem.copy.graph_bytes", obs::Unit::Bytes),
        G.memoryFootprint().total() + G.internTableBytes());
}

void CopyProfiler::mergeFrom(const CopyProfiler &O) {
  std::vector<NodeId> Remap = G.mergeFrom(O.G);
  CopyCount += O.CopyCount;
  // Origins must intern to the same ids here as in O: node domains embed
  // them. Deterministic shards of one module intern in the same order, so
  // this re-interning is the identity (checked), merely extending this
  // table with origins O saw first.
  for (size_t I = 0; I != O.Origins.Locs.size(); ++I) {
    OriginId R = Origins.intern(O.Origins.Locs[I]);
    assert(R == OriginId(I + 1) &&
           "merged profilers interned origins in different orders");
    (void)R;
  }
  for (const CopyChain &C : O.Chains) {
    uint64_t Key = (uint64_t(Origins.intern(C.From)) << 32) |
                   Dests.intern(C.To);
    auto [Idx, Inserted] = ChainIndex.insert(Key, uint32_t(Chains.size()));
    if (Inserted)
      Chains.push_back({C.From, C.To, 0, Remap[C.StoreNode]});
    Chains[Idx].Count += C.Count;
  }
}

std::vector<InstrId> CopyProfiler::stackHops(const CopyChain &Chain,
                                             const FrozenGraph &Sealed) {
  std::vector<InstrId> Hops;
  // Follow same-origin predecessors from the final store back to the load
  // that started the chain.
  OriginId Origin = Sealed.domain(Chain.StoreNode);
  NodeId N = Chain.StoreNode;
  std::vector<bool> Seen(Sealed.numNodes(), false);
  while (N != kNoNode && !Seen[N]) {
    Seen[N] = true;
    Hops.push_back(Sealed.instr(N));
    NodeId Next = kNoNode;
    for (NodeId P : Sealed.in(N)) {
      if (Sealed.domain(P) == Origin) {
        Next = P;
        break;
      }
    }
    N = Next;
  }
  return Hops;
}
