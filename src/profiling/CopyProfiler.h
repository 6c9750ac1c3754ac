//===- profiling/CopyProfiler.h - Extended copy profiling ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extended copy profiling client of Section 2.1 / Figure 2(c):
/// abstract slicing over the domain O x P (allocation site x field) plus a
/// bottom element for values that did not originate from a field. Copy
/// instructions are annotated with the field their value came from, so a
/// chain O1.f -> stack copies -> O3.f can be recovered *including* the
/// intermediate stack hops (unlike the flat copy-graph of prior work).
///
/// A pipeline stage attached to the SlicingProfiler substrate: allocation
/// sites are read from the heap object tags the substrate writes
/// (environment P), instead of a duplicate per-object site table, and the
/// shadow-location machinery is the shared ShadowMachine. Compose it after
/// the substrate (runtime/ComposedProfiler.h) so tags exist by the time a
/// load or store touches the object. Objects allocated while the substrate
/// had tracking gated off carry no tag and take no part in chains.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_COPYPROFILER_H
#define LUD_PROFILING_COPYPROFILER_H

#include "profiling/DepGraph.h"
#include "profiling/ShadowMachine.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"

#include <vector>

namespace lud {

class FrozenGraph;
class Module;

/// Interned origin: the ⊥ element is 0 ("not from any field").
using OriginId = uint32_t;
inline constexpr OriginId kBottomOrigin = 0;

class CopyProfiler {
public:
  /// \p Substrate is the slicing profiler whose heap tags provide the
  /// allocation sites; it must run in the same pipeline, before this stage.
  explicit CopyProfiler(const SlicingProfiler &Substrate) : Sub(&Substrate) {}

  DepGraph &graph() { return G; }
  const DepGraph &graph() const { return G; }

  /// A completed heap-to-heap copy: data read from From was stored,
  /// unmodified, into To. Count is the number of such element copies.
  struct CopyChain {
    HeapLoc From;
    HeapLoc To;
    uint64_t Count = 0;
    /// Node performing the final store (entry point for walking the
    /// intermediate stack hops backward).
    NodeId StoreNode = kNoNode;
  };
  const std::vector<CopyChain> &chains() const { return Chains; }

  /// Total executed copy-instruction instances (assigns + loads + stores
  /// moving field-originated data without computation).
  uint64_t copyInstances() const { return CopyCount; }

  /// Abstract location for the origin id (inverse of interning);
  /// kBottomOrigin maps to a zero location.
  HeapLoc originLoc(OriginId O) const {
    return O == kBottomOrigin ? HeapLoc{0, 0} : Origins.Locs[O - 1];
  }

  /// Walks backward from a chain's store node through nodes with the same
  /// origin annotation, returning the intermediate copy instructions
  /// (store first, the load that started the chain last). \p Sealed is
  /// graph() sealed; a report seals it once for all its chains.
  static std::vector<InstrId> stackHops(const CopyChain &Chain,
                                        const FrozenGraph &Sealed);

  /// Writes this client's state-derived telemetry (`copy.*` gauges) into
  /// \p R. Idempotent set()s; see SlicingProfiler::accountStats.
  void accountStats(obs::MetricsRegistry &R) const;

  /// Merges another profiler's results into this one, treating \p O as the
  /// later of two sequential runs: graphs fold via DepGraph::mergeFrom,
  /// copy-instance counts sum, and chains merge by (from, to) with counts
  /// summed. Both profilers must come from runs of the same module under
  /// the same configuration (the parallel driver's shards), so that origin
  /// interning — which node domains embed — agrees between them.
  void mergeFrom(const CopyProfiler &O);

  // Profiler hooks.
  void onRunStart(const Module &Mod, Heap &H);
  void onRunEnd() {}
  void onEntryFrame(const Function &F);
  void onPhase(int64_t) {}
  void onConst(const ConstInst &I);
  void onAssign(const AssignInst &I);
  void onBin(const BinInst &I);
  void onUn(const UnInst &I);
  void onAlloc(const AllocInst &I, ObjId O);
  void onAllocArray(const AllocArrayInst &I, ObjId O);
  void onLoadField(const LoadFieldInst &I, ObjId Base, const Value &Loaded);
  void onStoreField(const StoreFieldInst &I, ObjId Base, const Value &Stored);
  void onLoadStatic(const LoadStaticInst &I, const Value &Loaded);
  void onStoreStatic(const StoreStaticInst &I, const Value &Stored);
  void onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                  const Value &Loaded);
  void onStoreElem(const StoreElemInst &I, ObjId Base, uint32_t Index,
                   const Value &Stored);
  void onArrayLen(const ArrayLenInst &I, ObjId Base);
  void onPredicate(const CondBrInst &I, bool Taken);
  void onNativeCall(const NativeCallInst &I);
  void onCallEnter(const CallInst &I, const Function &Callee, ObjId Receiver);
  void onReturn(const ReturnInst &I);
  void onReturnBound(Reg Dst);
  void onTrap(const Instruction &, TrapKind, Reg) {}

private:
  /// Shadow payload: the copy-graph node that produced the location's
  /// value plus the field the value originated from.
  struct ShadowVal {
    NodeId N = kNoNode;
    OriginId Origin = kBottomOrigin;
  };

  ShadowVal *regs() { return Sh.regs(); }

  /// Abstract locations interned to dense 1-based ids (0 means none), keyed
  /// by the exact location.
  struct LocTable {
    HeapLocMap<uint32_t> Ids;
    std::vector<HeapLoc> Locs;
    uint32_t intern(const HeapLoc &L);
  };

  /// Id in \p T of the abstract location instruction \p I touches on an
  /// object tagged \p Tag: (allocation site, \p Slot) for a field or
  /// element, the location itself for a static pseudo-tag, 0 for an
  /// untagged object. Memoized per instruction on the tag, so the steady
  /// state skips both the tag's site division and the table probe.
  uint32_t locOf(const Instruction &I, uint64_t Tag, FieldSlot Slot,
                 LocTable &T);

  NodeId hit(const Instruction &I, OriginId Origin) {
    return G.hit(I.getId(), Origin);
  }
  void edgeFrom(const ShadowVal &Src, NodeId To) {
    if (Src.N != kNoNode)
      G.addEdge(Src.N, To);
  }
  /// Produces a non-copy (bottom) value into Dst, consuming Srcs.
  template <typename... Srcs>
  void compute(const Instruction &I, Reg Dst, Srcs... Ss) {
    NodeId N = hit(I, kBottomOrigin);
    (edgeFrom(regs()[Ss], N), ...);
    regs()[Dst] = {N, kBottomOrigin};
  }

  /// Store side: a value of origin \p Src stored into \p Tag's \p Slot by
  /// node \p N completes a chain when both ends are known.
  void storeCopy(const Instruction &I, OriginId Src, uint64_t Tag,
                 FieldSlot Slot, NodeId N);
  /// Counts one copy of chain (\p From origin, \p To destination id).
  void recordChain(OriginId From, uint32_t To, NodeId Store);

  const SlicingProfiler *Sub = nullptr;
  DepGraph G;
  Heap *H = nullptr;
  ShadowMachine<ShadowVal> Sh;
  uint64_t CopyCount = 0;

  LocTable Origins;
  /// Chain destinations, interned apart from origins so origin ids (which
  /// node domains embed) do not depend on where values are stored.
  LocTable Dests;
  std::vector<CopyChain> Chains;
  /// (origin id, destination id) -> index into Chains.
  FlatMap<uint64_t, uint32_t> ChainIndex;

  /// locOf's memo, indexed by InstrId: the last tag seen and its id. The
  /// vacant entry (kNoTag -> 0) is already the right answer for an
  /// untagged object. Empty while the graph's hot-path memo is off.
  struct TagMemo {
    uint64_t Tag = kNoTag;
    uint32_t Loc = 0;
  };
  std::vector<TagMemo> LocMemo;
};

} // namespace lud

#endif // LUD_PROFILING_COPYPROFILER_H
