//===- profiling/DepGraph.cpp - Abstract thin data dependence graph --------===//

#include "profiling/DepGraph.h"

#include <cassert>

using namespace lud;

NodeId DepGraph::hitSlow(InstrId Instr, uint32_t Domain) {
  NodeId Id = getOrCreate(Instr, Domain);
  ++Freqs[Id];
  if (Instr < HitMemo.size())
    HitMemo[Instr] = {Domain, Id};
  return Id;
}

void DepGraph::insertEdge(uint64_t &Memo, uint64_t Key) {
  if (HotPathMemo)
    Memo = Key;
  linkEdge(Key);
}

std::vector<NodeId> DepGraph::mergeFrom(const DepGraph &O) {
  assert((Nodes.empty() || ContextSlots == O.ContextSlots) &&
         "merging graphs built with different context-slot counts");
  if (Nodes.empty())
    ContextSlots = O.ContextSlots;
  Nodes.reserve(Nodes.size() + O.Nodes.size());

  // Re-intern O's nodes in id order (O's creation order, i.e. first-use
  // order of its run), so a merge into an empty graph reproduces O's
  // numbering exactly.
  std::vector<NodeId> Remap(O.Nodes.size(), kNoNode);
  for (NodeId N = 0, E = NodeId(O.Nodes.size()); N != E; ++N) {
    const Node &Src = O.Nodes[N];
    NodeId Mine = getOrCreate(Src.Instr, Src.Domain);
    Remap[N] = Mine;
    Node &Dst = Nodes[Mine];
    Freqs[Mine] += O.Freqs[N];
    Dst.ReadsHeap |= Src.ReadsHeap;
    Dst.WritesHeap |= Src.WritesHeap;
    Dst.IsAlloc |= Src.IsAlloc;
    Dst.StoredRef |= Src.StoredRef;
    // Last-writer-wins fields: O plays the part of the later run.
    if (Src.Consumer != ConsumerKind::None)
      Dst.Consumer = Src.Consumer;
    if (Src.Effect != EffectKind::None) {
      Dst.Effect = Src.Effect;
      Dst.EffectLoc = Src.EffectLoc;
    }
  }

  // The remap is injective and O has no self-edges, so no self-edge can
  // appear here either.
  std::vector<uint32_t> Offsets;
  std::vector<NodeId> Targets;
  O.edgeBuckets(/*BySource=*/true, Offsets, Targets);
  for (NodeId N = 0, E = NodeId(O.Nodes.size()); N != E; ++N)
    for (uint32_t I = Offsets[N]; I != Offsets[N + 1]; ++I)
      linkEdge(edgeKey(Remap[N], Remap[Targets[I]]));
  for (auto [Store, Alloc] : O.RefEdges)
    addRefEdge(Remap[Store], Remap[Alloc]);

  for (const auto &[Tag, N] : O.AllocNodeByTag)
    noteAlloc(Tag, Remap[N]);
  for (const auto &[Loc, Ns] : O.Writers)
    for (NodeId N : Ns)
      noteWriter(Loc, Remap[N]);
  for (const auto &[Loc, Ns] : O.Readers)
    for (NodeId N : Ns)
      noteReader(Loc, Remap[N]);
  for (const auto &[Loc, Children] : O.RefChildren)
    for (uint64_t C : Children)
      noteRefChild(Loc, C);
  return Remap;
}

void DepGraph::edgeBuckets(bool BySource, std::vector<uint32_t> &Offsets,
                           std::vector<NodeId> &Adj) const {
  auto Bucket = [BySource](uint64_t Key) {
    return BySource ? edgeSource(Key) : edgeTarget(Key);
  };
  auto Neighbour = [BySource](uint64_t Key) {
    return BySource ? edgeTarget(Key) : edgeSource(Key);
  };
  Offsets.assign(Nodes.size() + 1, 0);
  for (uint64_t Key : EdgeLog)
    ++Offsets[Bucket(Key) + 1];
  for (size_t N = 1; N < Offsets.size(); ++N)
    Offsets[N] += Offsets[N - 1];
  Adj.resize(EdgeLog.size());
  // Offsets[N] is bucket N's cursor while scattering; it ends on the
  // bucket's end, i.e. the next bucket's start, so shifting the array up
  // one slot restores the starts.
  for (uint64_t Key : EdgeLog)
    Adj[Offsets[Bucket(Key)]++] = Neighbour(Key);
  for (size_t N = Offsets.size() - 1; N != 0; --N)
    Offsets[N] = Offsets[N - 1];
  Offsets[0] = 0;
}

DepGraph::MemoryFootprint DepGraph::memoryFootprint() const {
  MemoryFootprint F;
  F.NodeBytes = Nodes.capacity() * sizeof(Node) +
                Freqs.capacity() * sizeof(uint64_t);
  F.EdgeBytes = EdgeLog.capacity() * sizeof(uint64_t) +
                RefEdges.capacity() * sizeof(std::pair<NodeId, NodeId>);
  F.LocMapBytes =
      Writers.memoryBytes() + Readers.memoryBytes() + RefChildren.memoryBytes();
  for (const auto &[L, V] : Writers)
    F.LocMapBytes += V.capacity() * sizeof(NodeId);
  for (const auto &[L, V] : Readers)
    F.LocMapBytes += V.capacity() * sizeof(NodeId);
  for (const auto &[L, V] : RefChildren)
    F.LocMapBytes += V.capacity() * sizeof(uint64_t);
  return F;
}
