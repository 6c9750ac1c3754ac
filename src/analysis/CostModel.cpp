//===- analysis/CostModel.cpp - Relative abstract costs/benefits -----------===//

#include "analysis/CostModel.h"

#include <algorithm>
#include <cassert>

using namespace lud;

CostModel::CostModel(const FrozenGraph &G) : G(G) {
  const size_t N = G.numNodes();
  HracCache.resize(N);
  HracValid.assign(N, 0);
  HrabCache.resize(N);
  HrabValid.assign(N, 0);
  VisitMark.assign(N, 0);
}

/// Shared BFS worker over the CSR adjacency. Follows out() when Forward,
/// else in(). Neighbors for which \p Blocked returns true are neither
/// counted nor expanded. Returns the frequency sum over visited nodes
/// (start included) and invokes \p OnVisit for each visited node. Visited
/// state is the epoch-stamped dense column, so a query costs no O(N)
/// clear and no hashing.
template <typename BlockedFn, typename VisitFn>
static uint64_t closureFreq(const FrozenGraph &G, NodeId Start, bool Forward,
                            std::vector<uint32_t> &Mark, uint32_t Epoch,
                            std::vector<NodeId> &Work, BlockedFn Blocked,
                            VisitFn OnVisit) {
  Work.clear();
  Work.push_back(Start);
  Mark[Start] = Epoch;
  uint64_t Sum = 0;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    Sum = saturatingAdd(Sum, G.freq(N));
    OnVisit(N);
    for (NodeId M : Forward ? G.out(N) : G.in(N)) {
      if (Mark[M] == Epoch)
        continue;
      Mark[M] = Epoch;
      if (Blocked(M))
        continue;
      Work.push_back(M);
    }
  }
  return Sum;
}

uint64_t CostModel::abstractCost(NodeId N) const {
  return closureFreq(
      G, N, /*Forward=*/false, VisitMark, ++VisitEpoch, WorkScratch,
      [](NodeId) { return false; }, [](NodeId) {});
}

uint64_t CostModel::hrac(NodeId N) const {
  if (HracValid[N])
    return HracCache[N];
  // Definition 5: no node on the path may read from a static or object
  // field, so heap-reading predecessors are not entered (and not counted).
  uint64_t Cost = closureFreq(
      G, N, /*Forward=*/false, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.readsHeap(M); }, [](NodeId) {});
  HracCache[N] = Cost;
  HracValid[N] = 1;
  return Cost;
}

const BenefitInfo &CostModel::hrab(NodeId N) const {
  if (HrabValid[N])
    return HrabCache[N];
  BenefitInfo Info;
  Info.Benefit = closureFreq(
      G, N, /*Forward=*/true, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.writesHeap(M); },
      [this, &Info](NodeId M) {
        ConsumerKind C = G.consumer(M);
        if (C == ConsumerKind::Predicate)
          Info.ReachesPredicate = true;
        else if (C == ConsumerKind::Native)
          Info.ReachesNative = true;
      });
  HrabCache[N] = Info;
  HrabValid[N] = 1;
  return HrabCache[N];
}

namespace {

constexpr uint32_t kNone = ~uint32_t(0);
constexpr uint8_t kPredicateBit = 1;
constexpr uint8_t kNativeBit = 2;

uint8_t consumerBits(const FrozenGraph &G, NodeId N) {
  ConsumerKind C = G.consumer(N);
  return C == ConsumerKind::Predicate ? kPredicateBit
         : C == ConsumerKind::Native  ? kNativeBit
                                      : 0;
}

/// Strongly connected components of the subgraph of nodes that do not
/// write the heap — the nodes a forward HRAB closure may enter — restricted
/// to what is reachable from the roots passed to visit(). Tarjan emits an
/// SCC only after every SCC it reaches, so ids are a reverse topological
/// order: every condensation edge goes from a higher id to a lower one.
struct StackCondensation {
  explicit StackCondensation(const FrozenGraph &G)
      : G(G), SccOf(G.numNodes(), kNone), Index(G.numNodes(), kNone),
        Low(G.numNodes()) {}

  const FrozenGraph &G;
  std::vector<uint32_t> SccOf;
  /// Per SCC: saturated frequency sum and consumer bits of its nodes.
  std::vector<uint64_t> Freq;
  std::vector<uint8_t> Flags;
  /// Condensation edges, CSR over SCC ids (duplicates kept; the sweep's
  /// mask OR is idempotent).
  std::vector<uint32_t> OutBegin, OutIds;

  /// Iterative Tarjan from \p Root. A visited node without an SCC id is
  /// exactly a node on Tarjan's stack.
  void visit(NodeId Root) {
    if (Index[Root] != kNone)
      return;
    enter(Root);
    while (!Call.empty()) {
      auto &[V, Pos] = Call.back();
      std::span<const NodeId> Out = G.out(V);
      if (Pos != Out.size()) {
        NodeId W = Out[Pos++];
        if (G.writesHeap(W))
          continue;
        if (Index[W] == kNone)
          enter(W); // Invalidates V/Pos; the loop re-reads the top.
        else if (SccOf[W] == kNone)
          Low[V] = std::min(Low[V], Index[W]);
        continue;
      }
      NodeId Done = V;
      Call.pop_back();
      if (!Call.empty())
        Low[Call.back().first] = std::min(Low[Call.back().first], Low[Done]);
      if (Low[Done] != Index[Done])
        continue;
      const uint32_t Id = uint32_t(Freq.size());
      uint64_t Sum = 0;
      uint8_t Bits = 0;
      NodeId X;
      do {
        X = Stack.back();
        Stack.pop_back();
        SccOf[X] = Id;
        Members.push_back(X);
        Sum = saturatingAdd(Sum, G.freq(X));
        Bits |= consumerBits(G, X);
      } while (X != Done);
      Freq.push_back(Sum);
      Flags.push_back(Bits);
      MemberEnd.push_back(uint32_t(Members.size()));
    }
  }

  /// Builds the condensation edges once every root has been visited.
  void condense() {
    const uint32_t NumScc = uint32_t(Freq.size());
    OutBegin.assign(NumScc + 1, 0);
    for (uint32_t C = 0, Begin = 0; C != NumScc; Begin = MemberEnd[C++]) {
      OutBegin[C] = uint32_t(OutIds.size());
      for (uint32_t I = Begin; I != MemberEnd[C]; ++I)
        for (NodeId W : G.out(Members[I])) {
          uint32_t D = SccOf[W];
          if (D != kNone && D != C) {
            assert(D < C && "Tarjan order is reverse topological");
            OutIds.push_back(D);
          }
        }
    }
    OutBegin[NumScc] = uint32_t(OutIds.size());
  }

private:
  void enter(NodeId V) {
    Index[V] = Low[V] = NextIndex++;
    Stack.push_back(V);
    Call.emplace_back(V, 0);
  }

  std::vector<uint32_t> Index, Low;
  uint32_t NextIndex = 0;
  std::vector<NodeId> Stack;
  std::vector<std::pair<NodeId, size_t>> Call;
  std::vector<NodeId> Members;
  std::vector<uint32_t> MemberEnd;
};

/// Definition 6 for every node of \p Sources in one pass (see the file
/// comment of CostModel.h). A source that does not write the heap seeds
/// its own SCC; one that does (a read-modify-write node) counts itself and
/// seeds its non-writing successors, exactly as the per-node BFS, which
/// never blocks its start node, does.
std::vector<BenefitInfo> batchedHrab(const FrozenGraph &G,
                                     const std::vector<NodeId> &Sources) {
  std::vector<uint32_t> SeedBegin(Sources.size() + 1);
  std::vector<NodeId> Seeds;
  for (size_t I = 0; I != Sources.size(); ++I) {
    SeedBegin[I] = uint32_t(Seeds.size());
    NodeId S = Sources[I];
    if (!G.writesHeap(S)) {
      Seeds.push_back(S);
      continue;
    }
    for (NodeId W : G.out(S))
      if (!G.writesHeap(W))
        Seeds.push_back(W);
  }
  SeedBegin[Sources.size()] = uint32_t(Seeds.size());
  StackCondensation SC(G);
  for (NodeId N : Seeds)
    SC.visit(N);
  SC.condense();

  // A heap-writing source starts from its own frequency and flags. Batches
  // take sources in order of their highest seeded SCC, so each batch's
  // sweep starts as low in the condensation as its sources allow.
  std::vector<BenefitInfo> Out(Sources.size());
  std::vector<uint32_t> Top(Sources.size(), 0);
  for (size_t I = 0; I != Sources.size(); ++I) {
    if (G.writesHeap(Sources[I])) {
      Out[I].Benefit = G.freq(Sources[I]);
      uint8_t Bits = consumerBits(G, Sources[I]);
      Out[I].ReachesPredicate = Bits & kPredicateBit;
      Out[I].ReachesNative = Bits & kNativeBit;
    }
    for (uint32_t K = SeedBegin[I]; K != SeedBegin[I + 1]; ++K)
      Top[I] = std::max(Top[I], SC.SccOf[Seeds[K]] + 1);
  }
  std::vector<uint32_t> Order(Sources.size());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](uint32_t A, uint32_t B) { return Top[A] > Top[B]; });

  std::vector<uint64_t> Reach(SC.Freq.size(), 0);
  for (size_t First = 0; First < Order.size(); First += 64) {
    const size_t Count = std::min<size_t>(64, Order.size() - First);
    uint64_t Sum[64];
    uint32_t Start = 0;
    size_t Pending = 0; // SCCs with a non-zero mask not yet swept.
    for (size_t B = 0; B != Count; ++B) {
      const uint32_t I = Order[First + B];
      Sum[B] = Out[I].Benefit;
      Start = std::max(Start, Top[I]);
      for (uint32_t K = SeedBegin[I]; K != SeedBegin[I + 1]; ++K) {
        uint64_t &Seed = Reach[SC.SccOf[Seeds[K]]];
        Pending += Seed == 0;
        Seed |= uint64_t(1) << B;
      }
    }
    uint64_t Pred = 0, Native = 0;
    for (uint32_t C = Start; Pending != 0;) {
      const uint64_t Mask = Reach[--C];
      if (!Mask)
        continue;
      Reach[C] = 0;
      --Pending;
      for (uint32_t E = SC.OutBegin[C]; E != SC.OutBegin[C + 1]; ++E) {
        uint64_t &Next = Reach[SC.OutIds[E]];
        Pending += Next == 0;
        Next |= Mask;
      }
      if (SC.Flags[C] & kPredicateBit)
        Pred |= Mask;
      if (SC.Flags[C] & kNativeBit)
        Native |= Mask;
      const uint64_t F = SC.Freq[C];
      for (uint64_t M = Mask; M; M &= M - 1) {
        uint64_t &S = Sum[__builtin_ctzll(M)];
        S = saturatingAdd(S, F);
      }
    }
    for (size_t B = 0; B != Count; ++B) {
      BenefitInfo &Info = Out[Order[First + B]];
      Info.Benefit = Sum[B];
      Info.ReachesPredicate |= (Pred >> B) & 1;
      Info.ReachesNative |= (Native >> B) & 1;
    }
  }
  return Out;
}

} // namespace

void CostModel::buildTable() const {
  const size_t NL = G.numLocs();
  Table &T = Tab;
  T.Locs.assign(NL, LocCostBenefit());

  // Distinct readers in first-seen order, and their HRABs in one sweep.
  std::vector<uint32_t> ReaderSlot(G.numNodes(), kNone);
  std::vector<NodeId> Readers;
  for (size_t I = 0; I != NL; ++I)
    for (NodeId R : G.readersAt(I))
      if (ReaderSlot[R] == kNone) {
        ReaderSlot[R] = uint32_t(Readers.size());
        Readers.push_back(R);
      }
  const std::vector<BenefitInfo> Benefit = batchedHrab(G, Readers);

  for (size_t I = 0; I != NL; ++I) {
    LocCostBenefit &CB = T.Locs[I];
    auto Writers = G.writersAt(I);
    if (!Writers.empty()) {
      uint64_t Sum = 0;
      for (NodeId W : Writers) {
        Sum = saturatingAdd(Sum, hrac(W));
        CB.Writes = saturatingAdd(CB.Writes, G.freq(W));
      }
      CB.NumWriters = Writers.size();
      CB.Rac = double(Sum) / double(CB.NumWriters);
    }
    auto LocReaders = G.readersAt(I);
    if (!LocReaders.empty()) {
      uint64_t Sum = 0;
      for (NodeId R : LocReaders) {
        const BenefitInfo &B = Benefit[ReaderSlot[R]];
        Sum = saturatingAdd(Sum, B.Benefit);
        CB.Reads = saturatingAdd(CB.Reads, G.freq(R));
        CB.ReachesPredicate |= B.ReachesPredicate;
        CB.ReachesNative |= B.ReachesNative;
      }
      CB.NumReaders = LocReaders.size();
      CB.Rab = double(Sum) / double(CB.NumReaders);
    }
  }

  // Tag ordinals over every location's tag and every observed field's
  // referenced tags; the location universe is (Tag, Slot)-sorted, so each
  // tag's observed fields are one ascending run of FieldLocs.
  std::vector<uint64_t> &Tags = T.Tags;
  Tags.clear();
  for (size_t I = 0; I != NL; ++I) {
    if (Tags.empty() || Tags.back() != G.loc(I).Tag)
      Tags.push_back(G.loc(I).Tag);
    if (T.Locs[I].NumWriters || T.Locs[I].NumReaders)
      for (uint64_t Child : G.refChildrenAt(I))
        Tags.push_back(Child);
  }
  std::sort(Tags.begin(), Tags.end());
  Tags.erase(std::unique(Tags.begin(), Tags.end()), Tags.end());

  T.FieldLocs.clear();
  T.ChildOrds.clear();
  T.ChildBegin.clear();
  T.FieldBegin.assign(Tags.size() + 1, 0);
  uint32_t Ord = 0;
  for (size_t I = 0; I != NL; ++I) {
    if (!T.Locs[I].NumWriters && !T.Locs[I].NumReaders)
      continue; // refchild-only location: not an observed field access.
    const uint64_t Tag = G.loc(I).Tag;
    while (Tags[Ord] != Tag)
      T.FieldBegin[++Ord] = uint32_t(T.FieldLocs.size());
    T.FieldLocs.push_back(uint32_t(I));
    T.ChildBegin.push_back(uint32_t(T.ChildOrds.size()));
    for (uint64_t Child : G.refChildrenAt(I))
      T.ChildOrds.push_back(tagOrdinal(Child));
  }
  while (Ord != Tags.size())
    T.FieldBegin[++Ord] = uint32_t(T.FieldLocs.size());
  T.ChildBegin.push_back(uint32_t(T.ChildOrds.size()));

  TreeMark.assign(Tags.size(), 0);
  TreeDepth.assign(Tags.size(), 0);
  TableBuilt = true;
}

uint32_t CostModel::tagOrdinal(uint64_t Tag) const {
  const std::vector<uint64_t> &Tags = Tab.Tags;
  auto It = std::lower_bound(Tags.begin(), Tags.end(), Tag);
  return It != Tags.end() && *It == Tag ? uint32_t(It - Tags.begin()) : kNone;
}

LocCostBenefit CostModel::locCostBenefit(const HeapLoc &L) const {
  uint32_t I = G.findLoc(L);
  return I == EytzingerIndex::npos ? LocCostBenefit() : table().Locs[I];
}

std::span<const uint32_t> CostModel::fieldLocs(uint64_t Tag) const {
  const Table &T = table();
  uint32_t Ord = tagOrdinal(Tag);
  if (Ord == kNone)
    return {};
  return {T.FieldLocs.data() + T.FieldBegin[Ord],
          T.FieldLocs.data() + T.FieldBegin[Ord + 1]};
}

ObjectCostBenefit CostModel::objectCostBenefit(uint64_t RootTag,
                                               unsigned Depth) const {
  ObjectCostBenefit Out;
  const Table &T = table();
  const uint32_t Root = tagOrdinal(RootTag);
  if (Root == kNone) {
    Out.TreeObjects = 1; // No fields and no references: a lone object.
    return Out;
  }
  // Definition 7: breadth-first reference tree of height Depth, cycles and
  // nodes deeper than Depth removed. Marks are epoch-stamped per tree.
  const uint32_t Epoch = ++TreeEpoch;
  std::vector<uint32_t> &Order = TreeOrder;
  Order.clear();
  Order.push_back(Root);
  TreeMark[Root] = Epoch;
  TreeDepth[Root] = 0;
  for (size_t Head = 0; Head != Order.size(); ++Head) {
    uint32_t Ord = Order[Head];
    unsigned D = TreeDepth[Ord];
    if (D >= Depth)
      continue;
    for (uint32_t K = T.FieldBegin[Ord]; K != T.FieldBegin[Ord + 1]; ++K) {
      for (uint32_t C = T.ChildBegin[K]; C != T.ChildBegin[K + 1]; ++C) {
        uint32_t Child = T.ChildOrds[C];
        if (TreeMark[Child] == Epoch)
          continue; // Cycle / diamond: keep the first (shallowest) depth.
        TreeMark[Child] = Epoch;
        TreeDepth[Child] = D + 1;
        Order.push_back(Child);
      }
    }
  }
  Out.TreeObjects = Order.size();

  // Fields of objects at depth < n count (scalar fields always, reference
  // fields when a pointed-to object is inside the tree). 1-RAC is thus the
  // object's own fields; each extra level adds one ring of the structure.
  for (uint32_t Ord : Order) {
    if (TreeDepth[Ord] >= Depth)
      continue;
    for (uint32_t K = T.FieldBegin[Ord]; K != T.FieldBegin[Ord + 1]; ++K) {
      // Reference fields count only when a pointed-to object is in the
      // tree as well (Definition 7); scalar fields always count.
      const uint32_t CBegin = T.ChildBegin[K], CEnd = T.ChildBegin[K + 1];
      if (CBegin != CEnd &&
          std::none_of(T.ChildOrds.begin() + CBegin,
                       T.ChildOrds.begin() + CEnd,
                       [&](uint32_t C) { return TreeMark[C] == Epoch; }))
        continue;
      const LocCostBenefit &CB = T.Locs[T.FieldLocs[K]];
      Out.NRac += CB.Rac;
      Out.NRab += CB.Rab;
      Out.ReachesPredicate |= CB.ReachesPredicate;
      Out.ReachesNative |= CB.ReachesNative;
      ++Out.FieldsCounted;
    }
  }
  return Out;
}
