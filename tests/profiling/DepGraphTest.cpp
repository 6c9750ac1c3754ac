//===- tests/profiling/DepGraphTest.cpp - Graph container + contexts -------===//

#include "profiling/Context.h"
#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace lud;

namespace {

TEST(DepGraphTest, GetOrCreateIsIdempotent) {
  DepGraph G;
  NodeId A = G.getOrCreate(7, 3);
  NodeId B = G.getOrCreate(7, 3);
  NodeId C = G.getOrCreate(7, 4);
  NodeId D = G.getOrCreate(8, 3);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
  EXPECT_NE(C, D);
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.lookup(7, 3), A);
  EXPECT_EQ(G.lookup(7, 99), kNoNode);
}

TEST(DepGraphTest, DomainSentinelsWork) {
  DepGraph G;
  NodeId P = G.getOrCreate(5, kNoDomain);
  EXPECT_EQ(G.lookup(5, kNoDomain), P);
  EXPECT_EQ(G.node(P).Domain, kNoDomain);
}

TEST(DepGraphTest, EdgesAreDeduplicated) {
  DepGraph G;
  NodeId A = G.getOrCreate(1, 0);
  NodeId B = G.getOrCreate(2, 0);
  G.addEdge(A, B);
  G.addEdge(A, B);
  G.addEdge(A, B);
  EXPECT_EQ(G.numEdges(), 1u);
  ASSERT_EQ(G.edges().size(), 1u);
  EXPECT_TRUE(G.hasEdge(A, B));
  {
    FrozenGraph F(G);
    ASSERT_EQ(F.outDegree(A), 1u);
    ASSERT_EQ(F.inDegree(B), 1u);
  }
  // Self-edges are dropped (loop-carried dependences collapse).
  G.addEdge(A, A);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_FALSE(G.hasEdge(A, A));
  // Reverse direction is a distinct edge.
  EXPECT_FALSE(G.hasEdge(B, A));
  G.addEdge(B, A);
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.hasEdge(B, A));
}

TEST(DepGraphTest, EdgeLogKeepsFirstInsertionOrder) {
  // Duplicates (memo hits and set hits) and self edges never reach the
  // log; every new edge is appended once, in insertion order.
  DepGraph G;
  for (InstrId I = 0; I != 4; ++I)
    G.getOrCreate(I, 0);
  G.addEdge(2, 1);
  G.addEdge(0, 3);
  G.addEdge(2, 1);
  G.addEdge(1, 1);
  G.addEdge(3, 0);
  G.addEdge(0, 3);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(0, 1);
  EXPECT_EQ(G.edges(),
            (std::vector<uint64_t>{(2ull << 32) | 1, (0ull << 32) | 3,
                                   (3ull << 32) | 0, (1ull << 32) | 2,
                                   (0ull << 32) | 1}));
  EXPECT_EQ(DepGraph::edgeSource(G.edges()[0]), 2u);
  EXPECT_EQ(DepGraph::edgeTarget(G.edges()[0]), 1u);
  EXPECT_FALSE(G.hasEdge(1, 1));
  EXPECT_FALSE(G.hasEdge(1, 3));
  EXPECT_FALSE(G.hasEdge(0, 9));

  std::vector<uint32_t> Offsets;
  std::vector<NodeId> Adj;
  G.edgeBuckets(/*BySource=*/true, Offsets, Adj);
  EXPECT_EQ(Offsets, (std::vector<uint32_t>{0, 2, 3, 4, 5}));
  EXPECT_EQ(Adj, (std::vector<NodeId>{3, 1, 2, 1, 0}));
  G.edgeBuckets(/*BySource=*/false, Offsets, Adj);
  EXPECT_EQ(Offsets, (std::vector<uint32_t>{0, 1, 3, 4, 5}));
  EXPECT_EQ(Adj, (std::vector<NodeId>{3, 2, 0, 1, 0}));
}

TEST(DepGraphTest, RefEdgesSeparateFromDataEdges) {
  DepGraph G;
  NodeId S = G.getOrCreate(1, 0);
  NodeId A = G.getOrCreate(2, 0);
  G.addRefEdge(S, A);
  G.addRefEdge(S, A);
  EXPECT_EQ(G.numRefEdges(), 1u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_TRUE(G.edges().empty());
  EXPECT_FALSE(G.hasEdge(S, A));
}

TEST(DepGraphTest, LocationMapsDeduplicate) {
  DepGraph G;
  NodeId W = G.getOrCreate(1, 0);
  HeapLoc L{42, 3};
  G.noteWriter(L, W);
  G.noteWriter(L, W);
  ASSERT_EQ(G.writers().count(L), 1u);
  EXPECT_EQ(G.writers().at(L).size(), 1u);
  G.noteRefChild(L, 99);
  G.noteRefChild(L, 99);
  EXPECT_EQ(G.refChildren().at(L).size(), 1u);
}

TEST(DepGraphTest, TagCodecRoundTrips) {
  DepGraph G;
  G.setContextSlots(16);
  for (AllocSiteId Site : {0u, 1u, 17u, 9999u}) {
    for (uint32_t Slot : {0u, 7u, 15u}) {
      uint64_t Tag = G.makeTag(Site, Slot);
      EXPECT_EQ(G.tagSite(Tag), Site);
      EXPECT_EQ(G.tagSlot(Tag), Slot);
      EXPECT_FALSE(DepGraph::isStaticTag(Tag));
    }
  }
  uint64_t S = DepGraph::makeStaticTag(5);
  EXPECT_TRUE(DepGraph::isStaticTag(S));
}

TEST(DepGraphTest, MemoryFootprintGrowsWithContent) {
  DepGraph G;
  size_t Empty = G.memoryFootprint().total();
  for (InstrId I = 0; I != 100; ++I)
    G.getOrCreate(I, 0);
  for (NodeId N = 1; N != 100; ++N)
    G.addEdge(N - 1, N);
  size_t Full = G.memoryFootprint().total();
  EXPECT_GT(Full, Empty);
  DepGraph::MemoryFootprint F = G.memoryFootprint();
  EXPECT_EQ(F.total(), F.NodeBytes + F.EdgeBytes + F.LocMapBytes);
  EXPECT_GT(F.NodeBytes, 0u);
  EXPECT_GT(F.EdgeBytes, 0u);
}

TEST(DepGraphTest, MemoryFootprintExcludesInternTables) {
  // memoryFootprint() is the retained graph; the interning tables are
  // internTableBytes()'s alone, so the two sum without double counting.
  DepGraph G;
  G.reserveForRun(4096);
  NodeId A = G.getOrCreate(1, 0);
  NodeId B = G.getOrCreate(2, 0);
  G.addEdge(A, B);
  G.addRefEdge(A, B);
  DepGraph::MemoryFootprint F = G.memoryFootprint();
  EXPECT_EQ(F.NodeBytes, 4096 * (sizeof(DepGraph::Node) + sizeof(uint64_t)));
  EXPECT_EQ(F.EdgeBytes,
            G.edges().capacity() * sizeof(uint64_t) +
                G.refEdges().capacity() * sizeof(std::pair<NodeId, NodeId>));
  EXPECT_EQ(F.LocMapBytes, 0u);
  // Interning a thousand allocation tags grows the tables only.
  size_t Tables = G.internTableBytes();
  for (uint64_t Tag = 0; Tag != 1000; ++Tag)
    G.noteAlloc(Tag, A);
  EXPECT_GT(G.internTableBytes(), Tables);
  EXPECT_EQ(G.memoryFootprint().total(), F.total());
  // The build record carries no adjacency.
  EXPECT_LE(sizeof(DepGraph::Node), 40u);
}

//===----------------------------------------------------------------------===
// DepGraph::hit: the shared node-resolution path and its per-instruction
// memo. Every case also runs with the memo off; ids and frequencies must
// not depend on it.
//===----------------------------------------------------------------------===

/// Node ids and frequencies in id order, for on/off comparisons.
std::vector<std::pair<uint64_t, uint64_t>> snapshot(const DepGraph &G) {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    Out.push_back({(uint64_t(G.node(N).Instr) << 32) | G.node(N).Domain,
                   G.freq(N)});
  return Out;
}

DepGraph memoGraph(bool Memo, uint32_t NumInstrs = 16) {
  DepGraph G;
  G.setHotPathMemo(Memo);
  G.sizeHitMemo(NumInstrs);
  return G;
}

TEST(DepGraphHitTest, MemoHitBumpsTheSameNode) {
  for (bool Memo : {true, false}) {
    DepGraph G = memoGraph(Memo);
    NodeId A = G.hit(3, 0);
    EXPECT_EQ(G.hit(3, 0), A);
    EXPECT_EQ(G.hit(3, 0), A);
    EXPECT_EQ(G.numNodes(), 1u);
    EXPECT_EQ(G.freq(A), 3u);
    EXPECT_EQ(G.lookup(3, 0), A);
  }
}

TEST(DepGraphHitTest, DomainChangeAtOneInstruction) {
  std::vector<std::pair<uint64_t, uint64_t>> Snap[2];
  for (bool Memo : {true, false}) {
    DepGraph G = memoGraph(Memo);
    NodeId A = G.hit(3, 0);
    NodeId B = G.hit(3, 1);
    EXPECT_NE(A, B);
    EXPECT_EQ(G.hit(3, 0), A); // Back to the first domain: memo missed.
    EXPECT_EQ(G.hit(3, 0), A);
    EXPECT_EQ(G.hit(3, 1), B);
    EXPECT_EQ(G.freq(A), 3u);
    EXPECT_EQ(G.freq(B), 2u);
    Snap[Memo] = snapshot(G);
  }
  EXPECT_EQ(Snap[0], Snap[1]);
}

TEST(DepGraphHitTest, ConsumerNodes) {
  for (bool Memo : {true, false}) {
    DepGraph G = memoGraph(Memo);
    NodeId P = G.hitConsumer(5, ConsumerKind::Predicate);
    EXPECT_EQ(G.hitConsumer(5, ConsumerKind::Predicate), P);
    NodeId N = G.hitConsumer(6, ConsumerKind::Native);
    EXPECT_NE(P, N);
    EXPECT_EQ(G.node(P).Domain, kNoDomain);
    EXPECT_EQ(G.node(P).Consumer, ConsumerKind::Predicate);
    EXPECT_EQ(G.node(N).Consumer, ConsumerKind::Native);
    EXPECT_EQ(G.freq(P), 2u);
    // kNoDomain is an ordinary memo key: a plain hit finds the same node.
    EXPECT_EQ(G.hit(5, kNoDomain), P);
    EXPECT_EQ(G.freq(P), 3u);
  }
}

TEST(DepGraphHitTest, InstructionsPastTheMemoStillResolve) {
  DepGraph G = memoGraph(true, /*NumInstrs=*/4);
  NodeId A = G.hit(100, 2);
  EXPECT_EQ(G.hit(100, 2), A);
  EXPECT_EQ(G.freq(A), 2u);
}

TEST(DepGraphHitTest, MemoStaysValidAfterMerge) {
  std::vector<std::pair<uint64_t, uint64_t>> Snap[2];
  for (bool Memo : {true, false}) {
    DepGraph G = memoGraph(Memo);
    NodeId A = G.hit(1, 0);
    NodeId B = G.hit(2, 7);
    G.addEdge(A, B);

    // A later shard that saw (2, 7) first and then new keys.
    DepGraph O = memoGraph(Memo);
    O.hit(2, 7);
    O.hit(4, 0);
    O.hit(1, 3);
    std::vector<NodeId> Remap = G.mergeFrom(O);
    EXPECT_EQ(Remap[0], B);

    // Existing ids are untouched, so the memoized entries still answer;
    // merged-in nodes resolve to their merged ids.
    EXPECT_EQ(G.hit(1, 0), A);
    EXPECT_EQ(G.hit(2, 7), B);
    EXPECT_EQ(G.hit(4, 0), Remap[1]);
    EXPECT_EQ(G.hit(1, 3), Remap[2]);
    EXPECT_EQ(G.freq(B), 3u);
    EXPECT_EQ(G.freq(Remap[1]), 2u);
    Snap[Memo] = snapshot(G);
  }
  EXPECT_EQ(Snap[0], Snap[1]);
}

TEST(DepGraphHitTest, MemoOffBypassesTheMemo) {
  DepGraph G;
  G.sizeHitMemo(64);
  EXPECT_EQ(G.hitMemoBytes(), 64u * 8u);
  G.setHotPathMemo(false);
  EXPECT_FALSE(G.hotPathMemo());
  EXPECT_EQ(G.hitMemoBytes(), 0u);
  G.sizeHitMemo(64); // No-op while the memo is off.
  EXPECT_EQ(G.hitMemoBytes(), 0u);

  // A pseudo-random event stream gives identical graphs either way.
  DepGraph On = memoGraph(true, 32), Off = memoGraph(false, 32);
  uint64_t X = 12345;
  NodeId PrevOn = kNoNode, PrevOff = kNoNode;
  for (int I = 0; I != 5000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    InstrId Instr = InstrId((X >> 33) % 40); // Some past the memo.
    uint32_t Dom = uint32_t((X >> 20) % 3);
    NodeId NOn = On.hit(Instr, Dom), NOff = Off.hit(Instr, Dom);
    ASSERT_EQ(NOn, NOff);
    if (PrevOn != kNoNode) {
      On.addEdge(PrevOn, NOn);
      Off.addEdge(PrevOff, NOff);
    }
    PrevOn = NOn;
    PrevOff = NOff;
  }
  EXPECT_EQ(snapshot(On), snapshot(Off));
  EXPECT_EQ(On.numEdges(), Off.numEdges());
  // Same log, so the same per-node out- and in-lists once sealed.
  EXPECT_EQ(On.edges(), Off.edges());
}

TEST(ContextEncoderTest, ChainsEncodeIncrementally) {
  ContextEncoder C(16);
  C.reset();
  EXPECT_EQ(C.current(), 0u);
  EXPECT_EQ(C.depth(), 1u);
  C.pushCall(/*ExtendsChain=*/true, /*ReceiverSite=*/4);
  // g = 3*0 + (4+1) = 5.
  EXPECT_EQ(C.current(), 5u);
  C.pushCall(true, 2);
  // g = 3*5 + 3 = 18.
  EXPECT_EQ(C.current(), 18u);
  EXPECT_EQ(C.slot(), 18u % 16);
  C.popCall();
  EXPECT_EQ(C.current(), 5u);
  C.popCall();
  EXPECT_EQ(C.current(), 0u);
}

TEST(ContextEncoderTest, StaticCallsKeepChain) {
  ContextEncoder C(8);
  C.reset();
  C.pushCall(true, 1);
  uint64_t G1 = C.current();
  C.pushCall(/*ExtendsChain=*/false, 7);
  EXPECT_EQ(C.current(), G1);
  C.popCall();
  EXPECT_EQ(C.current(), G1);
}

TEST(ContextEncoderTest, EncodingIsProbabilistic) {
  // The Bond-McKinley recurrence g = 3g + o is *probabilistically* unique:
  // dense small site ids do collide (3a + b = 3a' + b'), which is exactly
  // what the CR metric measures. Check that a healthy majority of two-deep
  // chains stay distinct, and that every chain value is deterministic.
  ContextEncoder C(1 << 16);
  C.reset();
  std::vector<uint64_t> Values;
  for (AllocSiteId A = 0; A != 8; ++A) {
    C.pushCall(true, A);
    for (AllocSiteId B = 0; B != 8; ++B) {
      C.pushCall(true, B);
      Values.push_back(C.current());
      C.popCall();
    }
    C.popCall();
  }
  std::vector<uint64_t> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Distinct =
      std::unique(Sorted.begin(), Sorted.end()) - Sorted.begin();
  // 3a + b over a,b in [0,8) yields 29 distinct values of 64 chains.
  EXPECT_GE(Distinct, 25u);
  // Determinism: re-encoding yields the same sequence.
  ContextEncoder C2(1 << 16);
  C2.reset();
  size_t Idx = 0;
  for (AllocSiteId A = 0; A != 8; ++A) {
    C2.pushCall(true, A);
    for (AllocSiteId B = 0; B != 8; ++B) {
      C2.pushCall(true, B);
      EXPECT_EQ(C2.current(), Values[Idx++]);
      C2.popCall();
    }
    C2.popCall();
  }
}

TEST(ContextEncoderTest, SiteZeroDistinctFromEmptyChain) {
  // The +1 offset keeps chain [site 0] distinguishable from the empty
  // chain.
  ContextEncoder C(8);
  C.reset();
  uint64_t Empty = C.current();
  C.pushCall(true, 0);
  EXPECT_NE(C.current(), Empty);
}

} // namespace
