//===- analysis/CostModel.h - Relative abstract costs/benefits -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost side of the paper (Section 2.2 and 3.1):
///   - abstract cost (Definition 4): total frequency of the backward slice;
///   - HRAC (Definition 5): single-hop heap-relative abstract cost — the
///     stack work since the last heap reads;
///   - HRAB (Definition 6): the forward dual — the stack work done with the
///     value before it is written back into the heap;
///   - RAC/RAB per abstract heap location (mean over its writers/readers);
///   - n-RAC / n-RAB (Definition 7): aggregation over an object reference
///     tree of bounded height (default n = 4, the HashSet chain length).
///
/// The model reads the sealed graph representation (profiling/FrozenGraph.h):
/// closures stream CSR adjacency and SoA attribute columns, and the
/// per-node memo/visited state is dense arrays indexed by NodeId, so the
/// traversals stay cache-resident at the paper's 139K-860K node scale.
///
/// Every location-level query reads one per-location table, filled on
/// first use and indexed like FrozenGraph's location universe. Its RAB
/// column comes from one batched sweep rather than a BFS per reader: the
/// subgraph of non-heap-writing nodes is condensed into SCCs (Tarjan), and
/// 64 readers at a time ride one bitmask each along the condensation in
/// topological order. A reader's HRAB is a saturating frequency sum over
/// the set of nodes it reaches, so summing per SCC instead of per node
/// gives the same value. hrac/hrab/abstractCost stay per-node BFS queries:
/// they are the definitions the table is tested against.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_COSTMODEL_H
#define LUD_ANALYSIS_COSTMODEL_H

#include "profiling/FrozenGraph.h"

#include <span>
#include <vector>

namespace lud {

/// Frequency sums saturate instead of wrapping: a fuzzed program can pile
/// enough executions onto one closure that the uint64 accumulator
/// overflows, and a wrapped cost would rank a hot structure as nearly
/// free. Saturation keeps the ordering sane ("at least this expensive")
/// and makes a sum independent of the order of its terms.
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t S = A + B;
  return S < A ? ~uint64_t(0) : S;
}

/// HRAB plus consumption flags (Section 3.1's "special treatment" inputs).
struct BenefitInfo {
  uint64_t Benefit = 0;
  /// The value can flow into a branch condition.
  bool ReachesPredicate = false;
  /// The value can flow into a native call (program output).
  bool ReachesNative = false;
};

/// Per-abstract-location relative cost/benefit (Definitions 5/6 averaged
/// over the location's writer/reader nodes).
struct LocCostBenefit {
  double Rac = 0;
  double Rab = 0;
  uint64_t NumWriters = 0;
  uint64_t NumReaders = 0;
  /// Executions of the writer / reader nodes (saturating): the raw
  /// activity columns of the report and the cache analysis.
  uint64_t Writes = 0;
  uint64_t Reads = 0;
  bool ReachesPredicate = false;
  bool ReachesNative = false;
};

/// Definition 7 aggregates over the reference tree.
struct ObjectCostBenefit {
  double NRac = 0;
  double NRab = 0;
  uint64_t FieldsCounted = 0;
  uint64_t TreeObjects = 0;
  bool ReachesPredicate = false;
  bool ReachesNative = false;
};

/// Query object over a sealed Gcost. All traversal results are memoized;
/// the graph must outlive the model.
class CostModel {
public:
  /// Reads \p G directly; a build-phase DepGraph is sealed once by the
  /// caller (FrozenGraph FG(DG)) and shared by every consumer.
  explicit CostModel(const FrozenGraph &G);

  const FrozenGraph &graph() const { return G; }

  /// Definition 4: sum of frequencies of all nodes that reach \p N
  /// (including N itself).
  uint64_t abstractCost(NodeId N) const;

  /// Definition 5: like abstractCost but traversal refuses to enter
  /// heap-reading nodes — one heap-to-heap hop of stack work.
  uint64_t hrac(NodeId N) const;

  /// Definition 6: forward dual of hrac; traversal refuses to enter
  /// heap-writing nodes. Also reports consumer reachability.
  const BenefitInfo &hrab(NodeId N) const;

  /// RAC/RAB for one abstract heap location (all zero when the graph
  /// never mentions \p L).
  LocCostBenefit locCostBenefit(const HeapLoc &L) const;

  /// The table entry of location universe index \p I (graph().loc(I)).
  const LocCostBenefit &locAt(size_t I) const { return table().Locs[I]; }

  /// n-RAC and n-RAB for the object(s) tagged \p RootTag, aggregating field
  /// RAC/RABs over the reference tree of height \p Depth (cycles cut).
  ObjectCostBenefit objectCostBenefit(uint64_t RootTag, unsigned Depth) const;

  /// Universe indices of the field locations observed (written or read) on
  /// objects tagged \p Tag, in ascending slot order.
  std::span<const uint32_t> fieldLocs(uint64_t Tag) const;

private:
  /// Per-location costs plus the tag index the reference-tree walk needs.
  /// Tags are numbered by ordinal: the sorted union of every location's
  /// tag and every observed field's referenced tags.
  struct Table {
    /// Indexed like the graph's location universe.
    std::vector<LocCostBenefit> Locs;
    /// Sorted tags; a tag's ordinal is its position.
    std::vector<uint64_t> Tags;
    /// Observed field locations (universe indices), grouped by tag
    /// ordinal: ordinal T owns [FieldBegin[T], FieldBegin[T + 1]).
    std::vector<uint32_t> FieldLocs;
    std::vector<uint32_t> FieldBegin;
    /// Referenced tags' ordinals, per FieldLocs entry K:
    /// [ChildBegin[K], ChildBegin[K + 1]) in refChildrenAt order.
    std::vector<uint32_t> ChildOrds;
    std::vector<uint32_t> ChildBegin;
  };
  const Table &table() const {
    if (!TableBuilt)
      buildTable();
    return Tab;
  }
  void buildTable() const;
  /// Ordinal of \p Tag in Table::Tags, or ~0u.
  uint32_t tagOrdinal(uint64_t Tag) const;

  const FrozenGraph &G;
  mutable Table Tab;
  mutable bool TableBuilt = false;
  /// Dense per-node memo columns; Valid bitmaps gate them (a saturated
  /// cost is a legal value, so no sentinel encoding).
  mutable std::vector<uint64_t> HracCache;
  mutable std::vector<uint8_t> HracValid;
  mutable std::vector<BenefitInfo> HrabCache;
  mutable std::vector<uint8_t> HrabValid;
  /// Epoch-stamped visited marks: a closure bumps the epoch instead of
  /// clearing N bytes per query.
  mutable std::vector<uint32_t> VisitMark;
  mutable uint32_t VisitEpoch = 0;
  mutable std::vector<NodeId> WorkScratch;
  /// Reference-tree walk state over tag ordinals, epoch-stamped the same
  /// way.
  mutable std::vector<uint32_t> TreeMark;
  mutable std::vector<unsigned> TreeDepth;
  mutable uint32_t TreeEpoch = 0;
  mutable std::vector<uint32_t> TreeOrder;
};

} // namespace lud

#endif // LUD_ANALYSIS_COSTMODEL_H
