//===- trace/TraceRecorder.h - Recording profiler stage --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A profiler stage that serializes the hook stream as a `lud.trace.v1`
/// segment. It composes through ComposedProfiler like any client — beside
/// live analyses or alone on an otherwise uninstrumented run — and because
/// hooks receive the same arguments at every pipeline position, the recorded
/// bytes are identical wherever the recorder sits and whatever else runs
/// (tests/trace/RecordReplayTest.cpp pins this).
///
/// The recorder is phase-agnostic: it records every event, including the
/// phase markers themselves, and leaves selective-tracking decisions to the
/// substrate that replays the trace. It reads the heap only to capture each
/// allocation's slot count (hooks fire after the operation, so the object
/// exists), which is what lets the replayer rebuild an equivalent heap.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_TRACERECORDER_H
#define LUD_TRACE_TRACERECORDER_H

#include "ir/Function.h"
#include "obs/Metrics.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"
#include "trace/TraceIO.h"

namespace lud {
namespace trace {

class TraceRecorder {
public:
  /// \p Sink receives the encoded segments; it must outlive the recorder.
  explicit TraceRecorder(OutStream &Sink) : W(Sink) {}

  uint64_t events() const {
    uint64_t N = 0;
    for (uint64_t C : KindCount)
      N += C;
    return N;
  }
  uint64_t bytes() const { return W.bytes(); }

  /// Writes the recorder's telemetry (`trace.*`) into \p R: total events
  /// and bytes, per-kind event counts, per-phase event/byte attribution,
  /// and the encoded-vs-nominal compression ratio. Idempotent set()s, like
  /// the client profilers' accountStats.
  void accountStats(obs::MetricsRegistry &R) const {
    R.set(R.gauge("trace.events", obs::Unit::Count, obs::Merge::Sum),
          events());
    R.set(R.gauge("trace.bytes", obs::Unit::Bytes, obs::Merge::Sum),
          W.bytes());
    R.set(R.gauge("trace.segments", obs::Unit::Count, obs::Merge::Sum),
          Segments);
    uint64_t Nominal = 0;
    for (unsigned K = 1; K != kNumEventKinds; ++K) {
      if (!KindCount[K])
        continue;
      Nominal += KindCount[K] * nominalEventBytes(EventKind(K));
      R.set(R.gauge(std::string("trace.events.") +
                        eventKindName(EventKind(K)),
                    obs::Unit::Count, obs::Merge::Sum),
            KindCount[K]);
    }
    for (unsigned P = 0; P != kPhaseBuckets; ++P) {
      if (!PhaseEvents[P])
        continue;
      std::string Name = P + 1 == kPhaseBuckets
                             ? std::string("other")
                             : std::to_string(P);
      R.set(R.gauge("trace.phase." + Name + ".events", obs::Unit::Count,
                    obs::Merge::Sum),
            PhaseEvents[P]);
      R.set(R.gauge("trace.phase." + Name + ".bytes", obs::Unit::Bytes,
                    obs::Merge::Sum),
            PhaseBytes[P]);
    }
    // Encoded bytes per million nominal bytes: < 1e6 means the varint
    // encoding beats the fixed-width reference record.
    if (Nominal)
      R.set(R.gauge("trace.compression_ppm", obs::Unit::Count,
                    obs::Merge::Last),
            W.bytes() * 1000000 / Nominal);
  }

  // Profiler hooks. Each encodes its event straight into the writer's
  // buffer: begin() reserves room for a whole event, finish() commits it.
  void onRunStart(const Module &Mod, Heap &H) {
    this->H = &H;
    ++Segments;
    W.beginTrace(Mod);
  }
  void onRunEnd() { W.endTrace(); }
  void onEntryFrame(const Function &F) {
    uint8_t *P = begin(EventKind::EntryFrame);
    finish(EventKind::EntryFrame, TraceWriter::putVarint(P, F.getId()));
  }
  void onPhase(int64_t Ph) {
    uint8_t *P = begin(EventKind::Phase);
    finish(EventKind::Phase, TraceWriter::putSvarint(P, Ph));
    Bucket = Ph >= 0 && Ph < int64_t(kPhaseBuckets) - 1 ? unsigned(Ph)
                                                        : kPhaseBuckets - 1;
  }

  void onConst(const ConstInst &I) { instrOnly(EventKind::Const, I); }
  void onAssign(const AssignInst &I) { instrOnly(EventKind::Assign, I); }
  void onBin(const BinInst &I) { instrOnly(EventKind::Bin, I); }
  void onUn(const UnInst &I) { instrOnly(EventKind::Un, I); }

  void onAlloc(const AllocInst &I, ObjId O) {
    alloc(EventKind::Alloc, I.getId(), O);
  }
  void onAllocArray(const AllocArrayInst &I, ObjId O) {
    alloc(EventKind::AllocArray, I.getId(), O);
  }

  void onLoadField(const LoadFieldInst &I, ObjId Base, const Value &Loaded) {
    heapAccess(EventKind::LoadField, I.getId(), Base, Loaded);
  }
  void onStoreField(const StoreFieldInst &I, ObjId Base,
                    const Value &Stored) {
    heapAccess(EventKind::StoreField, I.getId(), Base, Stored);
  }
  void onLoadStatic(const LoadStaticInst &I, const Value &Loaded) {
    staticAccess(EventKind::LoadStatic, I.getId(), Loaded);
  }
  void onStoreStatic(const StoreStaticInst &I, const Value &Stored) {
    staticAccess(EventKind::StoreStatic, I.getId(), Stored);
  }
  void onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                  const Value &Loaded) {
    elemAccess(EventKind::LoadElem, I.getId(), Base, Index, Loaded);
  }
  void onStoreElem(const StoreElemInst &I, ObjId Base, uint32_t Index,
                   const Value &Stored) {
    elemAccess(EventKind::StoreElem, I.getId(), Base, Index, Stored);
  }
  void onArrayLen(const ArrayLenInst &I, ObjId Base) {
    uint8_t *P = begin(EventKind::ArrayLen);
    P = TraceWriter::putVarint(P, I.getId());
    finish(EventKind::ArrayLen, TraceWriter::putVarint(P, Base));
  }

  void onPredicate(const CondBrInst &I, bool Taken) {
    EventKind K =
        Taken ? EventKind::PredicateTaken : EventKind::PredicateNotTaken;
    instrOnly(K, I);
  }
  void onNativeCall(const NativeCallInst &I) {
    instrOnly(EventKind::NativeCall, I);
  }
  void onCallEnter(const CallInst &I, const Function &Callee,
                   ObjId Receiver) {
    uint8_t *P = begin(EventKind::CallEnter);
    P = TraceWriter::putVarint(P, I.getId());
    P = TraceWriter::putVarint(P, Callee.getId());
    finish(EventKind::CallEnter, TraceWriter::putVarint(P, Receiver));
  }
  void onReturn(const ReturnInst &I) { instrOnly(EventKind::Return, I); }
  void onReturnBound(Reg Dst) {
    uint8_t *P = begin(EventKind::ReturnBound);
    finish(EventKind::ReturnBound, TraceWriter::putVarint(P, Dst));
  }
  void onTrap(const Instruction &I, TrapKind K, Reg FaultReg) {
    uint8_t *P = begin(EventKind::Trap);
    P = TraceWriter::putVarint(P, I.getId());
    *P++ = uint8_t(K);
    finish(EventKind::Trap, TraceWriter::putVarint(P, FaultReg));
  }

private:
  /// Phase-attribution buckets: phase ids 0..6 get their own bucket,
  /// everything else lands in "other".
  static constexpr unsigned kPhaseBuckets = 8;

  /// Reserves room for one event, writes its kind byte and returns the
  /// payload cursor.
  uint8_t *begin(EventKind K) {
    uint8_t *P = W.reserve();
    *P = uint8_t(K);
    return P + 1;
  }
  /// Commits the event ending at \p End and counts it.
  void finish(EventKind K, uint8_t *End) {
    ++KindCount[unsigned(K)];
    ++PhaseEvents[Bucket];
    PhaseBytes[Bucket] += W.commit(End);
  }
  void instrOnly(EventKind K, const Instruction &I) {
    finish(K, TraceWriter::putVarint(begin(K), I.getId()));
  }
  void alloc(EventKind K, InstrId I, ObjId O) {
    uint8_t *P = begin(K);
    P = TraceWriter::putVarint(P, I);
    P = TraceWriter::putVarint(P, O);
    finish(K, TraceWriter::putVarint(P, uint32_t(H->obj(O).Slots.size())));
  }
  void heapAccess(EventKind K, InstrId I, ObjId Base, const Value &V) {
    uint8_t *P = begin(K);
    P = TraceWriter::putVarint(P, I);
    P = TraceWriter::putVarint(P, Base);
    finish(K, TraceWriter::putValue(P, V));
  }
  void staticAccess(EventKind K, InstrId I, const Value &V) {
    uint8_t *P = begin(K);
    P = TraceWriter::putVarint(P, I);
    finish(K, TraceWriter::putValue(P, V));
  }
  void elemAccess(EventKind K, InstrId I, ObjId Base, uint32_t Index,
                  const Value &V) {
    uint8_t *P = begin(K);
    P = TraceWriter::putVarint(P, I);
    P = TraceWriter::putVarint(P, Base);
    P = TraceWriter::putVarint(P, Index);
    finish(K, TraceWriter::putValue(P, V));
  }

  TraceWriter W;
  Heap *H = nullptr;
  uint64_t Segments = 0;
  unsigned Bucket = 0;
  uint64_t KindCount[kNumEventKinds] = {};
  uint64_t PhaseEvents[kPhaseBuckets] = {};
  uint64_t PhaseBytes[kPhaseBuckets] = {};
};

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_TRACERECORDER_H
