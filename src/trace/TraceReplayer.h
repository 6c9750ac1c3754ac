//===- trace/TraceReplayer.h - Re-drive profilers from a trace -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// replayTrace: feeds a recorded `lud.trace.v1` stream back through any
/// profiler composition — the same hook calls, in the same order, with the
/// same arguments as the live run, but with no interpreter in sight. The
/// profilers cannot tell the difference: every input they consume (hook
/// arguments, the Module's static tables, and the heap's structural state —
/// tags, classes, slot counts) is reproduced, because the replayer rebuilds
/// a heap by re-allocating in event order, which on a dense-id heap yields
/// the exact object ids of the live run. Hence a replayed substrate builds a
/// byte-identical canonical Gcost (docs/TRACING.md).
///
/// Like the trace reader it drives, the replayer diagnoses instead of
/// asserting: id bounds, event-vs-instruction kind agreement, and the
/// alloc-id cross-check all fail with an error message on corrupt input.
/// A failed replay leaves the profiler partially updated — discard it.
///
/// The loop is fused: for the common event kinds one switch on the kind
/// byte decodes the payload with inline varints, runs every check the
/// reader and the replayer would run, and calls the hook. Any event it does
/// not take — a rare kind, a failed check, or fewer than kMaxEventBytes
/// bytes left — goes through TraceReader::next and the checked dispatch
/// below, starting at that event's first byte, so every diagnostic and its
/// offset come from the checked path (docs/TRACING.md, "Replay fast path").
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_TRACEREPLAYER_H
#define LUD_TRACE_TRACEREPLAYER_H

#include "ir/Module.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

namespace lud {
namespace trace {

struct ReplayOptions {
  /// Upper bound on a replayed allocation's slot count. Object allocations
  /// are validated against the class layout instead; this guards array
  /// lengths, which only the trace knows — a corrupt varint must not turn
  /// into a multi-gigabyte allocation.
  uint64_t MaxArraySlots = uint64_t(1) << 28;
};

struct ReplayStats {
  uint64_t Events = 0;
  uint64_t Segments = 0;
};

namespace detail {

/// Decodes a varint at \p P, which has at least 10 readable bytes. False on
/// what TraceReader::varint rejects: an 11th byte, or payload bits past
/// bit 63 in the 10th.
inline bool fastVarint(const uint8_t *&P, uint64_t &V) {
  uint64_t B = *P++;
  if (B < 0x80) {
    V = B;
    return true;
  }
  V = B & 0x7F;
  for (unsigned Shift = 7; Shift != 63; Shift += 7) {
    B = *P++;
    V |= (B & 0x7F) << Shift;
    if (B < 0x80)
      return true;
  }
  B = *P++;
  if (B > 1)
    return false;
  V |= B << 63;
  return true;
}

/// Decodes a tagged value whose reference, if any, is null or below
/// \p IdBound (which is at most 2^32, so the 32-bit id check is implied).
inline bool fastValue(const uint8_t *&P, uint64_t IdBound, Value &V) {
  uint64_t U;
  switch (*P++) {
  case uint8_t(ValueKind::Int):
    if (!fastVarint(P, U))
      return false;
    V = Value::makeInt(int64_t((U >> 1) ^ (~(U & 1) + 1)));
    return true;
  case uint8_t(ValueKind::Float): {
    uint64_t Bits = 0;
    for (int I = 0; I != 8; ++I)
      Bits |= uint64_t(P[I]) << (8 * I);
    P += 8;
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    V = Value::makeFloat(D);
    return true;
  }
  case uint8_t(ValueKind::Ref):
    if (!fastVarint(P, U) || (U != kNullObj && U >= IdBound))
      return false;
    V = Value::makeRef(ObjId(U));
    return true;
  }
  return false;
}

/// The fused decode-and-dispatch loop. Replays events from offset \p Pos of
/// \p Bytes into \p P while a whole kMaxEventBytes event fits, and returns
/// the offset of the first event it leaves to the checked path. No hook
/// runs for that event and nothing about it is counted. \p Events grows by
/// the events replayed. The heap only grows at allocations, which the
/// checked path replays, so its id bound is fixed for one call.
template <typename ProfilerT>
size_t replayFast(const Module &M, std::string_view Bytes, size_t Pos,
                  const Heap &H, ProfilerT &P, uint64_t &Events) {
  if (Bytes.size() - Pos < kMaxEventBytes)
    return Pos;
  const uint8_t *Base = reinterpret_cast<const uint8_t *>(Bytes.data());
  const uint8_t *Last = Base + Bytes.size() - kMaxEventBytes;
  const uint64_t NumInstrs = M.getNumInstrs();
  const uint64_t NumFuncs = M.functions().size();
  const uint64_t IdBound = std::min<uint64_t>(H.idBound(), uint64_t(1) << 32);
  const uint8_t *Cur = Base + Pos;
  const uint8_t *Start;
  uint64_t N = 0;

  // The reader's id bound and the replayer's instruction-kind check in one.
  auto InstrAs = [&](auto *&Out) {
    using InstT = std::remove_const_t<std::remove_reference_t<decltype(*Out)>>;
    uint64_t Id;
    if (!fastVarint(Cur, Id) || Id >= NumInstrs)
      return false;
    Out = dyn_cast<InstT>(M.getInstr(InstrId(Id)));
    return Out != nullptr;
  };
  // A heap base: allocated, so neither null nor past the heap.
  auto HeapBase = [&](ObjId &O) {
    uint64_t U;
    if (!fastVarint(Cur, U) || U == kNullObj || U >= IdBound)
      return false;
    O = ObjId(U);
    return true;
  };
  auto Val = [&](Value &V) { return fastValue(Cur, IdBound, V); };

  while ((Start = Cur) <= Last) {
    switch (EventKind(*Cur++)) {
    case EventKind::Const: {
      const ConstInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onConst(*I);
      break;
    }
    case EventKind::Assign: {
      const AssignInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onAssign(*I);
      break;
    }
    case EventKind::Bin: {
      const BinInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onBin(*I);
      break;
    }
    case EventKind::Un: {
      const UnInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onUn(*I);
      break;
    }
    case EventKind::LoadField: {
      const LoadFieldInst *I;
      ObjId O;
      Value V;
      if (!InstrAs(I) || !HeapBase(O) || !Val(V))
        goto Stop;
      P.onLoadField(*I, O, V);
      break;
    }
    case EventKind::StoreField: {
      const StoreFieldInst *I;
      ObjId O;
      Value V;
      if (!InstrAs(I) || !HeapBase(O) || !Val(V))
        goto Stop;
      P.onStoreField(*I, O, V);
      break;
    }
    case EventKind::LoadStatic: {
      const LoadStaticInst *I;
      Value V;
      if (!InstrAs(I) || !Val(V))
        goto Stop;
      P.onLoadStatic(*I, V);
      break;
    }
    case EventKind::StoreStatic: {
      const StoreStaticInst *I;
      Value V;
      if (!InstrAs(I) || !Val(V))
        goto Stop;
      P.onStoreStatic(*I, V);
      break;
    }
    case EventKind::LoadElem: {
      const LoadElemInst *I;
      ObjId O;
      uint64_t Index;
      Value V;
      if (!InstrAs(I) || !HeapBase(O) || !fastVarint(Cur, Index) ||
          Index > 0xFFFFFFFFull || !Val(V))
        goto Stop;
      P.onLoadElem(*I, O, uint32_t(Index), V);
      break;
    }
    case EventKind::StoreElem: {
      const StoreElemInst *I;
      ObjId O;
      uint64_t Index;
      Value V;
      if (!InstrAs(I) || !HeapBase(O) || !fastVarint(Cur, Index) ||
          Index > 0xFFFFFFFFull || !Val(V))
        goto Stop;
      P.onStoreElem(*I, O, uint32_t(Index), V);
      break;
    }
    case EventKind::ArrayLen: {
      const ArrayLenInst *I;
      ObjId O;
      if (!InstrAs(I) || !HeapBase(O))
        goto Stop;
      P.onArrayLen(*I, O);
      break;
    }
    case EventKind::PredicateTaken:
    case EventKind::PredicateNotTaken: {
      const CondBrInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onPredicate(*I, EventKind(*Start) == EventKind::PredicateTaken);
      break;
    }
    case EventKind::NativeCall: {
      const NativeCallInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onNativeCall(*I);
      break;
    }
    case EventKind::CallEnter: {
      const CallInst *I;
      uint64_t F, Recv;
      if (!InstrAs(I) || !fastVarint(Cur, F) || F >= NumFuncs ||
          !fastVarint(Cur, Recv) || (Recv != kNullObj && Recv >= IdBound))
        goto Stop;
      P.onCallEnter(*I, *M.getFunction(FuncId(F)), ObjId(Recv));
      break;
    }
    case EventKind::Return: {
      const ReturnInst *I;
      if (!InstrAs(I))
        goto Stop;
      P.onReturn(*I);
      break;
    }
    case EventKind::ReturnBound: {
      uint64_t R;
      if (!fastVarint(Cur, R) || R > kNoReg)
        goto Stop;
      P.onReturnBound(Reg(R));
      break;
    }
    default: // Entry, phase, allocations, traps, 'end' and bad kind bytes.
      goto Stop;
    }
    ++N;
  }
Stop:
  Events += N;
  return size_t(Start - Base);
}

} // namespace detail

/// Replays every segment of \p Bytes through \p P. Returns false with
/// \p Error set on malformed or mismatched input. On success the profiler
/// saw exactly the live run's hook sequence (onRunStart/onRunEnd per
/// segment included).
template <typename ProfilerT>
bool replayTrace(const Module &M, std::string_view Bytes, ProfilerT &P,
                 std::string &Error, ReplayStats *Stats = nullptr,
                 ReplayOptions Opts = {}) {
  ReplayStats Local;
  ReplayStats &S = Stats ? *Stats : Local;
  TraceReader R(Bytes);
  auto Fail = [&](const std::string &Msg) {
    Error = R.hasError() ? R.error()
                         : "trace offset " + std::to_string(R.offset()) +
                               ": " + Msg;
    return false;
  };
  if (R.atEnd())
    return Fail("empty trace");

  // One instruction-kind-checked cast per event: the reader bounded the id,
  // this binds it to the class the hook signature needs.
  auto InstrAs = [&](InstrId Id, auto *&Out) {
    Out = dyn_cast<std::remove_reference_t<decltype(*Out)>>(M.getInstr(Id));
    return Out != nullptr;
  };

  while (!R.atEnd()) {
    if (!R.readHeader(M))
      return Fail("bad header");
    Heap H;
    P.onRunStart(M, H);
    ++S.Segments;
    bool SawEnd = false;
    TraceEvent E;
    while (!SawEnd) {
      // The fast path takes every event it can; the one it stops at is
      // decoded and dispatched by the checked path from its first byte.
      R.seek(detail::replayFast(M, Bytes, R.offset(), H, P, S.Events));
      if (!R.next(E))
        return Fail("truncated segment (no 'end' event)");
      // Count what the recorder counted: hook events, not the segment's
      // 'end' terminator (the recorder emits it from onRunEnd without
      // ticking its event counter).
      if (E.Kind != EventKind::End)
        ++S.Events;
      auto CheckBase = [&] {
        if (E.Obj == kNullObj || E.Obj >= H.idBound())
          return Fail("object id " + std::to_string(E.Obj) +
                      " not allocated at this point");
        return true;
      };
      auto CheckVal = [&] {
        if (E.Val.isRef() && E.Val.R != kNullObj && E.Val.R >= H.idBound())
          return Fail("value references unallocated object " +
                      std::to_string(E.Val.R));
        return true;
      };
      switch (E.Kind) {
      case EventKind::Invalid:
        return Fail("invalid event");
      case EventKind::EntryFrame:
        P.onEntryFrame(*M.getFunction(E.Func));
        break;
      case EventKind::Phase:
        P.onPhase(E.Phase);
        break;
      case EventKind::Const: {
        const ConstInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("const event on a non-const instruction");
        P.onConst(*I);
        break;
      }
      case EventKind::Assign: {
        const AssignInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("assign event on a non-assign instruction");
        P.onAssign(*I);
        break;
      }
      case EventKind::Bin: {
        const BinInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("bin event on a non-bin instruction");
        P.onBin(*I);
        break;
      }
      case EventKind::Un: {
        const UnInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("un event on a non-un instruction");
        P.onUn(*I);
        break;
      }
      case EventKind::Alloc: {
        const AllocInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("alloc event on a non-alloc instruction");
        if (E.Index != M.getClass(I->Class)->NumSlots)
          return Fail("alloc slot count disagrees with the class layout");
        ObjId O = H.allocObject(I->Class, E.Index);
        if (O != E.Obj)
          return Fail("allocation order diverged (expected object " +
                      std::to_string(E.Obj) + ", heap produced " +
                      std::to_string(O) + ")");
        P.onAlloc(*I, O);
        break;
      }
      case EventKind::AllocArray: {
        const AllocArrayInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("alloc_array event on a non-alloc-array instruction");
        if (E.Index > Opts.MaxArraySlots)
          return Fail("array length " + std::to_string(E.Index) +
                      " exceeds the replay limit");
        ObjId O = H.allocArray(I->Elem, E.Index);
        if (O != E.Obj)
          return Fail("allocation order diverged (expected object " +
                      std::to_string(E.Obj) + ", heap produced " +
                      std::to_string(O) + ")");
        P.onAllocArray(*I, O);
        break;
      }
      case EventKind::LoadField: {
        const LoadFieldInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("load_field event on a non-load-field instruction");
        if (!CheckBase() || !CheckVal())
          return false;
        P.onLoadField(*I, E.Obj, E.Val);
        break;
      }
      case EventKind::StoreField: {
        const StoreFieldInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("store_field event on a non-store-field instruction");
        if (!CheckBase() || !CheckVal())
          return false;
        P.onStoreField(*I, E.Obj, E.Val);
        break;
      }
      case EventKind::LoadStatic: {
        const LoadStaticInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("load_static event on a non-load-static instruction");
        if (!CheckVal())
          return false;
        P.onLoadStatic(*I, E.Val);
        break;
      }
      case EventKind::StoreStatic: {
        const StoreStaticInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("store_static event on a non-store-static "
                      "instruction");
        if (!CheckVal())
          return false;
        P.onStoreStatic(*I, E.Val);
        break;
      }
      case EventKind::LoadElem: {
        const LoadElemInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("load_elem event on a non-load-elem instruction");
        if (!CheckBase() || !CheckVal())
          return false;
        P.onLoadElem(*I, E.Obj, E.Index, E.Val);
        break;
      }
      case EventKind::StoreElem: {
        const StoreElemInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("store_elem event on a non-store-elem instruction");
        if (!CheckBase() || !CheckVal())
          return false;
        P.onStoreElem(*I, E.Obj, E.Index, E.Val);
        break;
      }
      case EventKind::ArrayLen: {
        const ArrayLenInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("array_len event on a non-array-len instruction");
        if (!CheckBase())
          return false;
        P.onArrayLen(*I, E.Obj);
        break;
      }
      case EventKind::PredicateTaken:
      case EventKind::PredicateNotTaken: {
        const CondBrInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("predicate event on a non-condbr instruction");
        P.onPredicate(*I, E.Kind == EventKind::PredicateTaken);
        break;
      }
      case EventKind::NativeCall: {
        const NativeCallInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("native_call event on a non-native-call instruction");
        P.onNativeCall(*I);
        break;
      }
      case EventKind::CallEnter: {
        const CallInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("call_enter event on a non-call instruction");
        if (E.Obj != kNullObj && E.Obj >= H.idBound())
          return Fail("call receiver " + std::to_string(E.Obj) +
                      " not allocated at this point");
        P.onCallEnter(*I, *M.getFunction(E.Func), E.Obj);
        break;
      }
      case EventKind::Return: {
        const ReturnInst *I;
        if (!InstrAs(E.Instr, I))
          return Fail("return event on a non-return instruction");
        P.onReturn(*I);
        break;
      }
      case EventKind::ReturnBound:
        P.onReturnBound(E.R);
        break;
      case EventKind::Trap:
        if (E.Byte > uint8_t(TrapKind::UnknownNative))
          return Fail("bad trap kind byte");
        P.onTrap(*M.getInstr(E.Instr), TrapKind(E.Byte), E.R);
        break;
      case EventKind::End:
        SawEnd = true;
        break;
      }
    }
    P.onRunEnd();
  }
  return true;
}

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_TRACEREPLAYER_H
