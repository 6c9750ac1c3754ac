//===- trace/Event.h - The profiler event vocabulary, as data --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary event vocabulary of the `lud.trace.v1` format: one event kind
/// per profiler hook (runtime/ProfilerConcept.h), so a recorded trace is the
/// hook stream reified as data. Replaying a trace re-fires the same hooks in
/// the same order with the same arguments, which is why any profiler
/// composition driven from a trace reproduces its live-run state exactly
/// (docs/TRACING.md spells out the determinism argument).
///
/// Events that need no payload beyond the instruction id (Const, Assign, ...)
/// carry just that; heap events add the base object and the transferred
/// Value; allocations add the object id and its slot count so the replayer
/// can rebuild a structurally identical heap without interpreting anything.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_EVENT_H
#define LUD_TRACE_EVENT_H

#include "ir/Ids.h"
#include "runtime/Value.h"

#include <cstddef>
#include <cstdint>

namespace lud {
namespace trace {

/// Magic line opening every trace segment. The trailing newline keeps the
/// header greppable in a hexdump; everything after it is binary.
inline constexpr char kTraceMagic[] = "lud.trace.v1\n";
inline constexpr size_t kTraceMagicLen = sizeof(kTraceMagic) - 1;

/// One byte per event. Kind 0 is deliberately invalid so a zero-filled or
/// truncated stream fails loudly instead of decoding as events.
enum class EventKind : uint8_t {
  Invalid = 0,
  EntryFrame,        // func
  Phase,             // svarint phase id
  Const,             // instr
  Assign,            // instr
  Bin,               // instr
  Un,                // instr
  Alloc,             // instr, obj, slots
  AllocArray,        // instr, obj, len
  LoadField,         // instr, base, value
  StoreField,        // instr, base, value
  LoadStatic,        // instr, value
  StoreStatic,       // instr, value
  LoadElem,          // instr, base, index, value
  StoreElem,         // instr, base, index, value
  ArrayLen,          // instr, base
  PredicateTaken,    // instr
  PredicateNotTaken, // instr
  NativeCall,        // instr
  CallEnter,         // instr, callee func, receiver
  Return,            // instr
  ReturnBound,       // dst reg (kNoReg when discarded)
  Trap,              // instr, trap kind byte, fault reg
  End,               // segment terminator (written by onRunEnd)
};

inline constexpr unsigned kNumEventKinds = unsigned(EventKind::End) + 1;

/// Longest encoding any event can have on the wire: a load_elem or
/// store_elem event, whose kind byte is followed by three varints and a
/// tagged value (a value kind byte plus a varint), each varint at most 10
/// bytes. The recorder reserves this much per event and the replayer's
/// fast path runs only while this many bytes remain.
inline constexpr size_t kMaxEventBytes = 1 + 10 + 10 + 10 + 1 + 10;

/// Printable name for diagnostics and the obs per-kind counters.
const char *eventKindName(EventKind K);

/// Bytes the event would occupy in a naive fixed-width record (kind byte,
/// 32-bit ids, 9-byte tagged value). The obs `trace.compression_ppm` gauge
/// reports encoded bytes relative to this reference.
unsigned nominalEventBytes(EventKind K);

/// A decoded event. Only the fields the kind's payload lists are
/// meaningful; the rest keep their defaults.
struct TraceEvent {
  EventKind Kind = EventKind::Invalid;
  InstrId Instr = kNoInstr;
  /// EntryFrame's function / CallEnter's callee.
  FuncId Func = kNoFunc;
  /// Allocated object, heap base, or CallEnter receiver.
  ObjId Obj = kNullObj;
  /// Element index, alloc slot count, or array length.
  uint32_t Index = 0;
  /// ReturnBound destination / Trap fault register.
  Reg R = kNoReg;
  /// Trap kind byte.
  uint8_t Byte = 0;
  /// Phase marker id.
  int64_t Phase = 0;
  /// Loaded/stored value.
  Value Val;
};

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_EVENT_H
