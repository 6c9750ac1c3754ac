//===- trace/TraceIO.h - lud.trace.v1 encode/decode ------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire layer of the trace format: a buffered varint writer the
/// TraceRecorder drives from profiler hooks, and a bounds-checked reader the
/// TraceReplayer decodes events from. The reader never asserts on bad input
/// — truncated, bit-flipped or mismatched streams produce a diagnostic
/// through error(), mirroring GraphIO::readGraph's contract for the text
/// format.
///
/// Encoding: LEB128 varints for unsigned fields, zigzag varints for the
/// signed phase id, doubles as 8 explicit little-endian bytes (host-order
/// independent), one kind byte per event. A segment is the magic line, a
/// varint module fingerprint (instruction/function/global counts), the
/// events, and an End event; segments concatenate, one per run().
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_TRACEIO_H
#define LUD_TRACE_TRACEIO_H

#include "trace/Event.h"

#include <memory>
#include <string>
#include <string_view>

namespace lud {

class Module;
class OutStream;

namespace trace {

/// Buffered encoder over a borrowed OutStream. Events are encoded straight
/// into a raw buffer window: reserve() makes room for one whole event (one
/// space check), the put* encoders advance a raw cursor, and commit() takes
/// the bytes. The buffer drains to the sink when an event might not fit and
/// at endTrace(), so file-backed recording does not pay one fwrite per
/// event.
class TraceWriter {
public:
  explicit TraceWriter(OutStream &Sink)
      : Sink(&Sink), Buf(new uint8_t[kBufBytes]), Cur(Buf.get()) {}
  ~TraceWriter() { flush(); }

  /// Opens a segment: magic plus the module fingerprint the reader checks
  /// before replaying against a module.
  void beginTrace(const Module &M);
  /// Terminates the segment with an End event and drains the buffer.
  void endTrace();

  /// Returns a write cursor with room for at least kMaxEventBytes bytes.
  uint8_t *reserve() {
    if (size_t(Buf.get() + kBufBytes - Cur) < kMaxEventBytes)
      flush();
    return Cur;
  }
  /// Takes the bytes written between the last reserve() and \p End;
  /// returns how many there were.
  size_t commit(uint8_t *End) {
    size_t N = size_t(End - Cur);
    Cur = End;
    return N;
  }

  // Raw encoders: each writes at \p P and returns the advanced cursor.
  static uint8_t *putVarint(uint8_t *P, uint64_t V) {
    while (V >= 0x80) {
      *P++ = uint8_t(V) | 0x80;
      V >>= 7;
    }
    *P++ = uint8_t(V);
    return P;
  }
  static uint8_t *putSvarint(uint8_t *P, int64_t V) {
    return putVarint(P, (uint64_t(V) << 1) ^ uint64_t(V >> 63));
  }
  static uint8_t *putF64(uint8_t *P, double D);
  static uint8_t *putValue(uint8_t *P, const Value &V) {
    *P++ = uint8_t(V.Kind);
    switch (V.Kind) {
    case ValueKind::Int:
      return putSvarint(P, V.I);
    case ValueKind::Float:
      return putF64(P, V.F);
    case ValueKind::Ref:
      return putVarint(P, V.R);
    }
    return P;
  }

  // One-primitive writes: segment framing and the wire-format tests.
  void u8(uint8_t B) {
    uint8_t *P = reserve();
    *P++ = B;
    commit(P);
  }
  void varint(uint64_t V) { commit(putVarint(reserve(), V)); }
  void svarint(int64_t V) { commit(putSvarint(reserve(), V)); }
  void f64(double D) { commit(putF64(reserve(), D)); }
  void value(const Value &V) { commit(putValue(reserve(), V)); }

  void flush();

  /// Bytes encoded so far (flushed or not).
  uint64_t bytes() const { return Flushed + uint64_t(Cur - Buf.get()); }

private:
  static constexpr size_t kBufBytes = 64 * 1024;
  OutStream *Sink;
  std::unique_ptr<uint8_t[]> Buf;
  uint8_t *Cur;
  uint64_t Flushed = 0;
};

/// Decoder over an in-memory trace. All reads are bounds-checked; the first
/// failure latches an error message and makes every later call fail, so the
/// replay loop can check once per event.
class TraceReader {
public:
  explicit TraceReader(std::string_view Bytes) : Buf(Bytes) {}

  /// True once every byte has been consumed (more segments may follow until
  /// then).
  bool atEnd() const { return Pos >= Buf.size(); }

  /// Reads and validates a segment header. Fails with a diagnostic when the
  /// magic is wrong or the fingerprint does not match \p M — replaying a
  /// trace against a different program would violate every invariant
  /// downstream.
  bool readHeader(const Module &M);

  /// Module-free header read: validates the magic and consumes the
  /// fingerprint without checking it against a module. For framing scans
  /// (the service client splitting a stream into whole segments) that must
  /// locate segment boundaries before any module is in hand; replay always
  /// uses the module-checked overload.
  bool readHeader();

  /// Decodes the next event into \p E. Returns false with error() set on
  /// malformed input; E.Kind == EventKind::End signals the segment
  /// terminator. Payload ids are validated against the header fingerprint
  /// (instruction and function ids in range); object-id and register
  /// validation is the replayer's job, since only it knows the heap state.
  bool next(TraceEvent &E);

  const std::string &error() const { return Err; }
  bool hasError() const { return !Err.empty(); }
  /// Byte offset of the read cursor, for diagnostics.
  size_t offset() const { return Pos; }
  /// Moves the read cursor to \p Offset (at most the input size): the
  /// replayer's fast path decodes events itself and hands the cursor back
  /// at the first event it leaves to next().
  void seek(size_t Offset) { Pos = Offset; }

  // Primitive decoders, public for the wire-format tests.
  bool u8(uint8_t &B);
  bool varint(uint64_t &V);
  bool svarint(int64_t &V);
  bool f64(double &D);
  bool value(Value &V);

private:
  bool fail(const std::string &Msg);
  bool varint32(uint32_t &V, const char *What);

  std::string_view Buf;
  size_t Pos = 0;
  std::string Err;
  uint64_t NumInstrs = 0;
  uint64_t NumFuncs = 0;
  uint64_t NumGlobals = 0;
};

/// Reads a whole file into \p Out. Returns false (leaving \p Out untouched
/// on the failure path's partial reads notwithstanding) when the file
/// cannot be opened.
bool readFileBytes(const std::string &Path, std::string &Out);

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_TRACEIO_H
