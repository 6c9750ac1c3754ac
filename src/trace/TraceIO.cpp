//===- trace/TraceIO.cpp - lud.trace.v1 encode/decode ----------------------===//

#include "trace/TraceIO.h"

#include "ir/Module.h"
#include "support/OutStream.h"

#include <cstdio>
#include <cstring>

using namespace lud;
using namespace lud::trace;

const char *lud::trace::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Invalid:
    return "invalid";
  case EventKind::EntryFrame:
    return "entry_frame";
  case EventKind::Phase:
    return "phase";
  case EventKind::Const:
    return "const";
  case EventKind::Assign:
    return "assign";
  case EventKind::Bin:
    return "bin";
  case EventKind::Un:
    return "un";
  case EventKind::Alloc:
    return "alloc";
  case EventKind::AllocArray:
    return "alloc_array";
  case EventKind::LoadField:
    return "load_field";
  case EventKind::StoreField:
    return "store_field";
  case EventKind::LoadStatic:
    return "load_static";
  case EventKind::StoreStatic:
    return "store_static";
  case EventKind::LoadElem:
    return "load_elem";
  case EventKind::StoreElem:
    return "store_elem";
  case EventKind::ArrayLen:
    return "array_len";
  case EventKind::PredicateTaken:
    return "predicate_taken";
  case EventKind::PredicateNotTaken:
    return "predicate_not_taken";
  case EventKind::NativeCall:
    return "native_call";
  case EventKind::CallEnter:
    return "call_enter";
  case EventKind::Return:
    return "return";
  case EventKind::ReturnBound:
    return "return_bound";
  case EventKind::Trap:
    return "trap";
  case EventKind::End:
    return "end";
  }
  return "unknown";
}

unsigned lud::trace::nominalEventBytes(EventKind K) {
  // Reference record: 1 kind byte, 4 bytes per id/index field, 2 per
  // register, 9 per tagged value (kind byte + 8 payload bytes).
  switch (K) {
  case EventKind::Invalid:
    return 1;
  case EventKind::EntryFrame:
    return 1 + 4;
  case EventKind::Phase:
    return 1 + 8;
  case EventKind::Const:
  case EventKind::Assign:
  case EventKind::Bin:
  case EventKind::Un:
  case EventKind::NativeCall:
  case EventKind::Return:
  case EventKind::PredicateTaken:
  case EventKind::PredicateNotTaken:
    return 1 + 4;
  case EventKind::Alloc:
  case EventKind::AllocArray:
  case EventKind::CallEnter:
    return 1 + 4 + 4 + 4;
  case EventKind::LoadField:
  case EventKind::StoreField:
    return 1 + 4 + 4 + 9;
  case EventKind::LoadStatic:
  case EventKind::StoreStatic:
    return 1 + 4 + 9;
  case EventKind::LoadElem:
  case EventKind::StoreElem:
    return 1 + 4 + 4 + 4 + 9;
  case EventKind::ArrayLen:
    return 1 + 4 + 4;
  case EventKind::ReturnBound:
    return 1 + 2;
  case EventKind::Trap:
    return 1 + 4 + 1 + 2;
  case EventKind::End:
    return 1;
  }
  return 1;
}

//===----------------------------------------------------------------------===//
// TraceWriter
//===----------------------------------------------------------------------===//

uint8_t *TraceWriter::putF64(uint8_t *P, double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  for (int I = 0; I != 8; ++I)
    *P++ = uint8_t(Bits >> (8 * I));
  return P;
}

void TraceWriter::beginTrace(const Module &M) {
  static_assert(kTraceMagicLen <= kMaxEventBytes);
  uint8_t *P = reserve();
  std::memcpy(P, kTraceMagic, kTraceMagicLen);
  commit(P + kTraceMagicLen);
  varint(M.getNumInstrs());
  varint(M.functions().size());
  varint(M.globals().size());
}

void TraceWriter::endTrace() {
  u8(uint8_t(EventKind::End));
  flush();
}

void TraceWriter::flush() {
  size_t N = size_t(Cur - Buf.get());
  if (!N)
    return;
  *Sink << std::string_view(reinterpret_cast<const char *>(Buf.get()), N);
  Flushed += N;
  Cur = Buf.get();
}

//===----------------------------------------------------------------------===//
// TraceReader
//===----------------------------------------------------------------------===//

bool TraceReader::fail(const std::string &Msg) {
  if (Err.empty())
    Err = "trace offset " + std::to_string(Pos) + ": " + Msg;
  return false;
}

bool TraceReader::u8(uint8_t &B) {
  if (!Err.empty())
    return false;
  if (Pos >= Buf.size())
    return fail("unexpected end of trace");
  B = uint8_t(Buf[Pos++]);
  return true;
}

bool TraceReader::varint(uint64_t &V) {
  if (!Err.empty())
    return false;
  V = 0;
  unsigned Shift = 0;
  for (unsigned I = 0; I != 10; ++I) {
    if (Pos >= Buf.size())
      return fail("truncated varint");
    uint8_t B = uint8_t(Buf[Pos++]);
    // The 10th byte carries bit 63 only; a larger payload there would
    // silently shift out of the 64-bit result, making two different byte
    // sequences decode to the same value. Reject instead of truncating.
    if (Shift == 63 && (B & 0x7E))
      return fail("varint overflows 64 bits");
    V |= uint64_t(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
    Shift += 7;
  }
  return fail("varint longer than 10 bytes");
}

bool TraceReader::svarint(int64_t &V) {
  uint64_t U;
  if (!varint(U))
    return false;
  V = int64_t((U >> 1) ^ (~(U & 1) + 1));
  return true;
}

bool TraceReader::f64(double &D) {
  if (!Err.empty())
    return false;
  if (Buf.size() - Pos < 8)
    return fail("truncated float");
  uint64_t Bits = 0;
  for (int I = 0; I != 8; ++I)
    Bits |= uint64_t(uint8_t(Buf[Pos + I])) << (8 * I);
  Pos += 8;
  std::memcpy(&D, &Bits, sizeof(D));
  return true;
}

bool TraceReader::value(Value &V) {
  uint8_t Kind;
  if (!u8(Kind))
    return false;
  switch (Kind) {
  case uint8_t(ValueKind::Int): {
    int64_t I;
    if (!svarint(I))
      return false;
    V = Value::makeInt(I);
    return true;
  }
  case uint8_t(ValueKind::Float): {
    double D;
    if (!f64(D))
      return false;
    V = Value::makeFloat(D);
    return true;
  }
  case uint8_t(ValueKind::Ref): {
    uint64_t R;
    if (!varint(R))
      return false;
    if (R > 0xFFFFFFFFull)
      return fail("object id out of range in value");
    V = Value::makeRef(ObjId(R));
    return true;
  }
  }
  return fail("bad value kind byte " + std::to_string(Kind));
}

bool TraceReader::varint32(uint32_t &V, const char *What) {
  uint64_t U;
  if (!varint(U))
    return false;
  if (U > 0xFFFFFFFFull)
    return fail(std::string(What) + " out of 32-bit range");
  V = uint32_t(U);
  return true;
}

bool TraceReader::readHeader() {
  if (!Err.empty())
    return false;
  if (Buf.size() - Pos < kTraceMagicLen ||
      Buf.compare(Pos, kTraceMagicLen, kTraceMagic) != 0)
    return fail("missing 'lud.trace.v1' header");
  Pos += kTraceMagicLen;
  if (!varint(NumInstrs) || !varint(NumFuncs))
    return false;
  return varint(NumGlobals);
}

bool TraceReader::readHeader(const Module &M) {
  if (!readHeader())
    return false;
  if (NumInstrs != M.getNumInstrs() || NumFuncs != M.functions().size() ||
      NumGlobals != M.globals().size())
    return fail("trace does not match the module (recorded against a "
                "different program?)");
  return true;
}

bool TraceReader::next(TraceEvent &E) {
  E = TraceEvent();
  uint8_t KindByte;
  if (!u8(KindByte))
    return false;
  if (KindByte == 0 || KindByte >= kNumEventKinds)
    return fail("bad event kind byte " + std::to_string(KindByte));
  E.Kind = EventKind(KindByte);

  auto ReadInstr = [&] {
    uint64_t Id;
    if (!varint(Id))
      return false;
    if (Id >= NumInstrs)
      return fail("instruction id " + std::to_string(Id) + " out of range");
    E.Instr = InstrId(Id);
    return true;
  };
  auto ReadFunc = [&] {
    uint64_t Id;
    if (!varint(Id))
      return false;
    if (Id >= NumFuncs)
      return fail("function id " + std::to_string(Id) + " out of range");
    E.Func = FuncId(Id);
    return true;
  };
  auto ReadObj = [&] { return varint32(E.Obj, "object id"); };
  auto ReadReg = [&] {
    uint64_t R;
    if (!varint(R))
      return false;
    if (R > kNoReg)
      return fail("register out of range");
    E.R = Reg(R);
    return true;
  };

  switch (E.Kind) {
  case EventKind::Invalid:
    return fail("invalid event kind");
  case EventKind::EntryFrame:
    return ReadFunc();
  case EventKind::Phase:
    return svarint(E.Phase);
  case EventKind::Const:
  case EventKind::Assign:
  case EventKind::Bin:
  case EventKind::Un:
  case EventKind::NativeCall:
  case EventKind::Return:
  case EventKind::PredicateTaken:
  case EventKind::PredicateNotTaken:
    return ReadInstr();
  case EventKind::Alloc:
  case EventKind::AllocArray:
    return ReadInstr() && ReadObj() && varint32(E.Index, "slot count");
  case EventKind::LoadField:
  case EventKind::StoreField:
    return ReadInstr() && ReadObj() && value(E.Val);
  case EventKind::LoadStatic:
  case EventKind::StoreStatic:
    return ReadInstr() && value(E.Val);
  case EventKind::LoadElem:
  case EventKind::StoreElem:
    return ReadInstr() && ReadObj() && varint32(E.Index, "element index") &&
           value(E.Val);
  case EventKind::ArrayLen:
    return ReadInstr() && ReadObj();
  case EventKind::CallEnter:
    return ReadInstr() && ReadFunc() && ReadObj();
  case EventKind::ReturnBound:
    return ReadReg();
  case EventKind::Trap:
    return ReadInstr() && u8(E.Byte) && ReadReg();
  case EventKind::End:
    return true;
  }
  return fail("unhandled event kind");
}

//===----------------------------------------------------------------------===//
// File helper
//===----------------------------------------------------------------------===//

bool lud::trace::readFileBytes(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}
