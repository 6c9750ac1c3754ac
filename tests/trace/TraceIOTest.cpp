//===- tests/trace/TraceIOTest.cpp - lud.trace.v1 wire format --------------===//

#include "support/OutStream.h"
#include "trace/TraceIO.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"
#include "runtime/ComposedProfiler.h"
#include "workloads/DaCapo.h"
#include "workloads/RandomProgram.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

using namespace lud;
using namespace lud::trace;

namespace {

TEST(TraceIOTest, VarintRoundTrips) {
  const uint64_t Cases[] = {0,
                            1,
                            127,
                            128,
                            300,
                            (uint64_t(1) << 32) - 1,
                            uint64_t(1) << 32,
                            std::numeric_limits<uint64_t>::max()};
  StringOutStream OS;
  TraceWriter W(OS);
  for (uint64_t V : Cases)
    W.varint(V);
  W.flush();
  EXPECT_EQ(W.bytes(), OS.str().size());
  TraceReader R(OS.str());
  for (uint64_t V : Cases) {
    uint64_t Got = 1;
    ASSERT_TRUE(R.varint(Got));
    EXPECT_EQ(Got, V);
  }
  EXPECT_TRUE(R.atEnd());
}

TEST(TraceIOTest, SignedVarintRoundTrips) {
  const int64_t Cases[] = {0,
                           1,
                           -1,
                           63,
                           -64,
                           64,
                           -65,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  StringOutStream OS;
  TraceWriter W(OS);
  for (int64_t V : Cases)
    W.svarint(V);
  W.flush();
  TraceReader R(OS.str());
  for (int64_t V : Cases) {
    int64_t Got = 1;
    ASSERT_TRUE(R.svarint(Got));
    EXPECT_EQ(Got, V);
  }
}

TEST(TraceIOTest, FloatAndValueRoundTrip) {
  StringOutStream OS;
  TraceWriter W(OS);
  W.f64(3.141592653589793);
  W.f64(-0.0);
  W.value(Value::makeInt(-42));
  W.value(Value::makeFloat(2.5));
  W.value(Value::makeRef(7));
  W.value(Value::null());
  W.flush();

  TraceReader R(OS.str());
  double D;
  ASSERT_TRUE(R.f64(D));
  EXPECT_EQ(D, 3.141592653589793);
  ASSERT_TRUE(R.f64(D));
  EXPECT_EQ(D, -0.0);
  Value V;
  ASSERT_TRUE(R.value(V));
  EXPECT_EQ(V.Kind, ValueKind::Int);
  EXPECT_EQ(V.I, -42);
  ASSERT_TRUE(R.value(V));
  EXPECT_EQ(V.Kind, ValueKind::Float);
  EXPECT_EQ(V.F, 2.5);
  ASSERT_TRUE(R.value(V));
  EXPECT_EQ(V.Kind, ValueKind::Ref);
  EXPECT_EQ(V.R, 7u);
  ASSERT_TRUE(R.value(V));
  EXPECT_TRUE(V.isNullRef());
  EXPECT_TRUE(R.atEnd());
}

TEST(TraceIOTest, ReaderDiagnosesBadPrimitives) {
  {
    // Truncated varint: continuation bit set on the last byte.
    std::string Bytes = "\xff\xff";
    TraceReader R(Bytes);
    uint64_t V;
    EXPECT_FALSE(R.varint(V));
    EXPECT_NE(R.error().find("truncated varint"), std::string::npos);
  }
  {
    // Over-long varint: a continuation bit on the 10th byte. The payload
    // bytes are zero so this trips the length check, not the 64-bit
    // overflow check (which fires first for 0xff padding).
    std::string Bytes(10, '\x80');
    Bytes.push_back('\0');
    TraceReader R(Bytes);
    uint64_t V;
    EXPECT_FALSE(R.varint(V));
    EXPECT_NE(R.error().find("varint longer"), std::string::npos);
  }
  {
    // Truncated float.
    std::string Bytes = "\x01\x02\x03";
    TraceReader R(Bytes);
    double D;
    EXPECT_FALSE(R.f64(D));
    EXPECT_NE(R.error().find("truncated float"), std::string::npos);
  }
  {
    // Unknown value kind byte.
    std::string Bytes = "\x09";
    TraceReader R(Bytes);
    Value V;
    EXPECT_FALSE(R.value(V));
    EXPECT_NE(R.error().find("bad value kind"), std::string::npos);
  }
  {
    // First error latches; later reads keep failing without overwriting it.
    std::string Bytes = "";
    TraceReader R(Bytes);
    uint8_t B;
    EXPECT_FALSE(R.u8(B));
    std::string First = R.error();
    EXPECT_FALSE(R.u8(B));
    EXPECT_EQ(R.error(), First);
  }
}

/// Records a baseline (uninstrumented) run of \p M into a string.
std::string recordTrace(const Module &M) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Instrument = false;
  Cfg.RecordSink = &Sink;
  ProfileSession S(std::move(Cfg));
  S.run(M);
  return Sink.str();
}

/// Replays \p Bytes against \p M through an empty pipeline.
bool replayBytes(const Module &M, std::string_view Bytes, std::string &Err) {
  SessionConfig Cfg;
  Cfg.Instrument = false;
  ProfileSession S(std::move(Cfg));
  ReplayRun R = S.replay(M, Bytes);
  Err = R.Error;
  return R.Ok;
}

TEST(TraceIOTest, HeaderMismatchesAreDiagnosed) {
  Workload W = buildWorkload("fop", 16);
  std::string Bytes = recordTrace(*W.M);
  ASSERT_GT(Bytes.size(), kTraceMagicLen);

  std::string Err;
  // The genuine trace replays.
  EXPECT_TRUE(replayBytes(*W.M, Bytes, Err)) << Err;

  // Empty input.
  EXPECT_FALSE(replayBytes(*W.M, "", Err));
  EXPECT_NE(Err.find("empty trace"), std::string::npos);

  // Wrong magic.
  std::string Bad = Bytes;
  Bad[0] = 'X';
  EXPECT_FALSE(replayBytes(*W.M, Bad, Err));
  EXPECT_NE(Err.find("header"), std::string::npos);

  // Recorded against a different program.
  Workload Other = buildWorkload("chart", 32);
  EXPECT_FALSE(replayBytes(*Other.M, Bytes, Err));
  EXPECT_NE(Err.find("does not match the module"), std::string::npos);
}

TEST(TraceIOTest, EveryTruncationFailsCleanly) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordTrace(*W.M);
  ASSERT_GT(Bytes.size(), 64u);
  // A proper prefix can never be a valid trace: the End event of the last
  // segment is either cut (truncated segment) or, if the cut lands exactly
  // after a segment... there is only one segment here, so every proper
  // prefix must fail — with a diagnostic, never a crash.
  size_t Step = Bytes.size() > 4096 ? 7 : 1;
  for (size_t Len = 0; Len < Bytes.size(); Len += Step) {
    std::string Err;
    EXPECT_FALSE(
        replayBytes(*W.M, std::string_view(Bytes).substr(0, Len), Err))
        << "prefix " << Len;
    EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
}

/// FNV-1a over \p S, folded into \p H.
uint64_t fnv1a(std::string_view S, uint64_t H = 0xcbf29ce484222325ull) {
  for (char C : S) {
    H ^= uint8_t(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Replays \p Bytes into a TraceRecorder. True with the re-encoded trace
/// in \p Out, or false with the diagnostic in \p Out. The recorder keeps no
/// shadow state, so any trace the replayer accepts is safe to replay here.
bool reencode(const Module &M, std::string_view Bytes, std::string &Out) {
  StringOutStream OS;
  std::string Err;
  bool Ok;
  {
    TraceRecorder Rec(OS);
    Ok = replayTrace(M, Bytes, Rec, Err);
  }
  Out = Ok ? OS.str() : Err;
  return Ok;
}

TEST(TraceIOTest, BitFlipsNeverCrashTheReplayer) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordTrace(*W.M);
  // Flip one bit at a sweep of positions; replay must return (true or
  // false), never assert or fault. Payload flips that decode to in-range
  // events may legitimately succeed. Every outcome folds into one digest:
  // the diagnostic of a failed replay, or the re-encoding of everything a
  // successful one decoded. The digest is pinned, so a change to what
  // decoding accepts, how it fails or what it decodes shows up even where
  // nothing crashes.
  uint64_t Digest = fnv1a("");
  for (size_t I = 0; I < Bytes.size(); I += 13) {
    for (uint8_t Bit : {0x01, 0x40}) {
      std::string Mutated = Bytes;
      Mutated[I] = char(uint8_t(Mutated[I]) ^ Bit);
      std::string Outcome;
      bool Ok = reencode(*W.M, Mutated, Outcome);
      EXPECT_FALSE(Outcome.empty()) << "flip at " << I;
      Digest = fnv1a(Ok ? "ok" : "error", Digest);
      Digest = fnv1a(Outcome, Digest);
    }
  }
  EXPECT_EQ(Digest, 0x92522910ff27eb04ull) << std::hex << Digest;
}

TEST(TraceIOTest, BadEventKindByteIsDiagnosed) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordTrace(*W.M);
  // Find the first event byte (right after the header varints) and replace
  // it with an out-of-range kind.
  TraceReader Probe(Bytes);
  ASSERT_TRUE(Probe.readHeader(*W.M));
  size_t EventStart = Probe.offset();
  std::string Bad = Bytes;
  Bad[EventStart] = char(200);
  std::string Err;
  EXPECT_FALSE(replayBytes(*W.M, Bad, Err));
  EXPECT_NE(Err.find("bad event kind byte 200"), std::string::npos) << Err;
  // Kind 0 is reserved-invalid.
  Bad[EventStart] = char(0);
  EXPECT_FALSE(replayBytes(*W.M, Bad, Err));
  EXPECT_NE(Err.find("bad event kind byte 0"), std::string::npos) << Err;
}

TEST(TraceIOTest, NominalBytesAndNamesCoverAllKinds) {
  for (unsigned K = 0; K != kNumEventKinds; ++K) {
    EXPECT_STRNE(eventKindName(EventKind(K)), "unknown");
    EXPECT_GE(nominalEventBytes(EventKind(K)), 1u);
  }
}

TEST(TraceIOTest, VarintRejectsPayloadBeyond64Bits) {
  // Nine 0xFF bytes carry bits 0..62; the 10th byte may only add bit 63.
  // Exactly that is UINT64_MAX and must decode.
  std::string Max(9, char(0xFF));
  Max += char(0x01);
  TraceReader Ok(Max);
  uint64_t V = 0;
  ASSERT_TRUE(Ok.varint(V));
  EXPECT_EQ(V, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(Ok.atEnd());

  // Any further payload bit in the 10th byte used to shift out silently,
  // decoding to the same value as a different byte sequence. Rejected now.
  for (uint8_t Tenth : {uint8_t(0x02), uint8_t(0x7E), uint8_t(0x7F)}) {
    std::string Over(9, char(0xFF));
    Over += char(Tenth);
    TraceReader R(Over);
    EXPECT_FALSE(R.varint(V)) << "tenth byte " << unsigned(Tenth);
    EXPECT_NE(R.error().find("overflows 64 bits"), std::string::npos)
        << R.error();
  }

  // A continuation bit on the 10th byte runs past the maximum length.
  std::string Long(10, char(0x81));
  TraceReader R(Long);
  EXPECT_FALSE(R.varint(V));
  EXPECT_NE(R.error().find("longer than 10 bytes"), std::string::npos)
      << R.error();
}

/// One decoded event of a trace and the byte range it occupies.
struct EventAt {
  TraceEvent E;
  size_t Begin = 0;
  size_t End = 0;
};

/// Decodes every event of the one-segment trace \p Bytes.
std::vector<EventAt> indexEvents(const Module &M, const std::string &Bytes) {
  std::vector<EventAt> Out;
  TraceReader R(Bytes);
  EXPECT_TRUE(R.readHeader(M)) << R.error();
  for (;;) {
    EventAt A;
    A.Begin = R.offset();
    if (!R.next(A.E) || A.E.Kind == EventKind::End)
      break;
    A.End = R.offset();
    Out.push_back(A);
  }
  EXPECT_FALSE(R.hasError()) << R.error();
  return Out;
}

/// Encodes one event's bytes through \p Fill.
std::string encode(const std::function<void(TraceWriter &)> &Fill) {
  StringOutStream OS;
  {
    TraceWriter W(OS);
    Fill(W);
  }
  return OS.str();
}

// Corruptions planted in the middle of a trace far longer than the replay
// fast path's kMaxEventBytes window, where the fused loop meets them first:
// each must fall back to the checked path and fail with exactly the
// offset-stamped diagnostic the checked reader and replayer print.
TEST(TraceIOTest, CorruptEventsMidTraceKeepTheirDiagnostics) {
  Workload W = buildWorkload("fop", 512);
  const Module &M = *W.M;
  std::string Bytes = recordTrace(M);
  ASSERT_GT(Bytes.size(), 1000 * kMaxEventBytes);
  std::vector<EventAt> Events = indexEvents(M, Bytes);
  // The first event of kind \p K in the trace's second half.
  auto Middle = [&](EventKind K) {
    for (const EventAt &A : Events)
      if (A.Begin >= Bytes.size() / 2 && A.E.Kind == K)
        return A;
    ADD_FAILURE() << "no " << eventKindName(K) << " event mid-trace";
    return EventAt();
  };
  // Replaces the event at \p A with \p Event; checks the replay fails
  // with "trace offset <Begin + At>: <Msg>", into an empty pipeline and
  // into the substrate alike.
  auto Expect = [&](const EventAt &A, const std::string &Event, size_t At,
                    const std::string &Msg) {
    std::string Bad = Bytes.substr(0, A.Begin) + Event + Bytes.substr(A.End);
    std::string Want = "trace offset " + std::to_string(A.Begin + At) +
                       ": " + Msg;
    std::string Err;
    EXPECT_FALSE(replayBytes(M, Bad, Err));
    EXPECT_EQ(Err, Want);
    ProfileSession S(SessionConfig::profiled());
    ReplayRun R = S.replay(M, Bad);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, Want);
  };
  auto VarintLen = [](uint64_t V) {
    size_t N = 1;
    for (; V >= 0x80; V >>= 7)
      ++N;
    return N;
  };

  const EventAt Bin = Middle(EventKind::Bin);
  const EventAt Load = Middle(EventKind::LoadField);
  const EventAt Store = Middle(EventKind::StoreField);
  const InstrId LoadId = Load.E.Instr;
  const uint64_t NumInstrs = M.getNumInstrs();

  // An out-of-range kind byte.
  {
    std::string Event = Bytes.substr(Bin.Begin, Bin.End - Bin.Begin);
    Event[0] = char(200);
    Expect(Bin, Event, 1, "bad event kind byte 200");
  }
  // An instruction id past the module.
  Expect(Bin, encode([&](TraceWriter &TW) {
           TW.u8(uint8_t(EventKind::Bin));
           TW.varint(NumInstrs + 7);
         }),
         1 + VarintLen(NumInstrs + 7),
         "instruction id " + std::to_string(NumInstrs + 7) + " out of range");
  // A bin event naming a load instruction.
  Expect(Bin, encode([&](TraceWriter &TW) {
           TW.u8(uint8_t(EventKind::Bin));
           TW.varint(LoadId);
         }),
         1 + VarintLen(LoadId), "bin event on a non-bin instruction");
  // A heap base that was never allocated.
  {
    std::string Event = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::LoadField));
      TW.varint(LoadId);
      TW.varint(4000000000u);
      TW.value(Load.E.Val);
    });
    Expect(Load, Event, Event.size(),
           "object id 4000000000 not allocated at this point");
  }
  // A stored reference to an object that was never allocated.
  {
    std::string Event = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::StoreField));
      TW.varint(Store.E.Instr);
      TW.varint(Store.E.Obj);
      TW.value(Value::makeRef(4000000000u));
    });
    Expect(Store, Event, Event.size(),
           "value references unallocated object 4000000000");
  }
  // An instruction-id varint whose 10th byte carries bits past bit 63.
  {
    std::string Event(1, char(EventKind::Bin));
    Event += std::string(9, char(0xFF));
    Event += char(0x02);
    Expect(Bin, Event, 11, "varint overflows 64 bits");
  }
  // A value kind byte outside Int/Float/Ref.
  {
    std::string Head = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::LoadField));
      TW.varint(LoadId);
      TW.varint(Load.E.Obj);
    });
    Expect(Load, Head + char(9), Head.size() + 1,
           "bad value kind byte 9");
  }

  const EventAt Call = Middle(EventKind::CallEnter);
  const EventAt Elem = Middle(EventKind::LoadElem);
  const EventAt Bound = Middle(EventKind::ReturnBound);
  const uint64_t NumFuncs = M.functions().size();
  // A callee past the module's functions.
  {
    std::string Head = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::CallEnter));
      TW.varint(Call.E.Instr);
      TW.varint(NumFuncs + 3);
    });
    Expect(Call, Head + char(0), Head.size(),
           "function id " + std::to_string(NumFuncs + 3) + " out of range");
  }
  // A receiver that was never allocated.
  {
    std::string Event = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::CallEnter));
      TW.varint(Call.E.Instr);
      TW.varint(Call.E.Func);
      TW.varint(4000000000u);
    });
    Expect(Call, Event, Event.size(),
           "call receiver 4000000000 not allocated at this point");
  }
  // A bound register one past kNoReg.
  {
    std::string Event = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::ReturnBound));
      TW.varint(uint64_t(kNoReg) + 1);
    });
    Expect(Bound, Event, Event.size(), "register out of range");
  }
  // An element index past 32 bits.
  {
    std::string Head = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::LoadElem));
      TW.varint(Elem.E.Instr);
      TW.varint(Elem.E.Obj);
      TW.varint(uint64_t(1) << 32);
    });
    Expect(Elem, Head + encode([&](TraceWriter &TW) { TW.value(Elem.E.Val); }),
           Head.size(), "element index out of 32-bit range");
  }
  // A loaded element referencing an object that was never allocated.
  {
    std::string Event = encode([&](TraceWriter &TW) {
      TW.u8(uint8_t(EventKind::LoadElem));
      TW.varint(Elem.E.Instr);
      TW.varint(Elem.E.Obj);
      TW.varint(Elem.E.Index);
      TW.value(Value::makeRef(4000000000u));
    });
    Expect(Elem, Event, Event.size(),
           "value references unallocated object 4000000000");
  }
}

// Events the fast path decodes mid-trace must come out as the checked
// reader reads them: re-encoding the replay reproduces the trace byte for
// byte, also after planting values of every kind into elem and static
// events. A random program, since no DaCapo analogue touches statics.
TEST(TraceIOTest, FastPathDecodesValuesMidTrace) {
  RandomProgramOptions Opts;
  Opts.Seed = 5;
  Opts.OpsPerFunction = 60;
  Opts.MaxTrip = 12;
  std::unique_ptr<Module> Prog = generateRandomProgram(Opts);
  const Module &M = *Prog;
  std::string Bytes = recordTrace(M);
  ASSERT_GT(Bytes.size(), 1000 * kMaxEventBytes);
  std::string Out;
  ASSERT_TRUE(reencode(M, Bytes, Out)) << Out;
  EXPECT_TRUE(Out == Bytes);

  std::vector<EventAt> Events = indexEvents(M, Bytes);
  // Rewrites the value of the first event of kind \p K in the trace's
  // second half.
  auto Plant = [&](EventKind K, const Value &V) {
    for (const EventAt &A : Events) {
      if (A.Begin < Bytes.size() / 2 || A.E.Kind != K)
        continue;
      std::string Event = encode([&](TraceWriter &TW) {
        TW.u8(uint8_t(K));
        TW.varint(A.E.Instr);
        if (K == EventKind::LoadElem || K == EventKind::StoreElem) {
          TW.varint(A.E.Obj);
          TW.varint(A.E.Index);
        }
        TW.value(V);
      });
      return Bytes.substr(0, A.Begin) + Event + Bytes.substr(A.End);
    }
    ADD_FAILURE() << "no " << eventKindName(K) << " event mid-trace";
    return Bytes;
  };
  for (EventKind K : {EventKind::LoadElem, EventKind::StoreElem,
                      EventKind::LoadStatic, EventKind::StoreStatic}) {
    for (const Value &V :
         {Value::makeFloat(-2.5e-300), Value::makeInt(-(int64_t(1) << 62)),
          Value::makeRef(1), Value::null()}) {
      std::string Planted = Plant(K, V);
      ASSERT_TRUE(reencode(M, Planted, Out))
          << eventKindName(K) << ": " << Out;
      EXPECT_TRUE(Out == Planted) << eventKindName(K);
    }
  }
}

} // namespace
