//===- tests/trace/TraceIOTest.cpp - lud.trace.v1 wire format --------------===//

#include "support/OutStream.h"
#include "trace/TraceIO.h"
#include "trace/TraceReplayer.h"
#include "runtime/ComposedProfiler.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

TEST(TraceIOTest, BitFlipsNeverCrashTheReplayer) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordTrace(*W.M);
  // Flip one bit at a sweep of positions; replay must return (true or
  // false), never assert or fault. Payload flips that decode to in-range
  // events may legitimately succeed.
  for (size_t I = 0; I < Bytes.size(); I += 13) {
    for (uint8_t Bit : {0x01, 0x40}) {
      std::string Mutated = Bytes;
      Mutated[I] = char(uint8_t(Mutated[I]) ^ Bit);
      std::string Err;
      if (!replayBytes(*W.M, Mutated, Err)) {
        EXPECT_FALSE(Err.empty()) << "flip at " << I;
      }
    }
  }
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

} // namespace
