//===- ludbench/src/Bench.cpp - Shared state of one benchmark run ---------===//

#include "Bench.h"

#include "obs/Metrics.h"
#include "workloads/Driver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace ludbench;

namespace {

/// Share of --seconds spent repeating the set-up.
constexpr double kSetupShare = 0.15;

/// The probe's reference time: a round figure near its time on the 4-vCPU
/// Xeon the benchmark was tuned on, so that reference seconds read close
/// to wall seconds there.
constexpr double kProbeRefSeconds = 5e-4;
/// Keeps the probe loops from being optimized away.
volatile uint32_t ProbeSink;

/// The probe is the geometric mean of three timings of the benchmark's own
/// code, each feeling another part of the contention the workloads meet:
/// a chain of dependent loads over a 4 MiB table (the shared cache), the
/// same over a 64 KiB table (a core's private caches), and allocating,
/// walking and freeing a 6000-node list (the allocator and fresh memory).
/// Each alone tracked some workloads and missed others. Over twelve 20 s
/// runs per workload in three blocks a few minutes apart, during which
/// wall-clock medians moved by up to 74% between blocks, the three
/// together kept every workload's set-up and work medians within 14% from
/// block to block; the 4 MiB chain alone, within 22%.
template <unsigned Bits, int Steps> double chainSeconds() {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> V(1u << Bits);
    for (uint32_t I = 0; I != V.size(); ++I)
      V[I] = I * 2654435761u;
    return V;
  }();
  // Touch every cache line of the table first, so the timing does not
  // depend on how much of it the work before evicted.
  uint32_t X = 0;
  for (uint32_t I = 0; I < Table.size(); I += 16)
    X += Table[I];
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I != Steps; ++I) {
    X = Table[X & ((1u << Bits) - 1)] ^ (X * 33 + uint32_t(I));
    if (X & 1)
      X += 7;
  }
  double Sec = secondsSince(T0);
  ProbeSink = X;
  return Sec;
}

double allocSeconds() {
  struct Node {
    Node *Next;
    uint64_t Pad[7];
  };
  Clock::time_point T0 = Clock::now();
  Node *Head = nullptr;
  for (uint64_t I = 0; I != 6000; ++I)
    Head = new Node{Head, {I}};
  uint64_t Sum = 0;
  for (Node *N = Head; N; N = N->Next)
    Sum += N->Pad[0];
  while (Head) {
    Node *Next = Head->Next;
    delete Head;
    Head = Next;
  }
  double Sec = secondsSince(T0);
  ProbeSink = uint32_t(Sum);
  return Sec;
}

double probeSeconds() {
  return std::cbrt(chainSeconds<20, 25000>() * chainSeconds<14, 150000>() *
                   allocSeconds());
}

} // namespace

Run::Run(const Args &A) : A(A), Rng(A.Seed) {}

int64_t Run::scaled(int64_t Full, int64_t Floor) const {
  return std::max<int64_t>(Floor, Full * int64_t(A.SizePct) / 100);
}

void Run::timeSetup(const std::function<void()> &Setup) {
  std::vector<double> Wall, Ref;
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(double(A.Seconds) *
                                                       kSetupShare));
  while (Wall.size() < 3 || (Clock::now() < End && Wall.size() < 10000)) {
    double Sec = 0;
    double Scale = referenceScale([&] {
      Clock::time_point T0 = Clock::now();
      Scope S(T, "bench.setup");
      Setup();
      Sec = secondsSince(T0);
    });
    Wall.push_back(Sec);
    Ref.push_back(Sec * Scale);
  }
  endToEnd("setup_s", median(Ref));
  extra("setup_wall_s", median(Wall), "s");
}

double Run::referenceScale(const std::function<void()> &Work) {
  if (A.Trace) {
    Work();
    return 1.0;
  }
  double Before = probeSeconds();
  Work();
  double After = probeSeconds();
  return 2 * kProbeRefSeconds / (Before + After);
}

void Run::startWindow(double Share) {
  double Sec = double(A.Seconds) * (1 - kSetupShare) * Share;
  WindowEnd = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(Sec));
}

bool Run::keepGoing(size_t Done, size_t Min) const {
  return Done < Min || Clock::now() < WindowEnd;
}

void Run::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Diagnostics.size() < 20)
    Diagnostics.push_back(What);
}

void Run::endToEnd(const std::string &Name, double Value) {
  E2E[Name] = Value;
}

void Run::perLayer(const std::string &Name, double Value) {
  Layer[Name] = Value;
}

void Run::extra(const std::string &Name, double Value, const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "metric %s = %.6g %s", Name.c_str(), Value,
                Unit);
  Extras.push_back(Buf);
}

void Run::ledger(const std::vector<double> &UntracedPassSeconds) {
  std::vector<uint32_t> Passes = T.roots("bench.pass");
  if (Passes.empty())
    return;
  std::map<std::string, double> Self;
  double Wall = 0;
  std::vector<double> Traced;
  for (uint32_t P : Passes) {
    for (const auto &[L, S] : T.selfTimes(P))
      Self[L] += S;
    Wall += T.duration(P);
    Traced.push_back(T.duration(P));
  }
  double N = double(Passes.size());
  for (const char *L : kLayers)
    perLayer("self." + std::string(L) + "_s", Self[L] / N);
  perLayer("bench.unattributed_pct", Wall > 0 ? 100 * Self["bench"] / Wall : 0);
  double Untraced = median(UntracedPassSeconds);
  if (Untraced > 0)
    perLayer("bench.span_overhead_pct",
             100 * (median(Traced) - Untraced) / Untraced);
}

int Run::finish() {
  if (!A.Trace)
    endToEnd("peak_rss_mb", peakRssMb());
  if (A.Trace && !T.writeJsonLines("spans.jsonl"))
    std::fprintf(stderr, "warning: cannot write spans to 'spans.jsonl'\n");

  std::string Json = "{";
  bool First = true;
  auto Emit = [&](const MetricDef &D, double V) {
    if (!std::isfinite(V)) {
      check(false, std::string("metric ") + D.Name + " is not finite");
      V = 0;
    }
    std::printf("metric %s = %.6g %s\n", D.Name, V, D.Unit);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", First ? "" : ", ", D.Name, V, D.Unit);
    Json += Buf;
    First = false;
  };
  for (const std::string &L : Extras)
    std::printf("%s\n", L.c_str());
  if (A.Trace) {
    for (const MetricDef &D : kPerLayer) {
      auto It = Layer.find(D.Name);
      Emit(D, It == Layer.end() ? 0.0 : It->second);
    }
  } else {
    for (const MetricDef &D : kEndToEnd) {
      auto It = E2E.find(D.Name);
      if (It == E2E.end())
        check(false, std::string("metric ") + D.Name + " was not measured");
      Emit(D, It == E2E.end() ? 0.0 : It->second);
    }
  }
  Json += "}";
  std::printf("metric fail_ratio = %.6g ratio (%llu of %llu)\n",
              Attempted ? double(Failed) / double(Attempted) : 0.0,
              (unsigned long long)Failed, (unsigned long long)Attempted);
  for (const std::string &D : Diagnostics)
    std::fprintf(stderr, "check failed: %s\n", D.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Failed == 0 && Attempted > 0 ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(Attempted, 1),
              (unsigned long long)Failed, Json.c_str());
  std::fflush(stdout);
  return Failed == 0 && Attempted > 0 ? 0 : 1;
}

uint64_t ludbench::digest(const std::string &Text) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

double ludbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

lud::RunResult ludbench::referenceRun(const lud::Module &M) {
  lud::SessionConfig Cfg = lud::SessionConfig::baseline();
  Cfg.Engine = lud::EngineKind::Interp;
  lud::ProfileSession S(Cfg);
  return S.run(M).Run;
}

double ludbench::buildBytes(const lud::obs::MetricsRegistry &Reg) {
  double Sum = 0;
  for (lud::obs::MetricId I = 0; I != Reg.numMetrics(); ++I) {
    const std::string &N = Reg.name(I);
    if (N.rfind("mem.gcost.", 0) == 0 || N.rfind("mem.shadow.", 0) == 0 ||
        N.rfind("mem.profiler.", 0) == 0)
      Sum += double(Reg.value(I));
  }
  return Sum;
}
