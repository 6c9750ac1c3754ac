//===- ludbench/src/Ledger.h - Spans, self times, sample stats --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing. Spans are opened in the benchmark's code
/// around each call into a layer of the program, never inside it; a span's
/// name is "<layer>.<what>", where the layer is one of the src/ modules
/// (workloads, ir, runtime, profiling, trace, analysis, service) or
/// "bench" for the benchmark's own roots. Spans live in memory until the
/// run ends. A layer's self time is its spans' durations minus the part
/// their child spans cover; a pass's unattributed time is its root span's
/// self time, so the layers plus the unattributed rest add up to the pass
/// wall time exactly.
///
/// When tracing is off, opening a span is one branch and records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LUDBENCH_LEDGER_H
#define LUDBENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ludbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The layers a span can belong to.
inline const char *const kLayers[] = {"workloads", "ir",       "runtime",
                                      "profiling", "trace",    "analysis",
                                      "service"};

class Tracer {
public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Opens a span (a no-op returning kNone while disabled). \p Name must be
  /// a string literal: spans keep the pointer.
  uint32_t begin(const char *Name);
  void end(uint32_t Id);

  /// Spans are recorded only while enabled; a traced run toggles this to
  /// interleave traced and untraced passes.
  void setEnabled(bool On) { Enabled = On; }

  /// Ids of the closed root spans named \p Name, in order.
  std::vector<uint32_t> roots(const char *Name) const;
  /// Summed duration, seconds, of the spans named \p Name inside the
  /// subtree of \p Root (Root itself included).
  double total(uint32_t Root, const char *Name) const;
  /// Self time per layer ("bench" included) inside the subtree of \p Root.
  std::map<std::string, double> selfTimes(uint32_t Root) const;
  double duration(uint32_t Id) const;

  /// Writes every span as one JSON object per line. False when \p Path
  /// cannot be written.
  bool writeJsonLines(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint32_t Parent;
    int64_t StartNs;
    int64_t EndNs;
  };
  template <typename Fn> void forSubtree(uint32_t Root, Fn F) const;

  bool Enabled = false;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

/// Sample statistics. All take the samples by value and sort a copy.
double median(std::vector<double> V);
/// The sum of the medians of \p Parts.
double sumOfMedians(const std::vector<std::vector<double>> &Parts);
/// The nearest-rank \p Pct-th percentile.
double percentile(std::vector<double> V, double Pct);
/// The highest percentile of the grid 50/75/90/95/99/99.9 that has at
/// least ten of \p N samples beyond it; 0 when none has.
double tailPercentile(size_t N);

} // namespace ludbench

#endif // LUDBENCH_LEDGER_H
