//===- ludbench/src/Bench.h - Shared state of one benchmark run -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark run measures one workload: set it up repeatedly for a
/// fixed share of the window (the median is setup_s), prepare its output
/// checks, then repeat its unit of work until the window closes. An
/// untraced run reports the end-to-end metrics; a traced run interleaves
/// traced and untraced passes and adds the per-layer ledger. Every metric
/// the run can report is named in the two catalogues below; a metric a
/// workload does not exercise is reported as 0 in the traced run (the
/// layer did no work there).
///
/// End-to-end timings are in reference seconds. On a shared machine the
/// speed a process gets drifts by 20-70% within seconds and between
/// minutes, as other tenants load the shared cores and caches, and a wall
/// clock median inherits that drift. So each timed unit of work runs
/// between two timings of a fixed probe of the benchmark's own (no lud
/// code), and its wall time is scaled by the probe's reference time over
/// the probe's measured time. Work that gets faster or slower itself
/// moves the scaled time as much as the wall time; the machine's drift
/// moves both the work and the probe, and cancels. The unscaled medians
/// are printed beside the JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef LUDBENCH_BENCH_H
#define LUDBENCH_BENCH_H

#include "Args.h"
#include "Ledger.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace lud {
class Module;
struct RunResult;
namespace obs {
class MetricsRegistry;
}
} // namespace lud

namespace ludbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics: every workload reports all of them (untraced run).
inline const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"report_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ingest_mevents_per_s", "Mevents/s"},
};

/// Per-layer metrics: every workload reports all of them (traced run).
inline const MetricDef kPerLayer[] = {
    {"workloads.generate_s", "s"},
    {"ir.parse_s", "s"},
    {"runtime.exec_s", "s"},
    {"runtime.ns_per_instr", "ns"},
    {"profiling.track_ns_per_instr", "ns"},
    {"profiling.nocache_ns_per_instr", "ns"},
    {"profiling.clients_s", "s"},
    {"profiling.gcost_nodes", "count"},
    {"profiling.gcost_edges", "count"},
    {"profiling.build_bytes", "bytes"},
    {"profiling.seal_s", "s"},
    {"profiling.sealed_bytes", "bytes"},
    {"trace.record_s", "s"},
    {"trace.bytes_per_event", "bytes"},
    {"trace.replay_ns_per_event", "ns"},
    {"analysis.costmodel_s", "s"},
    {"analysis.report_s", "s"},
    {"analysis.dead_s", "s"},
    {"analysis.extras_s", "s"},
    {"analysis.opt_applied", "count"},
    {"analysis.opt_rolled_back", "count"},
    {"analysis.opt_useful_ratio", "ratio"},
    {"analysis.opt_second_engine_s", "s"},
    {"analysis.opt_instrs_saved_pct", "%"},
    {"service.feed_blocked_s", "s"},
    {"service.fold_s", "s"},
    {"service.render_s", "s"},
    {"service.http_s", "s"},
    {"service.sessions_opened", "count"},
    {"service.sessions_failed", "count"},
    {"self.workloads_s", "s"},
    {"self.ir_s", "s"},
    {"self.runtime_s", "s"},
    {"self.profiling_s", "s"},
    {"self.trace_s", "s"},
    {"self.analysis_s", "s"},
    {"self.service_s", "s"},
    {"bench.unattributed_pct", "%"},
    {"bench.span_overhead_pct", "%"},
};

/// State and results of one run.
class Run {
public:
  explicit Run(const Args &A);

  const Args &args() const { return A; }
  Tracer &tracer() { return T; }
  std::mt19937_64 &rng() { return Rng; }
  /// Scales a workload's defined size by --size (never below \p Floor).
  int64_t scaled(int64_t Full, int64_t Floor = 1) const;

  /// Runs \p Setup for a fixed share of --seconds, at least three times,
  /// and records the median as setup_s; each call replaces the previous
  /// call's products.
  void timeSetup(const std::function<void()> &Setup);

  /// Runs \p Work between two probe timings and returns the factor that
  /// turns wall seconds measured inside it into reference seconds. A
  /// traced run reports no end-to-end timing, so it does not probe, and
  /// the factor is 1.
  double referenceScale(const std::function<void()> &Work);

  /// Opens a measurement window of \p Share of the part of --seconds that
  /// set-up leaves.
  void startWindow(double Share = 1.0);
  /// True while the window is open, or until \p Min iterations ran.
  bool keepGoing(size_t Done, size_t Min) const;

  /// Records one checked operation; a false \p Ok counts as failed and
  /// keeps the first few diagnostics.
  void check(bool Ok, const std::string &What);

  void endToEnd(const std::string &Name, double Value);
  void perLayer(const std::string &Name, double Value);
  /// A workload-specific number printed for the reader beside the
  /// catalogued metrics (not part of the JSON result).
  void extra(const std::string &Name, double Value, const char *Unit);

  /// Fills the self.* and bench.* ledger rows from the traced passes
  /// (roots named "bench.pass") and the untraced pass times.
  void ledger(const std::vector<double> &UntracedPassSeconds);

  /// Prints the human-readable lines and the final JSON result line;
  /// returns the process exit code.
  int finish();

private:
  const Args &A;
  Tracer T;
  std::mt19937_64 Rng;
  Clock::time_point WindowEnd;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Diagnostics;
  std::map<std::string, double> E2E;
  std::map<std::string, double> Layer;
  std::vector<std::string> Extras;
};

/// The four workloads.
void runDeep(Run &R);
void runWide(Run &R);
void runServe(Run &R);
void runOptimize(Run &R);

/// FNV-1a 64 over \p Text: the report digest the output checks compare.
uint64_t digest(const std::string &Text);

/// The uninstrumented run of \p M on the reference Interpreter: the
/// observables every profiled or rewritten run is checked against.
lud::RunResult referenceRun(const lud::Module &M);

/// Build-side footprint of a profiled session: the sum of its mem.gcost.*,
/// mem.shadow.* and mem.profiler.* gauges.
double buildBytes(const lud::obs::MetricsRegistry &Reg);

/// Peak resident set of this process so far, MB.
double peakRssMb();

/// Shuffles \p V with the run's seeded generator (Fisher-Yates; the
/// standard shuffle's sequence is implementation-defined).
template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &G) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[G() % I]);
}

} // namespace ludbench

#endif // LUDBENCH_BENCH_H
