//===- ludbench/src/Args.h - Benchmark command line -------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ludbench command line. Every number goes through std::from_chars and
/// must consume its whole argument: "12abc", "", "-1" and out-of-range
/// values are rejected with a diagnostic naming the option, never read as a
/// prefix or as zero.
///
//===----------------------------------------------------------------------===//

#ifndef LUDBENCH_ARGS_H
#define LUDBENCH_ARGS_H

#include <cstdint>
#include <string>

namespace ludbench {

struct Args {
  /// deep, wide, serve or optimize.
  std::string Workload;
  /// Shuffles program order; goes to every generator that takes a seed.
  uint64_t Seed = 0;
  /// Length of the measurement window.
  uint64_t Seconds = 10;
  /// Traced run: per-layer ledger instead of the end-to-end metrics.
  bool Trace = false;
  /// Workload size as a percentage of the defined size (1..100). Only the
  /// smoke test shrinks it; reported numbers are at 100.
  uint64_t SizePct = 100;
  /// Test hook: perturb every expected digest so each output check fails.
  bool CorruptDigest = false;
};

/// Parses argv; on failure returns false with \p Err set.
bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err);

} // namespace ludbench

#endif // LUDBENCH_ARGS_H
