//===- ludbench/src/main.cpp - ludbench entry point ---------------------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   ludbench --workload deep|wide|serve|optimize --seed N [--seconds S]
///            [--trace 0|1] [--size PCT]
///
/// Prints one "metric" line per reported number, then, as the last line of
/// standard output, one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. A traced run writes its spans to spans.jsonl in the working
/// directory. Exits 0 only when every output check passed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

using namespace ludbench;

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr,
                 "ludbench: %s\nusage: ludbench --workload "
                 "deep|wide|serve|optimize --seed N [--seconds S] "
                 "[--trace 0|1] [--size PCT]\n",
                 Err.c_str());
    return 2;
  }
  Run R(A);
  R.tracer().setEnabled(A.Trace);
  if (A.Workload == "deep")
    runDeep(R);
  else if (A.Workload == "wide")
    runWide(R);
  else if (A.Workload == "serve")
    runServe(R);
  else
    runOptimize(R);
  return R.finish();
}
