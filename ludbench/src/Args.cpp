//===- ludbench/src/Args.cpp - Benchmark command line ---------------------===//

#include "Args.h"

#include <charconv>
#include <system_error>

using namespace ludbench;

namespace {

/// Parses all of \p Text as a decimal integer in [Min, Max]; on failure
/// returns false with \p Err naming \p What.
bool parseNumber(const std::string &Text, const char *What, uint64_t Min,
                 uint64_t Max, uint64_t &Out, std::string &Err) {
  uint64_t V = 0;
  const char *Begin = Text.data(), *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Begin, End, V);
  if (Ec == std::errc::result_out_of_range) {
    Err = std::string(What) + " '" + Text + "' is out of range";
    return false;
  }
  if (Text.empty() || Ec != std::errc() || Ptr != End) {
    Err = std::string(What) + " '" + Text + "' is not a number";
    return false;
  }
  if (V < Min || V > Max) {
    Err = std::string(What) + " " + Text + " is outside [" +
          std::to_string(Min) + ", " + std::to_string(Max) + "]";
    return false;
  }
  Out = V;
  return true;
}

} // namespace

bool ludbench::parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Opt = Argv[I];
    if (Opt == "--corrupt-digest") {
      A.CorruptDigest = true;
      continue;
    }
    // Every other option takes a value, as "--opt value" or "--opt=value".
    std::string Val;
    size_t Eq = Opt.find('=');
    if (Eq != std::string::npos) {
      Val = Opt.substr(Eq + 1);
      Opt.resize(Eq);
    } else if (I + 1 < Argc) {
      Val = Argv[++I];
    } else {
      Err = "option '" + Opt + "' requires a value";
      return false;
    }
    uint64_t N = 0;
    if (Opt == "--workload") {
      if (Val != "deep" && Val != "wide" && Val != "serve" &&
          Val != "optimize") {
        Err = "unknown workload '" + Val +
              "' (expected deep, wide, serve or optimize)";
        return false;
      }
      A.Workload = Val;
      HaveWorkload = true;
    } else if (Opt == "--seed") {
      if (!parseNumber(Val, "--seed", 0, UINT64_MAX, A.Seed, Err))
        return false;
      HaveSeed = true;
    } else if (Opt == "--seconds") {
      if (!parseNumber(Val, "--seconds", 1, 3600, A.Seconds, Err))
        return false;
    } else if (Opt == "--trace") {
      if (!parseNumber(Val, "--trace", 0, 1, N, Err))
        return false;
      A.Trace = N == 1;
    } else if (Opt == "--size") {
      if (!parseNumber(Val, "--size", 1, 100, A.SizePct, Err))
        return false;
    } else {
      Err = "unknown option '" + Opt + "'";
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed) {
    Err = "--workload and --seed are required";
    return false;
  }
  return true;
}
