//===- tools/CliOptions.cpp - Declarative command-line options -------------===//

#include "tools/CliOptions.h"

#include "ir/Parser.h"
#include "obs/Metrics.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "trace/TraceIO.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>

using namespace lud;
using namespace lud::cli;

void OptionSet::flag(std::string Name, bool &B, std::string Help) {
  Options.push_back({std::move(Name), std::move(Help), ValueMode::None,
                     [&B](const std::string &) {
                       B = true;
                       return true;
                     }});
}

void OptionSet::str(std::string Name, std::string &V, std::string Help) {
  Options.push_back({std::move(Name), std::move(Help), ValueMode::Required,
                     [&V](const std::string &S) {
                       V = S;
                       return true;
                     }});
}

void OptionSet::custom(std::string Name, ValueMode Mode, std::string Help,
                       std::function<bool(const std::string &)> Fn) {
  Options.push_back({std::move(Name), std::move(Help), Mode, std::move(Fn)});
}

void OptionSet::addNumber(std::string Name, std::string Help, int64_t Min,
                          int64_t Lo, int64_t Hi,
                          std::function<void(int64_t)> Store) {
  std::string N = Name;
  Options.push_back(
      {std::move(Name), std::move(Help), ValueMode::Required,
       [N, Min, Lo, Hi, Store = std::move(Store)](const std::string &S) {
         // Full-consumption parse: "12abc", "abc", and "" are errors, not
         // silent prefixes, and out-of-range values are diagnosed rather
         // than saturated or truncated into the field's type.
         int64_t V = 0;
         auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
         if (Ec == std::errc::result_out_of_range) {
           errs() << "option '" << N << "' value '" << S
                  << "' is out of range\n";
           return false;
         }
         if (Ec != std::errc() || Ptr != S.data() + S.size()) {
           errs() << "option '" << N << "' wants an integer, got '" << S
                  << "'\n";
           return false;
         }
         if (V < Min) {
           if (Min == 1)
             errs() << "option '" << N << "' requires a positive value\n";
           else
             errs() << "option '" << N << "' requires a value >= " << Min
                    << "\n";
           return false;
         }
         if (V < Lo || V > Hi) {
           errs() << "option '" << N << "' value '" << S
                  << "' is out of range\n";
           return false;
         }
         Store(V);
         return true;
       }});
}

const OptionSet::Option *OptionSet::findOption(const std::string &Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

bool OptionSet::parse(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.size() < 2 || A[0] != '-') {
      Positional.push_back(std::move(A));
      continue;
    }
    // Built-in informational options, shared by every tool. Exact-match
    // only: `--help=x` falls through to the unknown-option diagnostic.
    if (A == "--help") {
      usage(outs());
      ExitNow = true;
      return true;
    }
    if (A == "--version") {
      outs() << Tool << " (lud) " << kVersionString << "\n";
      ExitNow = true;
      return true;
    }
    size_t Eq = A.find('=');
    bool HasEq = Eq != std::string::npos;
    std::string Name = HasEq ? A.substr(0, Eq) : A;
    const Option *O = findOption(Name);
    if (!O) {
      errs() << "unknown option '" << Name << "'\n";
      return false;
    }
    std::string Value;
    switch (O->Mode) {
    case ValueMode::None:
      if (HasEq) {
        errs() << "option '" << Name << "' does not take a value\n";
        return false;
      }
      break;
    case ValueMode::Required:
      if (HasEq) {
        Value = A.substr(Eq + 1);
      } else if (I + 1 < argc) {
        Value = argv[++I];
      } else {
        errs() << "option '" << Name << "' requires an argument\n";
        return false;
      }
      break;
    case ValueMode::Optional:
      if (HasEq)
        Value = A.substr(Eq + 1);
      break;
    }
    if (!O->Fn(Value))
      return false;
  }
  return true;
}

void cli::clientsOption(OptionSet &P, ClientSet &Set, std::string Help) {
  P.custom("--clients", ValueMode::Required, std::move(Help),
           [&Set](const std::string &List) {
             std::string Err;
             if (parseClientSet(List, Set, Err))
               return true;
             errs() << Err << "\n";
             return false;
           });
}

void cli::engineOption(OptionSet &P, EngineKind &E) {
  P.custom("--engine", ValueMode::Required,
           "E  execution backend: interp (reference) or threaded (fast; "
           "default from LUD_ENGINE)",
           [&E](const std::string &V) {
             if (parseEngineKind(V, E))
               return true;
             errs() << "unknown engine '" << V
                    << "' (valid: " << validEngineNames() << ")\n";
             return false;
           });
}

void cli::statsOptions(OptionSet &P, StatsOptions &S) {
  P.custom("--stats", ValueMode::Optional,
           "[=json|csv]  emit the profiler's own telemetry (default: text)",
           [&S](const std::string &V) {
             if (V.empty())
               S.Format = StatsFormat::Text;
             else if (V == "json")
               S.Format = StatsFormat::Json;
             else if (V == "csv")
               S.Format = StatsFormat::Csv;
             else {
               errs() << "option '--stats' expects 'json' or 'csv'\n";
               return false;
             }
             return true;
           });
  P.str("--stats-out", S.OutPath,
        "F  write the telemetry to file F instead of stdout");
}

bool cli::writeStats(const obs::MetricsRegistry *R, const StatsOptions &S) {
  if (!R || !S.enabled())
    return true;
  std::FILE *F = stdout;
  if (!S.OutPath.empty() && !(F = std::fopen(S.OutPath.c_str(), "wb"))) {
    errs() << "cannot write '" << S.OutPath << "'\n";
    return false;
  }
  {
    FileOutStream FOS(F);
    if (S.Format == StatsFormat::Json)
      R->writeJson(FOS);
    else if (S.Format == StatsFormat::Csv)
      R->writeCsv(FOS);
    else
      R->writeText(FOS);
  }
  if (F != stdout)
    std::fclose(F);
  return true;
}

bool cli::dumpGraph(const FrozenGraph &FG, const std::string &Path,
                    OutStream &OS) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    errs() << "cannot write '" << Path << "'\n";
    return false;
  }
  {
    FileOutStream FOS(F);
    writeGraph(FG, FOS);
  }
  std::fclose(F);
  OS << "Gcost written to " << Path << "\n";
  return true;
}

std::unique_ptr<Module> cli::loadProgram(const std::string &Path) {
  std::string Text;
  if (!trace::readFileBytes(Path, Text)) {
    errs() << "cannot read '" << Path << "'\n";
    return nullptr;
  }
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(Text, Errors);
  if (!M)
    for (const std::string &E : Errors)
      errs() << Path << ": " << E << "\n";
  return M;
}

std::unique_ptr<Module> cli::buildNamedWorkload(const std::string &Name,
                                                int64_t Scale) {
  if (Name == "composed")
    return std::move(buildComposedWorkload(Scale).M);
  const std::vector<std::string> &Names = dacapoNames();
  if (std::find(Names.begin(), Names.end(), Name) != Names.end())
    return std::move(buildWorkload(Name, Scale).M);
  errs() << "unknown workload '" << Name
         << "' (expected a DaCapo analogue or 'composed')\n";
  return nullptr;
}

void OptionSet::usage() const { usage(errs()); }

void OptionSet::usage(OutStream &OS) const {
  OS << "usage: " << Tool << " [options] " << Operands << "\n";
  size_t Width = sizeof("--version") - 1;
  for (const Option &O : Options)
    Width = O.Name.size() > Width ? O.Name.size() : Width;
  auto Line = [&](const std::string &Name, std::string_view Help) {
    OS << "  " << Name;
    for (size_t P = Name.size(); P != Width + 2; ++P)
      OS << " ";
    OS << Help << "\n";
  };
  for (const Option &O : Options)
    Line(O.Name, O.Help);
  Line("--help", "print this help and exit");
  Line("--version", "print the version and exit");
}
