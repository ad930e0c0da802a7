//===- bench/BenchMain.cpp - Shared benchmark entry point -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Every bench_e* binary links this main instead of benchmark_main. On
// top of the normal google-benchmark console output it:
//
//   - writes a machine-readable per-experiment JSON file
//     (BENCH_<experiment>.json by default; --json=PATH or
//     OMM_BENCH_JSON=PATH to redirect, --no-json or OMM_BENCH_JSON=off
//     to disable) with every benchmark's simulated cycles and counters;
//   - accepts --trace=PATH (or OMM_TRACE=PATH) and exposes the path to
//     the benchmark bodies via omm::bench::traceOutputPath(), for
//     benches that can dump a Chrome trace of a representative run;
//   - exits 2 when zero benchmarks ran (a vacuous --filter must not
//     write an empty JSON that passes every downstream gate).
//
// Two invariants of this file make a --filter subset run comparable to
// the full sweep: rows appear in the JSON in registration order (the
// exact order --list prints), and each row's bytes depend only on that
// row's own deterministic run (see BenchUtil.h for the row-independence
// contract the bench bodies uphold; bench_cli_test checks both).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "trace/Json.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string TracePath;
std::string JsonPath;
bool JsonEnabled = true;
bool ListMode = false;

/// One benchmark result captured for the JSON file.
struct CapturedRun {
  std::string Name;
  int64_t Iterations = 0;
  double RealTime = 0; // Simulated cycles (manual-time channel).
  std::vector<std::pair<std::string, double>> Counters;
};

std::vector<CapturedRun> Captured;

/// Every JSON row carries p50/p95/p99 cycle percentiles so regression
/// gates can `--require p99_cycles` uniformly. Benches with per-repeat
/// samples report real percentiles (reportCyclePercentiles); for the
/// rest, one deterministic iteration means all percentiles equal the
/// single measurement, so they are synthesized from sim_cycles.
void synthesizePercentiles(CapturedRun &R) {
  for (const auto &[Name, Value] : R.Counters)
    if (Name == "p50_cycles" || Name == "p95_cycles" || Name == "p99_cycles")
      return;
  R.Counters.emplace_back("p50_cycles", R.RealTime);
  R.Counters.emplace_back("p95_cycles", R.RealTime);
  R.Counters.emplace_back("p99_cycles", R.RealTime);
}

/// Console output as usual, plus capture of every run for the JSON file.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      CapturedRun C;
      C.Name = R.benchmark_name();
      C.Iterations = static_cast<int64_t>(R.iterations);
      C.RealTime = R.GetAdjustedRealTime();
      for (const auto &KV : R.counters)
        C.Counters.emplace_back(KV.first, static_cast<double>(KV.second));
      synthesizePercentiles(C);
      Captured.push_back(std::move(C));
    }
    ConsoleReporter::ReportRuns(Runs);
  }
};

/// "bench/bench_e2_offload_frame" -> "e2_offload_frame".
std::string experimentName(const char *Argv0) {
  std::string Name = Argv0 ? Argv0 : "bench";
  size_t Slash = Name.find_last_of("/\\");
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  if (Name.rfind("bench_", 0) == 0)
    Name = Name.substr(6);
  return Name;
}

/// Owns the storage of arguments parseOwnFlags rewrites (argv keeps
/// pointers into these strings past the parse).
std::vector<std::string> RewrittenArgs;

/// Escapes \p Text so google-benchmark's regex filter matches it as a
/// literal substring.
std::string regexEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (std::strchr("\\^$.|?*+()[]{}", C))
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Strips --trace/--json/--no-json from argv (google-benchmark rejects
/// flags it does not know), records their values, and rewrites the
/// convenience flags --list and --filter <substring> into the
/// --benchmark_* spellings.
void parseOwnFlags(int &Argc, char **Argv) {
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      size_t Len = std::strlen(Flag);
      if (Arg.compare(0, Len, Flag) != 0)
        return nullptr;
      if (Arg.size() > Len && Arg[Len] == '=')
        return Argv[I] + Len + 1;
      if (Arg.size() == Len && I + 1 < Argc)
        return Argv[++I]; // Space-separated form consumes the next arg.
      return nullptr;
    };
    auto Rewrite = [&](std::string Replacement) {
      RewrittenArgs.push_back(std::move(Replacement));
      Argv[Out++] = RewrittenArgs.back().data();
    };
    if (Arg == "--no-json") {
      JsonEnabled = false;
    } else if (Arg == "--list") {
      ListMode = true;
      Rewrite("--benchmark_list_tests=true");
    } else if (Arg.rfind("--benchmark_list_tests", 0) == 0) {
      // The native spelling counts as list mode too; "=false" is the
      // only way to spell the flag without meaning it.
      ListMode = Arg.find("=false") == std::string::npos;
      Argv[Out++] = Argv[I];
    } else if (const char *V = Value("--filter")) {
      // Substring match, not regex: escape the metacharacters.
      Rewrite("--benchmark_filter=" + regexEscape(V));
    } else if (const char *V = Value("--trace")) {
      TracePath = V;
    } else if (const char *V = Value("--json")) {
      JsonPath = V;
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
}

void readEnvConfig() {
  if (const char *Env = std::getenv("OMM_TRACE"); Env && TracePath.empty())
    TracePath = Env;
  if (const char *Env = std::getenv("OMM_BENCH_JSON"); Env && *Env) {
    std::string Value = Env;
    if (Value == "0" || Value == "off" || Value == "none")
      JsonEnabled = false;
    else if (JsonPath.empty())
      JsonPath = Value;
  }
}

bool writeResultsJson(const std::string &Experiment,
                      const std::string &Path) {
  std::string Out;
  Out += "{\n  \"schema\": \"omm-bench-v1\",\n  \"experiment\": ";
  Out += omm::trace::jsonQuote(Experiment);
  Out += ",\n  \"time_unit\": \"simulated cycles\",\n  \"benchmarks\": [";
  bool First = true;
  for (const CapturedRun &R : Captured) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"name\": " + omm::trace::jsonQuote(R.Name);
    Out += ", \"iterations\": " + std::to_string(R.Iterations);
    Out += ", \"sim_cycles\": " + omm::trace::jsonNumber(R.RealTime);
    Out += ", \"counters\": {";
    bool FirstCounter = true;
    for (const auto &[Name, Value] : R.Counters) {
      if (!FirstCounter)
        Out += ", ";
      FirstCounter = false;
      Out += omm::trace::jsonQuote(Name) + ": " +
             omm::trace::jsonNumber(Value);
    }
    Out += "}}";
  }
  Out += "\n  ]\n}\n";

  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::fwrite(Out.data(), 1, Out.size(), File);
  std::fclose(File);
  return true;
}

} // namespace

const std::string &omm::bench::traceOutputPath() { return TracePath; }

int main(int Argc, char **Argv) {
  std::string Experiment = experimentName(Argc > 0 ? Argv[0] : nullptr);
  parseOwnFlags(Argc, Argv);
  readEnvConfig();

  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;

  CapturingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  // Listing rows is not a measurement: write no JSON (an empty file
  // would clobber a real BENCH_*.json in the working directory).
  if (ListMode)
    return 0;

  // A run that measured nothing must not look like a clean sweep: a
  // typo'd --filter would otherwise write an empty JSON and exit 0,
  // sailing through every downstream gate (the same vacuous-pass bug
  // bench_summary.py --require fixed for zero-match filters). Exit 2
  // to mirror that gate's failure status.
  if (Captured.empty()) {
    std::fprintf(stderr,
                 "error: no benchmarks ran (a --filter that matches "
                 "zero rows is an error; --list prints valid names)\n");
    return 2;
  }

  if (JsonEnabled) {
    std::string Path =
        JsonPath.empty() ? "BENCH_" + Experiment + ".json" : JsonPath;
    if (writeResultsJson(Experiment, Path)) {
      std::fprintf(stderr, "wrote %s (%zu benchmark results)\n",
                   Path.c_str(), Captured.size());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", Path.c_str());
      return 1;
    }
  }
  return 0;
}
