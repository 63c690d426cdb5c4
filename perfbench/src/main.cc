// gvex_perf — the end-to-end benchmark binary. perfbench/run.py builds it
// and runs it inside a scratch directory (the Unix socket and the ingest
// journal live there):
//
//   gvex_perf --workload explain_mut|stream_red|ingest_mix
//             --seed N --seconds S --trace 0|1
//
// Human-readable lines go to stdout as the run proceeds; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see perfbench/README.md).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "bench.h"
#include "gvex/common/logging.h"

namespace {

// The end-to-end metrics every workload reports with tracing off.
const std::set<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "graphs_per_cpu_s", "fidelity_plus",
    "sparsity"};

int Usage() {
  std::fprintf(stderr,
               "usage: gvex_perf --workload "
               "explain_mut|stream_red|ingest_mix --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

void PrintResult(const perfbench::RunResult& result, bool trace) {
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  std::set<std::string> seen;
  for (const auto& m : result.metrics) {
    if ((kEndToEnd.count(m.name) != 0) == trace) continue;
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      std::exit(4);
    }
    if (!seen.insert(m.name).second) {
      std::fprintf(stderr, "metric %s reported twice\n", m.name.c_str());
      std::exit(4);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  if (!trace && seen != kEndToEnd) {
    std::fprintf(stderr, "an end-to-end metric is missing\n");
    std::exit(4);
  }
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();
  // Size the shared kernel pool so that no workload computes on more than
  // four threads: explain_mut's two explain threads share a pool of two;
  // the others run it inline. For the served reads this also matters for
  // steadiness: fanning each request out onto a four-thread pool shared by
  // both server workers made identical runs differ by 1.5x in capacity and
  // 2.6x in median latency on 4 cores (README.md).
  setenv("GVEX_NUM_THREADS", options.workload == "explain_mut" ? "2" : "1",
         1);
  // One malloc arena per core at most. By default glibc gives threads up to
  // 8 per core, and which threads shared one then decided how much freed
  // memory was reused: ingest_mix's peak RSS ranged 17.4-19.9 MB over five
  // seeds, against 15.3-15.6 MB with this cap (README.md).
  mallopt(M_ARENA_MAX, 4);
  gvex::SetLogLevel(gvex::LogLevel::kError);

  perfbench::RunResult result;
  const double start = perfbench::NowSeconds();
  const perfbench::CpuTicks ticks_before = perfbench::ReadCpuTicks();
  if (options.workload == "explain_mut") {
    perfbench::RunExplainMut(options, &result);
  } else if (options.workload == "stream_red") {
    perfbench::RunStreamRed(options, &result);
  } else if (options.workload == "ingest_mix") {
    perfbench::RunIngestMix(options, &result);
  } else {
    return Usage();
  }
  result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  // Time the hypervisor gave to other guests: a run with a high share was
  // measured on a slower machine.
  const perfbench::CpuTicks ticks_after = perfbench::ReadCpuTicks();
  const double steal_pct =
      ticks_after.total > ticks_before.total
          ? 100.0 * static_cast<double>(ticks_after.steal - ticks_before.steal) /
                static_cast<double>(ticks_after.total - ticks_before.total)
          : 0.0;
  result.Add("host.steal_pct", steal_pct, "pct");
  perfbench::Note("%s seed %llu: %.1f s wall, host steal %.1f%%, %llu "
                  "attempted, %llu failed%s",
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  perfbench::NowSeconds() - start, steal_pct,
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(result.failed),
                  result.correct ? "" : ", OUTPUT INCORRECT");
  PrintResult(result, options.trace);
  return 0;
}
