// lrm_traffic_bench: service-traffic benchmark for the low-rank mechanism.
//
//   lrm_traffic_bench --workload cached-batch|novel-batch|single-query
//                     --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 drives AnswerService and prints the end-to-end metrics;
// --trace 1 replays the same requests layer by layer and prints the
// per-layer metrics, writing the spans under --trace-dir. The last line of
// standard output is one JSON object; the exit code is non-zero when any
// output check failed. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lrm_traffic_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

void PrintJson(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    // JSON has no NaN/Inf; a non-finite figure is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_dir = ".bench_out";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  const auto kind = perfbench::ParseWorkload(workload);
  if (!kind || seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const auto s = static_cast<std::uint64_t>(seed);
  const perfbench::RunResult result =
      trace == 0 ? perfbench::RunService(*kind, s, seconds, nullptr)
                 : perfbench::RunTraced(*kind, s, seconds,
                                        trace_dir + "/" + workload + "-seed" +
                                            std::to_string(seed) + ".jsonl");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintJson(result);
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
