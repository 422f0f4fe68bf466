// Service-traffic benchmark: the two runs (untraced service traffic, traced
// layer replay), the machine/kernel probes, and the result they report.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "traffic.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the final JSON line's fields plus the failed
/// output checks (each one makes the run incorrect).
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  bool correct() const { return check_failures.empty(); }
  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Service-layer figures the traced run takes from real service traffic
/// (the replay has no worker pool to queue on).
struct ServiceLayerStats {
  double submit_us = 0.0;     // median Submit/SubmitQuery call
  double queue_ms_p50 = 0.0;  // latency − prepare_seconds − answer_seconds
  double queue_ms_p99 = 0.0;
};

/// The untraced run: set-up (repeated, median reported as setup_s), the
/// timed traffic through AnswerService, output checks and end-to-end
/// metrics. With `layer` set it instead runs one set-up and a shortened
/// open-loop window and fills the service-layer figures (traced run).
RunResult RunService(WorkloadKind kind, std::uint64_t seed, double seconds,
                     ServiceLayerStats* layer);

/// The traced run: service-layer figures from a short service window, then
/// a serial replay of the same requests through each layer's public calls
/// with a span around every call, plus the ceiling and kernel probes.
/// Writes the spans (JSON lines) to `trace_path`.
RunResult RunTraced(WorkloadKind kind, std::uint64_t seed, double seconds,
                    const std::string& trace_path);

// --- Probes (probes.cc) ---

struct Ceilings {
  double fma_peak_gmadds = 0.0;  // all hardware threads, G multiply-adds/s
  double stream_gbps = 0.0;      // one thread streaming ≥ 4× the LLC
};
Ceilings ProbeCeilings();

struct KernelTimes {
  double apg_iter_us = 0.0;
  double l1_projection_us = 0.0;
  double gemm_us = 0.0;
  double gemm_gmadds = 0.0;
};
/// Times one QuadraticApg iteration, one ProjectColumnsOntoL1Ball and one
/// H·L GemmInto (r×r times r×n) at the given shape.
KernelTimes ProbeKernels(Index r, Index n, std::uint64_t seed);

/// Nanoseconds per rng::SampleLaplace draw.
double ProbeLaplaceNs();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
