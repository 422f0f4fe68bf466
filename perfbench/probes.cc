// Machine ceilings (FMA peak, streaming bandwidth) and kernel timings at the
// traffic's shapes, so per-layer rates can be stated as a fraction of what
// this machine can do.

#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"
#include "opt/l1_projection.h"
#include "opt/quadratic_apg.h"
#include "rng/distributions.h"

namespace perfbench {

using lrm::linalg::Matrix;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Twelve independent FMA chains cover the FMA latency on two ports.
constexpr int kChains = 12;

__attribute__((target("avx512f"))) double FmaChains512(std::int64_t iters) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(1.0 + c);
  const __m512d x = _mm512_set1_pd(0.999999);
  const __m512d y = _mm512_set1_pd(1e-7);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], x, y);
  }
  alignas(64) double lanes[8];
  double sum = 0.0;
  for (int c = 0; c < kChains; ++c) {
    _mm512_store_pd(lanes, acc[c]);
    for (double v : lanes) sum += v;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double FmaChains256(std::int64_t iters) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(1.0 + c);
  const __m256d x = _mm256_set1_pd(0.999999);
  const __m256d y = _mm256_set1_pd(1e-7);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], x, y);
  }
  alignas(32) double lanes[4];
  double sum = 0.0;
  for (int c = 0; c < kChains; ++c) {
    _mm256_store_pd(lanes, acc[c]);
    sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return sum;
}

double FmaChainsScalar(std::int64_t iters) {
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 1.0 + c;
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999999 + 1e-7;
  }
  double sum = 0.0;
  for (int c = 0; c < kChains; ++c) sum += acc[c];
  return sum;
}

// Multiply-adds per iteration of the widest loop this CPU runs.
int Lanes() {
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return 4;
  return 1;
}

double FmaChains(std::int64_t iters) {
  switch (Lanes()) {
    case 8: return FmaChains512(iters);
    case 4: return FmaChains256(iters);
    default: return FmaChainsScalar(iters);
  }
}

// G multiply-adds/s with every hardware thread running FMA chains.
double MeasureFmaPeak() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t iters = 40'000'000 / Lanes();
  std::vector<double> best(threads, 0.0);
  std::vector<double> sink(threads, 0.0);
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&sink, t, iters] { sink[t] += FmaChains(iters); });
    }
    for (std::thread& w : workers) w.join();
    const double secs = Since(t0);
    const double madds =
        static_cast<double>(iters) * kChains * Lanes() * threads;
    best[0] = std::max(best[0], madds / secs / 1e9);
  }
  volatile double keep = sink[0];
  (void)keep;
  return best[0];
}

// GB/s of one thread summing an array at least 4× the last-level cache
// (448 MiB when the cache size is unknown).
double MeasureStreamBandwidth() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 0;
  const std::size_t bytes =
      std::max<std::size_t>(448ull << 20, 4ull * static_cast<std::size_t>(llc));
  std::vector<double> a(bytes / sizeof(double), 1.0);
  std::vector<double> rates;
  double sink = 0.0;
  for (int rep = 0; rep < 6; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::size_t n = a.size() & ~std::size_t{7};
    for (std::size_t i = 0; i < n; i += 8) {
      for (int k = 0; k < 8; ++k) s[k] += a[i + k];
    }
    const double secs = Since(t0);
    for (double v : s) sink += v;
    if (rep > 0) rates.push_back(static_cast<double>(bytes) / secs / 1e9);
  }
  volatile double keep = sink;
  (void)keep;
  return Median(rates);
}

Matrix RandomMatrix(lrm::rng::Engine& engine, Index rows, Index cols) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = lrm::rng::SampleGaussian(engine);
  }
  return m;
}

// Median per-call seconds of `fn`, repeated for at least `budget` seconds.
template <typename Fn>
double TimeCalls(double budget, Fn&& fn) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 ||
         (Since(start) < budget && samples.size() < 2000)) {
    samples.push_back(fn());
  }
  return Median(samples);
}

}  // namespace

Ceilings ProbeCeilings() {
  Ceilings c;
  c.fma_peak_gmadds = MeasureFmaPeak();
  c.stream_gbps = MeasureStreamBandwidth();
  return c;
}

KernelTimes ProbeKernels(Index r, Index n, std::uint64_t seed) {
  lrm::rng::Engine engine(seed);
  const Matrix g = RandomMatrix(engine, r, r);
  Matrix h(r, r);
  lrm::linalg::MultiplyAtBInto(g, g, &h);
  for (Index i = 0; i < r; ++i) {
    for (Index j = 0; j < r; ++j) h(i, j) /= static_cast<double>(r);
    h(i, i) += 0.1;
  }
  const Matrix t = RandomMatrix(engine, r, n);
  Matrix columns = RandomMatrix(engine, r, n);  // column L1 norms ≫ 1
  const Matrix start(r, n);
  const lrm::opt::MatrixProjection project = [](Matrix& x) {
    lrm::opt::ProjectColumnsOntoL1Ball(x, 1.0);
  };

  KernelTimes k;
  lrm::opt::QuadraticApgOptions apg;
  apg.max_iterations = 20;
  apg.tolerance = 0.0;
  lrm::opt::QuadraticApgWorkspace ws;
  k.apg_iter_us = TimeCalls(0.15, [&] {
    const Clock::time_point t0 = Clock::now();
    auto result = lrm::opt::QuadraticApg(h, t, project, start, apg, &ws);
    const double secs = Since(t0);
    const int iters = result.ok() ? std::max(1, result.value().iterations) : 1;
    return secs / iters;
  }) * 1e6;

  Matrix x;
  k.l1_projection_us = TimeCalls(0.1, [&] {
    x = columns;
    const Clock::time_point t0 = Clock::now();
    lrm::opt::ProjectColumnsOntoL1Ball(x, 1.0);
    return Since(t0);
  }) * 1e6;

  Matrix c(r, n);
  const double gemm_s = TimeCalls(0.1, [&] {
    const Clock::time_point t0 = Clock::now();
    lrm::linalg::GemmInto(1.0, h, false, columns, false, 0.0, &c);
    return Since(t0);
  });
  k.gemm_us = gemm_s * 1e6;
  k.gemm_gmadds = static_cast<double>(r) * r * n / gemm_s / 1e9;
  return k;
}

double ProbeLaplaceNs() {
  lrm::rng::Engine engine(12345);
  constexpr int kDraws = 1 << 20;
  std::vector<double> per_draw;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kDraws; ++i) {
      sink += lrm::rng::SampleLaplace(engine, 1.0);
    }
    per_draw.push_back(Since(t0) / kDraws * 1e9);
  }
  volatile double keep = sink;
  (void)keep;
  return Median(per_draw);
}

}  // namespace perfbench
