#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "data/dataset.h"
#include "rng/distributions.h"
#include "workload/generators.h"

namespace perfbench {

using lrm::linalg::Matrix;
using lrm::linalg::Vector;

namespace {

WorkloadPtr Share(lrm::StatusOr<lrm::workload::Workload> w) {
  if (!w.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 w.status().ToString().c_str());
    std::exit(2);
  }
  return std::make_shared<const lrm::workload::Workload>(*std::move(w));
}

// Stream seeds derived from the run seed, one per purpose.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + purpose;
  return lrm::rng::SplitMix64(state);
}

constexpr double kGolden = 0.6180339887498949;

// novel-batch m pools.
constexpr Index kRelatedMin = 64, kRelatedMax = 256;
constexpr Index kSmallMin = 8, kSmallMax = 20;

}  // namespace

std::optional<WorkloadKind> ParseWorkload(const std::string& name) {
  if (name == "cached-batch") return WorkloadKind::kCachedBatch;
  if (name == "novel-batch") return WorkloadKind::kNovelBatch;
  if (name == "single-query") return WorkloadKind::kSingleQuery;
  return std::nullopt;
}

Vector MakeData(std::uint64_t seed) {
  const lrm::data::Dataset raw = lrm::data::GenerateDataset(
      lrm::data::DatasetKind::kSearchLogs, Derive(seed, 1));
  auto merged = lrm::data::MergeToDomainSize(raw, kDomain);
  if (!merged.ok()) {
    std::fprintf(stderr, "MergeToDomainSize failed: %s\n",
                 merged.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(merged).value().counts;
}

std::vector<Tenant> CachedTenants() {
  using namespace lrm::workload;
  const std::uint64_t s = Derive(2012, 2);
  std::vector<Tenant> tenants;
  const Index related_m[] = {512, 448, 384, 320, 256, 192};
  for (int i = 0; i < 6; ++i) {
    tenants.push_back({"related-" + std::to_string(related_m[i]),
                       Share(GenerateWRelated(related_m[i], kDomain, 4,
                                              s + i))});
  }
  tenants.push_back({"range-10", Share(GenerateWRange(10, kDomain, s + 6))});
  tenants.push_back(
      {"discrete-8", Share(GenerateWDiscrete(8, kDomain, s + 7))});
  return tenants;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate,
                                    double window) {
  lrm::rng::Engine engine(seed);
  std::vector<double> at(static_cast<std::size_t>(std::lround(rate * window)));
  for (double& t : at) t = lrm::rng::SampleUniform(engine, 0.0, window);
  std::sort(at.begin(), at.end());
  return at;
}

int IndexStream::Next() {
  return static_cast<int>(lrm::rng::SampleUniformInt(engine_, 0, size_ - 1));
}

std::vector<double> CachedArrivals(std::uint64_t seed, double window) {
  return PoissonSchedule(Derive(seed, 7), kCachedRate, window);
}

IndexStream CachedPicks(std::uint64_t seed) {
  return IndexStream(Derive(seed, 8), 8);  // the eight CachedTenants
}

NovelSequence::NovelSequence(std::uint64_t seed)
    : seed_(Derive(seed, 3)), used_(kRelatedMax + 1, false) {}

Index NovelSequence::TakeM(int pool, double* phase) {
  const Index lo = pool == 0 ? kRelatedMin : kSmallMin;
  const Index hi = pool == 0 ? kRelatedMax : kSmallMax;
  const Index span = hi - lo + 1;
  *phase = std::fmod(*phase + kGolden, 1.0);
  const Index start = static_cast<Index>(*phase * span);
  for (Index k = 0; k < span; ++k) {
    const Index m = lo + (start + k) % span;
    if (!used_[m]) {
      used_[m] = true;
      return m;
    }
  }
  return 0;
}

WorkloadPtr NovelSequence::Next() {
  using namespace lrm::workload;
  // Slot cycle: WRelated s=4, s=4, s=8, s=4, s=4, then one small WRange or
  // WDiscrete (alternating by cycle). Most requests share one cost mode, so
  // the median sits inside it rather than in the gap between two. Once the
  // small pool is used up its slot draws from the WRelated pool.
  const int slot = produced_ % 6;
  const std::uint64_t content = seed_ + 1000 + produced_;
  Index m = slot == 5 ? TakeM(1, &small_phase_) : 0;
  const bool small = m != 0;
  if (!small) m = TakeM(0, &related_phase_);
  if (m == 0) return nullptr;
  const bool range = (produced_ / 6) % 2 == 0;
  ++produced_;
  if (!small) {
    return Share(GenerateWRelated(m, kDomain, slot == 2 ? 8 : 4, content));
  }
  return range ? Share(GenerateWRange(m, kDomain, content))
               : Share(GenerateWDiscrete(m, kDomain, content));
}

QueryStream::QueryStream(std::uint64_t seed, double window)
    : arrivals_(PoissonSchedule(Derive(seed, 4), kQueryRate, window)),
      tenant_engine_(Derive(seed, 5)),
      strata_(kQueryTenants, std::vector<int>(kBatchQueries)),
      next_(kQueryTenants, static_cast<int>(kBatchQueries)) {
  for (int t = 0; t < kQueryTenants; ++t) {
    row_engines_.emplace_back(Derive(2012, 10 + t));
  }
}

std::optional<Query> QueryStream::Next() {
  if (next_arrival_ == arrivals_.size()) return std::nullopt;
  Query q;
  q.at = arrivals_[next_arrival_++];
  q.tenant = static_cast<int>(
      lrm::rng::SampleUniformInt(tenant_engine_, 0, kQueryTenants - 1));
  lrm::rng::Engine& engine = row_engines_[q.tenant];
  std::vector<int>& strata = strata_[q.tenant];
  int& next = next_[q.tenant];
  if (next == static_cast<int>(kBatchQueries)) {
    // New block: a fresh random order of the strata (Fisher–Yates).
    for (int k = 0; k < static_cast<int>(kBatchQueries); ++k) strata[k] = k;
    for (int k = static_cast<int>(kBatchQueries) - 1; k > 0; --k) {
      std::swap(strata[k], strata[lrm::rng::SampleUniformInt(engine, 0, k)]);
    }
    next = 0;
  }
  const double u = lrm::rng::SampleUniform(engine, 0.0, 1.0);
  const Index length = 1 + static_cast<Index>(
      (strata[next++] + u) / static_cast<double>(kBatchQueries) *
      static_cast<double>(kDomain - 1));
  const Index a = lrm::rng::SampleUniformInt(engine, 0, kDomain - length);
  q.row = Vector(kDomain);
  for (Index j = a; j < a + length; ++j) q.row[j] = 1.0;
  return q;
}

std::string QueryTenantName(int tenant) {
  return "query-" + std::to_string(tenant);
}

WorkloadPtr RangeBatch(std::uint64_t seed, Index rows) {
  return Share(lrm::workload::GenerateWRange(rows, kDomain, Derive(seed, 6)));
}

WorkloadPtr StackRows(const std::vector<Vector>& rows) {
  Matrix w(static_cast<Index>(rows.size()), kDomain);
  for (Index i = 0; i < w.rows(); ++i) {
    for (Index j = 0; j < kDomain; ++j) w(i, j) = rows[i][j];
  }
  return std::make_shared<const lrm::workload::Workload>("batch",
                                                         std::move(w));
}

double NaiveBaseline(const lrm::workload::Workload& w) {
  return std::min(lrm::workload::ExpectedErrorNoiseOnData(w, kEpsilon),
                  lrm::workload::ExpectedErrorNoiseOnResults(w, kEpsilon));
}

double SquaredError(const Vector& released, const Vector& exact) {
  double sum = 0.0;
  for (Index i = 0; i < exact.size(); ++i) {
    const double d = released[i] - exact[i];
    sum += d * d;
  }
  return sum;
}

lrm::service::AnswerServiceOptions ServiceOptions(WorkloadKind kind) {
  lrm::service::AnswerServiceOptions options;
  if (kind == WorkloadKind::kSingleQuery) {
    options.max_batch_queries = kBatchQueries;
  }
  return options;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace perfbench
