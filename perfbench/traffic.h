// Service-traffic benchmark: request generation shared by the untraced
// service run (serve.cc) and the traced layer replay (replay.cc).
//
// Every input — the data vector, each workload matrix, each arrival time —
// is a pure function of (workload name, seed), so the traced run replays
// exactly the requests the untraced run served.

#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "rng/engine.h"
#include "service/answer_service.h"
#include "workload/workload.h"

namespace perfbench {

using lrm::linalg::Index;
using WorkloadPtr = std::shared_ptr<const lrm::workload::Workload>;

/// Domain size n: the Search Logs surrogate merged to the paper's default
/// grid point.
inline constexpr Index kDomain = 512;
/// Privacy cost of every request (the paper's default ε).
inline constexpr double kEpsilon = 0.1;
/// Lifetime ε of every tenant: far more than any run spends, so no request
/// is refused for budget.
inline constexpr double kTenantBudget = 1e7;

/// cached-batch: open-loop Poisson rate (requests/s), about half the hit
/// capacity measured on a 4-core AVX-512 box, and the outstanding-request
/// window of its capacity phase.
inline constexpr double kCachedRate = 500.0;
inline constexpr int kCachedWindow = 8;
/// Share of the timed window spent in the open-loop phase (the rest is the
/// capacity phase).
inline constexpr double kCachedOpenShare = 0.75;

/// novel-batch: closed-loop clients (outstanding requests).
inline constexpr int kNovelClients = 2;

/// single-query: open-loop Poisson rate of single queries (queries/s) over
/// all tenants, and the size cut of the batcher.
inline constexpr double kQueryRate = 18.0;
inline constexpr Index kBatchQueries = 16;
inline constexpr int kQueryTenants = 2;

/// Extra releases drawn per distinct workload after the timed window (cache
/// hits) so noise_ratio pools enough Laplace draws to be steady.
inline constexpr int kAccuracyDraws = 64;

enum class WorkloadKind { kCachedBatch, kNovelBatch, kSingleQuery };

std::optional<WorkloadKind> ParseWorkload(const std::string& name);

/// The sensitive data: Search Logs surrogate merged to kDomain buckets.
lrm::linalg::Vector MakeData(std::uint64_t seed);

/// One batch tenant of cached-batch: a tenant name and the workload every
/// one of its requests carries.
struct Tenant {
  std::string name;
  WorkloadPtr workload;
};

/// The eight cached-batch tenants: fixed, distinct shapes (so every prewarm
/// is a cold prepare) and fixed entries. With only eight strategies in
/// play, seeded entries would make noise_ratio a property of the seed; the
/// seed drives the arrivals and the tenant of each request instead.
std::vector<Tenant> CachedTenants();

/// Seeded Poisson arrivals at `rate` over [0, window): exactly
/// round(rate·window) offsets (seconds) at sorted uniform times — a Poisson
/// process conditioned on its count, so every seed offers the same load.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate,
                                    double window);

/// A seeded uniform index stream (tenant picks).
class IndexStream {
 public:
  IndexStream(std::uint64_t seed, int size) : engine_(seed), size_(size) {}
  int Next();

 private:
  lrm::rng::Engine engine_;
  int size_;
};

/// cached-batch traffic: arrival offsets over `window` and the tenant of
/// each request.
std::vector<double> CachedArrivals(std::uint64_t seed, double window);
IndexStream CachedPicks(std::uint64_t seed);

/// novel-batch: the k-th request's workload. Shapes cycle through fixed
/// slots (five WRelated m ∈ [64, 256], s = 4 or 8, then one WRange or
/// WDiscrete m ∈ [8, 20]); each m pool is walked in a low-discrepancy
/// order, so every seed runs the same shape mix (the seed drives the
/// entries). No two workloads share m, so every request is a cold miss.
/// Returns nullptr once every m is used.
class NovelSequence {
 public:
  explicit NovelSequence(std::uint64_t seed);
  WorkloadPtr Next();
  int produced() const { return produced_; }

 private:
  Index TakeM(int pool, double* phase);

  std::uint64_t seed_;
  int produced_ = 0;
  std::vector<bool> used_;
  double related_phase_ = 0.0;
  double small_phase_ = 0.0;
};

/// single-query: one random range query [a, b] over the domain.
/// Each tenant's queries come in blocks of kBatchQueries whose range
/// lengths are stratified (one per 1/16 of the domain, in random order, at
/// a random offset), so every cut batch mixes short and long ranges alike.
/// A tenant's k-th query is the same for every seed (the seed drives the
/// arrival times and which tenant each arrival belongs to): with a few
/// dozen batches per run, seeded rows made noise_ratio a property of the
/// seed.
struct Query {
  double at = 0.0;  // scheduled offset (seconds)
  int tenant = 0;
  lrm::linalg::Vector row;
};

/// The single-query traffic of a `window`-second run, in arrival order.
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, double window);
  /// The next query, or nullopt once the window's arrivals are used up.
  std::optional<Query> Next();

 private:
  std::vector<double> arrivals_;
  std::size_t next_arrival_ = 0;
  lrm::rng::Engine tenant_engine_;
  // Per tenant: the row stream, the stratum order of the current block and
  // the position in it.
  std::vector<lrm::rng::Engine> row_engines_;
  std::vector<std::vector<int>> strata_;
  std::vector<int> next_;
};

std::string QueryTenantName(int tenant);

/// A 16×512 random-range workload used to warm the single-query cache in
/// set-up, so every timed batch is a warm-started miss.
WorkloadPtr RangeBatch(std::uint64_t seed, Index rows);

/// Stacks query rows into one workload (how the batcher cuts a group).
WorkloadPtr StackRows(const std::vector<lrm::linalg::Vector>& rows);

/// Expected total squared error of the better naive strategy (identity or
/// noise-on-results) for `w` at kEpsilon: the noise_ratio denominator.
double NaiveBaseline(const lrm::workload::Workload& w);

/// Squared distance between a release and the exact answers W·x.
double SquaredError(const lrm::linalg::Vector& released,
                    const lrm::linalg::Vector& exact);

/// Service options every workload uses: AnswerServiceOptions{} defaults,
/// with the single-query size cut where it applies.
lrm::service::AnswerServiceOptions ServiceOptions(WorkloadKind kind);

/// Order statistics helpers.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
