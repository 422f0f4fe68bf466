// The traced run. Service-layer figures come from a short window of real
// service traffic; everything else from a serial replay of the same
// requests through each layer's public calls, in the service's order:
//
//   BudgetManager::Charge → [QueryBatcher::Add, TakeReady] →
//   FingerprintWorkload → (miss: DecompositionSolver phases) →
//   PreparedMechanismCache::GetOrPrepare → Mechanism::Answer
//
// with a span around every call. On a miss the replay drives the solver
// phases itself (seeded with the donor's factors on a warm miss, exactly as
// the cache does) and then lets GetOrPrepare run its own strategy search to
// install the entry, so a traced miss costs two solves. The replayed
// decomposition is compared with the cache's: the phases reproduce Solve().

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bench.h"
#include "core/alm_solver.h"
#include "service/batcher.h"
#include "service/budget_manager.h"
#include "service/fingerprint.h"
#include "service/prepared_cache.h"

namespace perfbench {

using lrm::StatusOr;
using lrm::linalg::Vector;
using lrm::service::WorkloadFingerprint;

namespace {

using Clock = std::chrono::steady_clock;

// Share of the traced run's window given to the service-layer window; the
// rest goes to the replay.
constexpr double kServiceShare = 0.35;

// Spans of one thread. Each span records name, start, end, parent and
// request id; they stay in memory until the run writes them out. Callers
// pass the timestamps, so back-to-back calls share one clock read: a span
// that begins where its sibling ended leaves no gap for the tracer's own
// overhead to show up as unattributed time.
class Trace {
 public:
  struct Span {
    const char* name;
    std::int64_t request;
    int parent;
    Clock::time_point start, end;
  };

  // Reserved up front so a growing buffer never copies inside a span.
  Trace() { spans_.reserve(1 << 18); }

  int Begin(const char* name, std::int64_t request, int parent,
            Clock::time_point at) {
    spans_.push_back({name, request, parent, at, at});
    return static_cast<int>(spans_.size()) - 1;
  }
  Clock::time_point End(int id, Clock::time_point at) {
    spans_[id].end = at;
    return at;
  }
  double Seconds(int id) const {
    return std::chrono::duration<double>(spans_[id].end - spans_[id].start)
        .count();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// What one replayed prepare reports, accuracy next to timing.
struct PrepareRecord {
  std::int64_t request = 0;
  Index m = 0, r = 0;
  bool warm = false;
  bool converged = false;
  double residual_over_gamma = 0.0;
  double expected_noise_ratio = 0.0;  // Lemma 1 error / better naive
  int alternations = 0;
  double solve_s = 0.0, init_s = 0.0, alternation_s = 0.0,
         bookkeeping_s = 0.0;
  bool matches_cache = true;
  std::vector<double> alternation_calls;  // seconds per RunAlternation
  std::string failure;
};

// Per-layer samples gathered while replaying.
struct Samples {
  std::vector<double> batcher_add_s, batcher_fill_s, batcher_rows;
  std::vector<double> fingerprint_s, lookup_s, answer_s, alternation_s;
  double fingerprint_bytes = 0.0, fingerprint_total_s = 0.0;
  std::vector<PrepareRecord> prepares;
  std::vector<double> unattributed;  // per request
  std::int64_t requests = 0, failed = 0;
  std::vector<std::string> failures;

  void Fail(std::string what) {
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
  void Merge(Samples&& o) {
    auto cat = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(batcher_add_s, o.batcher_add_s);
    cat(batcher_fill_s, o.batcher_fill_s);
    cat(batcher_rows, o.batcher_rows);
    cat(fingerprint_s, o.fingerprint_s);
    cat(lookup_s, o.lookup_s);
    cat(answer_s, o.answer_s);
    cat(alternation_s, o.alternation_s);
    cat(unattributed, o.unattributed);
    fingerprint_bytes += o.fingerprint_bytes;
    fingerprint_total_s += o.fingerprint_total_s;
    prepares.insert(prepares.end(), o.prepares.begin(), o.prepares.end());
    requests += o.requests;
    failed += o.failed;
    for (std::string& f : o.failures) Fail(std::move(f));
  }
};

// Unattributed share of request root `root`: its duration minus the part
// its direct children cover (they never overlap: the replay is serial).
double Unattributed(const Trace& trace, int root) {
  const auto& spans = trace.spans();
  const double total =
      std::chrono::duration<double>(spans[root].end - spans[root].start)
          .count();
  double covered = 0.0;
  for (std::size_t i = root + 1; i < spans.size(); ++i) {
    if (spans[i].parent == root) {
      covered +=
          std::chrono::duration<double>(spans[i].end - spans[i].start).count();
    }
  }
  return total > 0.0 ? (total - covered) / total : 0.0;
}

// The replay's own copy of the service stack: ledger, batcher, cache. The
// cache gets the service's cache options, so it prepares exactly what the
// service would.
class Replayer {
 public:
  Replayer(WorkloadKind kind, std::uint64_t seed)
      : seed_(seed),
        data_(MakeData(seed)),
        cache_options_(ServiceOptions(kind).cache),
        cache_(cache_options_),
        batcher_(BatcherOptions(kind)) {}

  lrm::service::BudgetManager& budget() { return budget_; }
  lrm::service::PreparedCacheStats cache_stats() const {
    return cache_.stats();
  }

  // One batch request: charge, fingerprint, solve on a miss, cache, answer.
  // Samples are recorded after the request's root span closes, so the
  // replay's own bookkeeping stays out of the layer timings.
  void Batch(Trace& trace, Samples& out, std::int64_t request,
             const std::string& tenant, const WorkloadPtr& w,
             double epsilon) {
    ++out.requests;
    lrm::rng::Engine engine(seed_ ^ (static_cast<std::uint64_t>(request) *
                                     0x9E3779B97F4A7C15ULL));
    Clock::time_point t = Clock::now();
    const int root = trace.Begin("request", request, -1, t);
    int id = trace.Begin("budget.charge", request, root, t);
    const lrm::Status charged = budget_.Charge(tenant, epsilon);
    t = trace.End(id, Clock::now());

    id = trace.Begin("fingerprint", request, root, t);
    const WorkloadFingerprint fp = lrm::service::FingerprintWorkload(*w);
    trace.End(id, Clock::now());
    const double fingerprint_s = trace.Seconds(id);

    // The replay's own bookkeeping: whether the cache holds this workload
    // and, on a miss, which entry it will warm-start from. Not a layer, so
    // it stays outside every child span.
    std::shared_ptr<const lrm::core::LowRankMechanism> donor;
    bool predicted_hit = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      predicted_hit = known_.count(fp) > 0;
      if (!predicted_hit && cache_options_.warm_start_misses) {
        auto it = mru_by_shape_.find({fp.rows, fp.cols});
        if (it != mru_by_shape_.end()) donor = it->second;
      }
    }
    std::optional<lrm::core::Decomposition> replayed;
    PrepareRecord record;
    if (!predicted_hit) {
      replayed = Solve(trace, request, root, *w, donor.get(), &record);
    }

    id = trace.Begin("cache.get_or_prepare", request, root, Clock::now());
    StatusOr<lrm::service::PreparedLease> lease = cache_.GetOrPrepare(w);
    t = trace.End(id, Clock::now());
    const double cache_s = trace.Seconds(id);

    StatusOr<Vector> answer = lrm::Status::Internal("no lease");
    double answer_s = 0.0;
    if (lease.ok()) {
      id = trace.Begin("mechanism.answer", request, root, t);
      answer = lease.value().mechanism->Answer(data_, epsilon, engine);
      t = trace.End(id, Clock::now());
      answer_s = trace.Seconds(id);
    }
    trace.End(root, t);

    out.unattributed.push_back(Unattributed(trace, root));
    out.fingerprint_s.push_back(fingerprint_s);
    out.fingerprint_total_s += fingerprint_s;
    out.fingerprint_bytes +=
        static_cast<double>(w->num_queries()) * w->domain_size() * 8.0;
    if (lease.ok()) out.answer_s.push_back(answer_s);
    if (!record.failure.empty()) out.Fail(record.failure);
    if (!charged.ok() || !lease.ok() || !answer.ok()) {
      ++out.failed;
      out.Fail("replayed request " + std::to_string(request) + " failed: " +
               (!charged.ok() ? charged
                : !lease.ok() ? lease.status()
                              : answer.status())
                   .ToString());
      return;
    }
    const auto& mechanism = lease.value().mechanism;
    if (lease.value().cache_hit != predicted_hit) {
      out.Fail("replay predicted a cache " +
               std::string(predicted_hit ? "hit" : "miss") + " but got the " +
               "other");
    }
    if (predicted_hit) out.lookup_s.push_back(cache_s - fingerprint_s);
    if (answer.value().size() != w->num_queries()) {
      out.Fail("replayed answer has the wrong length");
    }
    for (Index i = 0; i < answer.value().size(); ++i) {
      if (!std::isfinite(answer.value()[i])) {
        out.Fail("replayed answer is not finite");
        break;
      }
    }
    if (replayed) {
      const lrm::core::Decomposition& d = mechanism->decomposition();
      record.matches_cache = d.scale == replayed->scale &&
                             d.residual == replayed->residual &&
                             d.outer_iterations == replayed->outer_iterations;
      out.alternation_s.insert(out.alternation_s.end(),
                               record.alternation_calls.begin(),
                               record.alternation_calls.end());
      out.prepares.push_back(std::move(record));
    }
    std::lock_guard<std::mutex> lock(mu_);
    known_.insert(fp);
    mru_by_shape_[{fp.rows, fp.cols}] = mechanism;
  }

  // A single query through the batcher; returns the batch it completed.
  std::vector<lrm::service::QueryBatcher::ReadyBatch> Query(
      Trace& trace, Samples& out, std::int64_t request, const Query& q) {
    ++out.requests;
    const std::string tenant = QueryTenantName(q.tenant);
    Clock::time_point t = Clock::now();
    const int root = trace.Begin("request", request, -1, t);
    int id = trace.Begin("batcher.add", request, root, t);
    auto ticket = batcher_.Add(tenant, kEpsilon, q.row);
    t = trace.End(id, Clock::now());
    const double add_s = trace.Seconds(id);
    id = trace.Begin("batcher.take_ready", request, root, t);
    auto ready = batcher_.TakeReady();
    t = trace.End(id, Clock::now());
    trace.End(root, t);
    out.batcher_add_s.push_back(add_s);
    out.unattributed.push_back(Unattributed(trace, root));
    if (!ticket.ok()) {
      ++out.failed;
      out.Fail("QueryBatcher::Add failed: " + ticket.status().ToString());
    }
    return ready;
  }

 private:
  static lrm::service::QueryBatcherOptions BatcherOptions(WorkloadKind kind) {
    lrm::service::QueryBatcherOptions options;
    options.domain_size = kDomain;
    options.max_batch_queries = ServiceOptions(kind).max_batch_queries;
    return options;
  }

  // The solver phases of DecompositionSolver::Solve, one span each.
  std::optional<lrm::core::Decomposition> Solve(
      Trace& trace, std::int64_t request, int root,
      const lrm::workload::Workload& w,
      const lrm::core::LowRankMechanism* donor, PrepareRecord* record) {
    const lrm::core::DecompositionOptions& options =
        cache_options_.mechanism.decomposition;
    lrm::core::DecompositionSolver solver(options);
    Clock::time_point t = Clock::now();
    const int solve = trace.Begin("core.solve", request, root, t);
    int id = 0;
    if (donor != nullptr) {
      id = trace.Begin("core.seed", request, solve, t);
      const lrm::Status seeded = solver.SeedFactors(
          donor->decomposition().b, donor->decomposition().l);
      t = trace.End(id, Clock::now());
      if (!seeded.ok()) record->failure = "SeedFactors: " + seeded.ToString();
    }
    id = trace.Begin("core.init", request, solve, t);
    StatusOr<lrm::core::AlmState> state = solver.InitializeState(w.matrix());
    t = trace.End(id, Clock::now());
    record->init_s = trace.Seconds(id);
    if (!state.ok()) {
      trace.End(solve, t);
      record->failure = "InitializeState: " + state.status().ToString();
      return std::nullopt;
    }
    lrm::core::AlmState& s = state.value();
    record->alternation_calls.reserve(options.max_outer_iterations);
    for (int outer = 1; outer <= options.max_outer_iterations; ++outer) {
      id = trace.Begin("core.alternation", request, solve, t);
      const lrm::Status alt = solver.RunAlternation(w.matrix(), &s);
      t = trace.End(id, Clock::now());
      const double alt_s = trace.Seconds(id);
      record->alternation_calls.push_back(alt_s);
      record->alternation_s += alt_s;
      ++record->alternations;
      if (!alt.ok()) {
        trace.End(solve, t);
        record->failure = "RunAlternation: " + alt.ToString();
        return std::nullopt;
      }
      id = trace.Begin("core.bookkeeping", request, solve, t);
      const auto action =
          solver.RecordIterateAndAdvanceSchedule(w.matrix(), &s);
      t = trace.End(id, Clock::now());
      record->bookkeeping_s += trace.Seconds(id);
      if (action == lrm::core::DecompositionSolver::OuterAction::kStop) break;
    }
    id = trace.Begin("core.finalize", request, solve, t);
    const bool warm = s.warm_started;
    lrm::core::Decomposition d = solver.Finalize(&s);
    t = trace.End(id, Clock::now());
    trace.End(solve, t);
    record->solve_s = trace.Seconds(solve);
    record->request = request;
    record->m = w.num_queries();
    record->r = d.l.rows();
    record->warm = warm;
    record->converged = d.converged;
    record->residual_over_gamma = d.residual / options.gamma;
    record->expected_noise_ratio =
        d.ExpectedNoiseError(kEpsilon) / NaiveBaseline(w);
    return d;
  }

  std::uint64_t seed_;
  Vector data_;
  lrm::service::PreparedCacheOptions cache_options_;
  lrm::service::BudgetManager budget_;
  lrm::service::PreparedMechanismCache cache_;
  lrm::service::QueryBatcher batcher_;

  // What the replay knows the cache holds: the fingerprints it installed
  // and, per shape, the most recently used mechanism (the cache's donor).
  std::mutex mu_;
  std::unordered_set<WorkloadFingerprint,
                     lrm::service::WorkloadFingerprintHash>
      known_;
  std::map<std::pair<Index, Index>,
           std::shared_ptr<const lrm::core::LowRankMechanism>>
      mru_by_shape_;
};

void WriteTrace(const std::string& path, const std::vector<Trace>& traces,
                const std::vector<PrepareRecord>& prepares,
                Clock::time_point origin, Samples* out) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream f(path);
  if (!f) {
    out->Fail("cannot write spans to " + path);
    return;
  }
  f.setf(std::ios::fixed);
  f.precision(3);
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& spans = traces[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      f << "{\"thread\": " << t << ", \"id\": " << i
        << ", \"parent\": " << spans[i].parent
        << ", \"request\": " << spans[i].request << ", \"name\": \""
        << spans[i].name << "\", \"start_us\": " << us(spans[i].start)
        << ", \"end_us\": " << us(spans[i].end) << "}\n";
    }
  }
  for (const PrepareRecord& p : prepares) {
    f << "{\"prepare\": {\"request\": " << p.request << ", \"m\": " << p.m
      << ", \"r\": " << p.r << ", \"warm\": " << (p.warm ? "true" : "false")
      << ", \"converged\": " << (p.converged ? "true" : "false")
      << ", \"residual_over_gamma\": " << p.residual_over_gamma
      << ", \"expected_noise_ratio\": " << p.expected_noise_ratio
      << ", \"alternations\": " << p.alternations
      << ", \"solve_ms\": " << p.solve_s * 1e3
      << ", \"init_ms\": " << p.init_s * 1e3
      << ", \"matches_cache\": " << (p.matches_cache ? "true" : "false")
      << "}}\n";
  }
}

}  // namespace

RunResult RunTraced(WorkloadKind kind, std::uint64_t seed, double seconds,
                    const std::string& trace_path) {
  // Service-layer figures from real traffic (the replay has no pool).
  ServiceLayerStats layer;
  RunResult out =
      RunService(kind, seed, seconds * kServiceShare, &layer);
  out.metrics.clear();

  const Clock::time_point origin = Clock::now();
  Replayer replayer(kind, seed);
  std::vector<Trace> traces(1);
  Samples samples;
  std::int64_t request = 0;
  auto register_tenant = [&](const std::string& name) {
    const lrm::Status st =
        replayer.budget().RegisterTenant(name, kTenantBudget);
    if (!st.ok()) samples.Fail("RegisterTenant: " + st.ToString());
  };

  // Set-up: the prewarm prepares (traced, so cached-batch reports the
  // init/ALM figures of its set-up).
  std::vector<Tenant> tenants;
  if (kind == WorkloadKind::kCachedBatch) {
    tenants = CachedTenants();
    for (const Tenant& t : tenants) register_tenant(t.name);
    // Eight cold prepares replayed twice each (replay + install) are too
    // slow serially; four threads each replay two, on their own traces.
    constexpr int kPrewarmThreads = 4;
    std::vector<Trace> prewarm_traces(kPrewarmThreads);
    std::vector<Samples> prewarm_samples(kPrewarmThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kPrewarmThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < tenants.size(); i += kPrewarmThreads) {
          replayer.Batch(prewarm_traces[t], prewarm_samples[t],
                         -1 - static_cast<std::int64_t>(i), tenants[i].name,
                         tenants[i].workload, kEpsilon);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kPrewarmThreads; ++t) {
      samples.Merge(std::move(prewarm_samples[t]));
      traces.push_back(std::move(prewarm_traces[t]));
    }
    // The prewarm's lookups are not the hit path.
    samples.fingerprint_s.clear();
    samples.fingerprint_bytes = samples.fingerprint_total_s = 0.0;
    samples.answer_s.clear();
  } else if (kind == WorkloadKind::kNovelBatch) {
    for (int c = 0; c < kNovelClients; ++c) {
      register_tenant("novel-" + std::to_string(c));
    }
  } else {
    for (int t = 0; t < kQueryTenants; ++t) register_tenant(QueryTenantName(t));
    register_tenant("warmup");
    replayer.Batch(traces[0], samples, -1, "warmup",
                   RangeBatch(seed, kBatchQueries), kEpsilon);
    samples.fingerprint_s.clear();
    samples.fingerprint_bytes = samples.fingerprint_total_s = 0.0;
    samples.answer_s.clear();
  }
  const auto stats_before = replayer.cache_stats();
  const std::int64_t prewarm_requests = samples.requests;

  // The timed traffic, replayed serially for the rest of the window.
  const double replay_seconds = seconds * (1.0 - kServiceShare);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(replay_seconds));
  Trace& trace = traces[0];
  switch (kind) {
    case WorkloadKind::kCachedBatch: {
      IndexStream pick = CachedPicks(seed);
      while (Clock::now() < end) {
        const Tenant& t = tenants[pick.Next()];
        replayer.Batch(trace, samples, request++, t.name, t.workload,
                       kEpsilon);
      }
      break;
    }
    case WorkloadKind::kNovelBatch: {
      NovelSequence sequence(seed);
      while (Clock::now() < end) {
        WorkloadPtr w = sequence.Next();
        if (w == nullptr) break;
        replayer.Batch(trace, samples, request,
                       "novel-" + std::to_string(request % kNovelClients), w,
                       kEpsilon);
        ++request;
      }
      break;
    }
    case WorkloadKind::kSingleQuery: {
      QueryStream stream(seed, seconds);
      std::map<std::string, double> first_at;
      while (Clock::now() < end) {
        const std::optional<Query> next = stream.Next();
        if (!next) break;
        const Query& q = *next;
        const std::string tenant = QueryTenantName(q.tenant);
        if (first_at.count(tenant) == 0) first_at[tenant] = q.at;
        for (auto& batch : replayer.Query(trace, samples, request++, q)) {
          samples.batcher_fill_s.push_back(q.at - first_at[batch.tenant]);
          samples.batcher_rows.push_back(
              static_cast<double>(batch.workload->num_queries()));
          first_at.erase(batch.tenant);
          replayer.Batch(trace, samples, request++, batch.tenant,
                         batch.workload, batch.epsilon);
        }
      }
      break;
    }
  }
  const auto stats = replayer.cache_stats();

  // Ceilings and kernel probes at the median prepare shape.
  const Ceilings ceilings = ProbeCeilings();
  std::vector<double> ranks;
  for (const PrepareRecord& p : samples.prepares) {
    ranks.push_back(static_cast<double>(p.r));
  }
  const Index r = ranks.empty() ? 0 : static_cast<Index>(Median(ranks) + 0.5);
  KernelTimes kernels;
  if (r > 0) kernels = ProbeKernels(r, kDomain, seed);
  const double laplace_ns = ProbeLaplaceNs();

  WriteTrace(trace_path, traces, samples.prepares, origin, &samples);
  for (std::string& f : samples.failures) out.Fail(std::move(f));
  int mismatches = 0;
  for (const PrepareRecord& p : samples.prepares) {
    mismatches += !p.matches_cache;
  }
  std::printf("replay: %lld requests (%lld in set-up), %zu prepares, "
              "%d differ from the cache's solve; spans in %s\n",
              static_cast<long long>(samples.requests),
              static_cast<long long>(prewarm_requests),
              samples.prepares.size(), mismatches, trace_path.c_str());
  std::printf("unattributed share per request: p50 %.4f  p99 %.4f  max %.4f\n",
              Median(samples.unattributed),
              Quantile(samples.unattributed, 0.99),
              samples.unattributed.empty()
                  ? 0.0
                  : *std::max_element(samples.unattributed.begin(),
                                      samples.unattributed.end()));
  std::printf("median prepare shape: r = %lld, n = %lld\n",
              static_cast<long long>(r), static_cast<long long>(kDomain));
  out.attempted += samples.requests;
  out.failed += samples.failed;

  // --- Per-layer metrics. A layer the workload does not exercise reads 0.
  const std::int64_t lookups = (stats.hits - stats_before.hits) +
                               (stats.misses - stats_before.misses);
  const std::int64_t misses = stats.misses - stats_before.misses;
  double solve = 0.0, init = 0.0, alt = 0.0, book = 0.0;
  std::vector<double> init_s, residual, noise;
  int converged = 0, alternations = 0;
  for (const PrepareRecord& p : samples.prepares) {
    solve += p.solve_s;
    init += p.init_s;
    alt += p.alternation_s;
    book += p.bookkeeping_s;
    init_s.push_back(p.init_s);
    residual.push_back(p.residual_over_gamma);
    noise.push_back(p.expected_noise_ratio);
    converged += p.converged;
    alternations += p.alternations;
  }
  const double prepares = static_cast<double>(samples.prepares.size());
  auto share = [solve](double part) {
    return solve > 0.0 ? part / solve : 0.0;
  };
  const double fingerprint_gbps =
      samples.fingerprint_total_s > 0.0
          ? samples.fingerprint_bytes / samples.fingerprint_total_s / 1e9
          : 0.0;

  out.Add("service.submit_us", layer.submit_us, "us");
  out.Add("service.queue_ms_p50", layer.queue_ms_p50, "ms");
  out.Add("service.queue_ms_p99", layer.queue_ms_p99, "ms");
  out.Add("batcher.add_us", Median(samples.batcher_add_s) * 1e6, "us");
  out.Add("batcher.fill_s", Median(samples.batcher_fill_s), "s");
  out.Add("batcher.rows", Median(samples.batcher_rows), "count");
  out.Add("fingerprint.ms", Median(samples.fingerprint_s) * 1e3, "ms");
  out.Add("fingerprint.gbps", fingerprint_gbps, "GB/s");
  out.Add("fingerprint.bw_frac", fingerprint_gbps / ceilings.stream_gbps,
          "ratio");
  out.Add("cache.lookup_us", Median(samples.lookup_s) * 1e6, "us");
  out.Add("cache.hit_ratio",
          lookups > 0 ? static_cast<double>(stats.hits - stats_before.hits) /
                            lookups
                      : 0.0,
          "ratio");
  out.Add("cache.warm_miss_ratio",
          misses > 0 ? static_cast<double>(stats.warm_misses -
                                           stats_before.warm_misses) /
                           misses
                     : 0.0,
          "ratio");
  out.Add("cache.evictions",
          static_cast<double>(stats.evictions - stats_before.evictions),
          "count");
  out.Add("core.init_ms", Median(init_s) * 1e3, "ms");
  out.Add("core.init_share", share(init), "ratio");
  out.Add("core.alternation_ms", Median(samples.alternation_s) * 1e3, "ms");
  out.Add("core.alternations", prepares > 0 ? alternations / prepares : 0.0,
          "count");
  out.Add("core.alternation_share", share(alt), "ratio");
  out.Add("core.bookkeeping_share", share(book), "ratio");
  out.Add("core.converged_ratio", prepares > 0 ? converged / prepares : 0.0,
          "ratio");
  out.Add("core.residual_over_gamma", Median(residual), "ratio");
  out.Add("core.expected_noise_ratio", Median(noise), "ratio");
  out.Add("opt.apg_iter_us", kernels.apg_iter_us, "us");
  out.Add("opt.l1_projection_us", kernels.l1_projection_us, "us");
  out.Add("linalg.gemm_us", kernels.gemm_us, "us");
  out.Add("linalg.gemm_gmadds", kernels.gemm_gmadds, "Gmadd/s");
  out.Add("linalg.gemm_peak_frac",
          kernels.gemm_gmadds / ceilings.fma_peak_gmadds, "ratio");
  out.Add("linalg.fma_peak_gmadds", ceilings.fma_peak_gmadds, "Gmadd/s");
  out.Add("linalg.stream_gbps", ceilings.stream_gbps, "GB/s");
  out.Add("mechanism.answer_us", Median(samples.answer_s) * 1e6, "us");
  out.Add("rng.laplace_ns", laplace_ns, "ns");
  out.Add("trace.unattributed_share",
          samples.unattributed.empty()
              ? 0.0
              : *std::max_element(samples.unattributed.begin(),
                                  samples.unattributed.end()),
          "ratio");
  return out;
}

}  // namespace perfbench
