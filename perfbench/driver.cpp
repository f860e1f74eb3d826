// Convergence benchmark driver (perfbench/README.md).
//
//   qoslb_perfbench --workload NAME --seed S --seconds T --trace 0|1
//                   [--spans FILE] [--git-sha SHA] [--source-hash HASH]
//
// One closed loop per process: replications of one workload run back to
// back on the calling thread (the engine may add its own workers). The
// replications run in whole cycles over kRealizations realization seeds
// derived from --seed; a realization's counts must repeat exactly every time
// it runs, and each metric weighs every realization the same. Each library
// call is timed from outside through its public API; nothing inside src/ is
// instrumented.
//
// --trace 0 measures the end-to-end metrics with telemetry detached.
// --trace 1 alternates traced and untraced replications and reports the
// per-layer metrics; the traced ones attach the engine's public hooks (a
// SteadyClock for the phase timers, a MetricsRegistry, and a timestamping
// TraceSink owned here).
//
// The last stdout line is the result object; the lines before it are the
// provenance header, the per-metric steadiness table, and the span
// self-time report. Exit status: 0 when every replication passed the
// correctness gate, 1 when one failed, 2 on bad arguments or an
// unoptimised build.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

#ifndef QOSLB_PERFBENCH_BUILD_TYPE
#define QOSLB_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef QOSLB_PERFBENCH_OPT_FLAGS
#define QOSLB_PERFBENCH_OPT_FLAGS "unknown"
#endif
#ifndef QOSLB_PERFBENCH_COMPILER
#define QOSLB_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using qoslb::EngineConfig;
using qoslb::EngineMode;
using qoslb::EngineResult;
using qoslb::Instance;
using qoslb::State;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set, from /proc/self/statm (0 when unreadable).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Process high-water resident set.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- workloads

// Why these four workloads, and what each isolates: perfbench/README.md.

/// Realizations per run. The convergence time of one realization has a
/// heavy seed-to-seed spread (a straggler tail, a bimodal async quiescence
/// time), so every metric is the mean over this many realizations.
constexpr int kRealizations = 16;

enum class Family : std::uint8_t { kUniformFeasible, kZipfRates };

struct Workload {
  const char* name;
  Family family;
  std::size_t n;
  std::size_t m;
  double slack;
  double zipf_exponent;  // kZipfRates only
  bool async;            // run_async_admission instead of Engine::run
  const char* protocol;  // sync only
  double lambda;
  EngineMode mode;
  std::size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"all0-dense", Family::kUniformFeasible, 1'000'000, 10'000, 0.15, 0.0,
     false, "uniform", 0.5, EngineMode::kDense, 1},
    {"tail-active", Family::kUniformFeasible, 500'000, 1'000, 0.05, 0.0,
     false, "uniform", 0.05, EngineMode::kActive, 2},
    {"hetero-admission", Family::kZipfRates, 1'000'000, 16, 0.15, 1.1, false,
     "admission", 1.0, EngineMode::kDense, 1},
    {"async-faults", Family::kUniformFeasible, 100'000, 1'000, 0.25, 0.0, true,
     "admission", 1.0, EngineMode::kDense, 1},
};

/// make_uniform_feasible's threshold spread, as in the CLI's uniform family.
/// With 1.0 every threshold is equal, so each resource's satisfaction index
/// holds a single bucket and its upkeep all but vanishes.
constexpr double kThresholdSpread = 1.5;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::unique_ptr<Instance> make_instance(const Workload& w,
                                        qoslb::Xoshiro256& rng) {
  if (w.family == Family::kZipfRates)
    return std::make_unique<Instance>(
        qoslb::make_zipf_rates(w.n, w.m, w.slack, w.zipf_exponent, rng));
  return std::make_unique<Instance>(
      qoslb::make_uniform_feasible(w.n, w.m, w.slack, kThresholdSpread, rng));
}

EngineConfig async_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.random_start = false;
  config.latency_jitter = 0.5;
  config.faults.drop_all(0.05).dup_all(0.02);
  return config;
}

// -------------------------------------------------------------------- spans

/// Benchmark-side spans around each public call: name, start, end, parent.
/// Kept in memory and written as JSONL when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent;
    int rep;
    double start;
    double end;
  };

  int open(const char* name, int parent, int rep) {
    return add(name, parent, rep, now_s(), 0.0);
  }
  /// Records a span whose times were taken elsewhere.
  int add(const char* name, int parent, int rep, double start, double end) {
    spans_.push_back({name, parent, rep, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    return duration(id);
  }
  /// Closes every span from `first` on that is still open (a replication
  /// that threw leaves its inner spans unclosed).
  void close_open(int first) {
    const double t = now_s();
    for (auto i = static_cast<std::size_t>(first); i < spans_.size(); ++i)
      if (spans_[i].end == 0.0) spans_[i].end = t;
  }
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  void write_jsonl(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    out << header << '\n';
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"parent\":%d,\"rep\":%d,\"name\":\"%s\","
                    "\"start_s\":%.9f,\"end_s\":%.9f}",
                    i, s.parent, s.rep, s.name.c_str(), s.start, s.end);
      out << buf << '\n';
    }
  }

  /// Per span name: count, total duration, and self time (duration minus
  /// the time its direct children cover; children never overlap here).
  void print_self_time() const {
    struct Agg {
      std::size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Agg> by_name;
    std::vector<double> child_time(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent >= 0)
        child_time[static_cast<std::size_t>(spans_[i].parent)] +=
            spans_[i].end - spans_[i].start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = by_name[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++a.count;
      a.total += d;
      a.self += d - child_time[i];
    }
    std::printf("# spans %-16s %6s %12s %12s\n", "name", "count", "total_s",
                "self_s");
    for (const auto& [name, a] : by_name)
      std::printf("# spans %-16s %6zu %12.6f %12.6f\n", name.c_str(), a.count,
                  a.total, a.self);
  }

 private:
  std::vector<Span> spans_;
};

/// Trace sink that timestamps every row; the gaps between consecutive rows
/// are the round durations, and Σ active_size is the users the step phase
/// visited. One sink per replication.
class TimestampSink final : public qoslb::obs::TraceSink {
 public:
  void row(const qoslb::obs::TraceRow& row) override {
    stamps_.push_back(now_s());
    visits_ += row.active_size;
  }

  std::uint64_t visits() const { return visits_; }
  std::vector<double> round_ms() const {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < stamps_.size(); ++i)
      gaps.push_back((stamps_[i] - stamps_[i - 1]) * 1e3);
    return gaps;
  }

 private:
  std::vector<double> stamps_;
  std::uint64_t visits_ = 0;
};

// ------------------------------------------------------------- replications

/// The timed setup of one realization: instance generator, then the start
/// state factory (sync workloads only). The one code path behind both the
/// replications' setup and the setup-only samples.
struct Setup {
  qoslb::Xoshiro256 rng;  // the generator's stream; Engine::run goes on with it
  std::unique_ptr<Instance> instance;
  std::unique_ptr<State> state;
  double start = 0.0;          // generator called
  double instance_done = 0.0;  // generator returned, factory called
  double done = 0.0;           // factory returned

  double instance_s() const { return instance_done - start; }
  double state_s() const { return done - instance_done; }
  double seconds() const { return done - start; }
};

Setup timed_setup(const Workload& w, std::uint64_t seed) {
  Setup s{qoslb::Xoshiro256(seed), nullptr, nullptr};
  s.start = now_s();
  s.instance = make_instance(w, s.rng);
  s.instance_done = now_s();
  if (!w.async)
    s.state = std::make_unique<State>(State::all_on(*s.instance, 0));
  s.done = now_s();
  return s;
}

struct Rep {
  // Host seconds of each public call.
  double instance_s = 0.0;
  double state_s = 0.0;
  double index_s = 0.0;  // traced sync runs only
  double run_s = 0.0;    // Engine::run / run_async_admission
  double teardown_s = 0.0;
  // Current RSS growth across the setup and converge spans.
  double rss_setup_mb = 0.0;
  double rss_converge_mb = 0.0;
  EngineResult result;
  std::uint64_t visits = 0;
  std::vector<double> round_ms;
  int realization = 0;
  std::string failure;  // empty: passed the correctness gate

  double setup_s() const { return instance_s + state_s; }
  /// The engine builds the satisfaction index inside run(); a traced run
  /// builds it just before, so both readings cover the same work.
  double converge_s() const { return index_s + run_s; }
  double rep_s() const { return setup_s() + converge_s() + teardown_s; }
  double sim_time(bool async) const {
    return async ? result.virtual_time : static_cast<double>(result.rounds);
  }
};

Rep replicate(const Workload& w, std::uint64_t seed, bool traced,
              SpanLog& spans, int rep_id) {
  Rep rep;
  const int root = spans.open("replication", -1, rep_id);
  try {
    std::unique_ptr<qoslb::Protocol> protocol;
    if (!w.async) {
      qoslb::ProtocolSpec spec;
      spec.kind = w.protocol;
      spec.lambda = w.lambda;
      protocol = qoslb::make_protocol(spec);
    }

    const double rss0 = rss_mb();
    Setup setup = timed_setup(w, seed);
    const int setup_span =
        spans.add("setup", root, rep_id, setup.start, setup.done);
    spans.add("setup.instance", setup_span, rep_id, setup.start,
              setup.instance_done);
    if (!w.async)
      spans.add("setup.state", setup_span, rep_id, setup.instance_done,
                setup.done);
    rep.instance_s = setup.instance_s();
    rep.state_s = setup.state_s();
    const double rss1 = rss_mb();
    rep.rss_setup_mb = rss1 - rss0;
    std::unique_ptr<Instance>& instance = setup.instance;
    std::unique_ptr<State>& state = setup.state;

    qoslb::obs::SteadyClock clock;
    qoslb::obs::MetricsRegistry metrics;
    TimestampSink sink;
    EngineConfig config = w.async ? async_config(seed) : EngineConfig{};
    if (!w.async) {
      config.seed = seed;
      config.mode = w.mode;
      config.threads = w.threads;
    }
    int span = -1;
    if (traced) {
      config.telemetry.clock = &clock;
      config.telemetry.metrics = &metrics;
      if (!w.async) {
        config.telemetry.sink = &sink;
        span = spans.open("index.build", root, rep_id);
        state->enable_satisfaction_tracking();
        rep.index_s = spans.close(span);
      }
    }
    const qoslb::Engine engine(config);
    span = spans.open("converge", root, rep_id);
    rep.result = w.async ? engine.run_async_admission(*instance)
                         : engine.run(*protocol, *state, setup.rng);
    rep.run_s = spans.close(span);
    rep.rss_converge_mb = rss_mb() - rss1;
    if (traced) {
      rep.visits = sink.visits();
      rep.round_ms = sink.round_ms();
    }

    span = spans.open("check", root, rep_id);
    if (!rep.result.converged)
      rep.failure = "did not converge";
    else if (!rep.result.all_satisfied)
      rep.failure = "converged with unsatisfied users";
    else if (state) {
      state->check_invariants();
      if (state->count_unsatisfied() != 0)
        rep.failure = "state reports unsatisfied users";
    }
    spans.close(span);

    span = spans.open("teardown", root, rep_id);
    state.reset();
    instance.reset();
    rep.teardown_s = spans.close(span);
  } catch (const std::exception& e) {
    rep.failure = std::string("threw: ") + e.what();
  }
  spans.close_open(root);
  return rep;
}

// ------------------------------------------------------------------ metrics

/// statistics.quantiles(values, n=4) (Python's default "exclusive" method).
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 1) return {v[0], v[0], v[0]};
  const auto n = static_cast<long long>(ld);
  std::vector<double> q;
  for (long long i = 1; i < 4; ++i) {
    const long long j = std::clamp(i * (n + 1) / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    q.push_back((v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                 v[static_cast<std::size_t>(j)] * delta) /
                4.0);
  }
  return q;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::vector<double> samples;  // in-run samples behind the value
};

class Report {
 public:
  /// Value is the median of the samples.
  void sampled(const std::string& name, const std::string& unit,
               const std::vector<double>& samples) {
    metrics_.push_back({name, unit, median(samples), samples});
  }
  /// Value is the mean over the realizations of each one's median sample:
  /// every realization weighs the same, however many times it ran.
  void balanced(const std::string& name, const std::string& unit,
                const std::vector<double>& samples,
                const std::vector<int>& realizations) {
    std::map<int, std::vector<double>> by_realization;
    for (std::size_t i = 0; i < samples.size(); ++i)
      by_realization[realizations[i]].push_back(samples[i]);
    double sum = 0.0;
    for (const auto& [k, values] : by_realization) sum += median(values);
    metrics_.push_back(
        {name, unit, sum / static_cast<double>(by_realization.size()),
         samples});
  }
  /// A value computed once per run (a high-water mark, a pooled percentile).
  void derived(const std::string& name, const std::string& unit,
               double value) {
    metrics_.push_back({name, unit, value, {value}});
  }

  /// One line per metric: in-run sample count, value, and the samples'
  /// median, quartiles and relative spread (q3 − q1) / median; NOISY marks
  /// a spread above 0.1.
  void print_steadiness() const {
    std::printf("# steady %-30s %-13s %4s %14s %14s %14s %14s %8s\n",
                "metric", "unit", "n", "value", "median", "q1", "q3",
                "spread");
    for (const Metric& m : metrics_) {
      const std::vector<double> q = quartiles(m.samples);
      const double spread = q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
      std::printf(
          "# steady %-30s %-13s %4zu %14.6g %14.6g %14.6g %14.6g %8.4f%s\n",
          m.name.c_str(), m.unit.c_str(), m.samples.size(), m.value, q[1],
          q[0], q[2], spread, spread > 0.1 ? " NOISY" : "");
    }
  }

  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

template <class T, class F>
std::vector<T> collect_as(const std::vector<Rep>& reps, F f) {
  std::vector<T> out;
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

template <class F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  return collect_as<double>(reps, f);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// The end-to-end metrics of a --trace 0 run. Each timed replication and
/// setup-only sample is weighed by realization (Report::balanced); the
/// counts repeat exactly per realization, so theirs is the plain mean over
/// the realizations.
void end_to_end(Report& report, const Workload& w,
                const std::vector<Rep>& timed,
                const std::vector<double>& setups,
                const std::vector<int>& setup_realizations) {
  const std::vector<int> realizations =
      collect_as<int>(timed, [](const Rep& r) { return r.realization; });
  const auto balanced = [&](const char* name, const char* unit, auto f) {
    report.balanced(name, unit, collect(timed, f), realizations);
  };
  balanced("converge_s", "s", [](const Rep& r) { return r.converge_s(); });
  report.balanced("setup_s", "s", setups, setup_realizations);
  balanced("rep_s", "s", [](const Rep& r) { return r.rep_s(); });
  report.derived("peak_rss_mb", "MiB", peak_rss_mb());
  balanced("sim_time", "rounds_or_vt",
           [&](const Rep& r) { return r.sim_time(w.async); });
  balanced("migrations", "count", [](const Rep& r) {
    return static_cast<double>(r.result.counters.migrations);
  });
  balanced("messages", "count", [](const Rep& r) {
    return static_cast<double>(r.result.counters.messages());
  });
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Traced converge time outside the engine's phase timers and the index
/// build: the round loop's own work (active-set copy and sort, bookkeeping).
double engine_loop_s(const Rep& r) {
  using qoslb::obs::Phase;
  const auto& phases = r.result.telemetry.phases;
  return r.converge_s() - phases[Phase::kStep].seconds -
         phases[Phase::kCommit].seconds -
         phases[Phase::kSatisfactionCheck].seconds -
         phases[Phase::kTrace].seconds - r.index_s;
}

/// Per pair of a traced and an untraced replication of one realization, run
/// back to back: traced converge time over untraced, minus one.
std::vector<double> overhead_fracs(const std::vector<Rep>& traced,
                                   const std::vector<Rep>& untraced) {
  std::vector<double> out;
  for (std::size_t i = 0; i < traced.size(); ++i)
    out.push_back(ratio(traced[i].converge_s(), untraced[i].converge_s()) - 1.0);
  return out;
}

/// How far the traced breakdown may miss the paired untraced converge time,
/// as the median over the pairs.
constexpr double kReconstructTolerance = 0.2;

/// The per-layer breakdown must explain the end-to-end converge time. For
/// each traced replication, step + commit + satcheck + index.build +
/// engine.loop, without the sink's own time, is compared with the
/// untraced converge_s of the same realization measured right after it: a
/// second, independent measurement. engine.loop_s is the traced remainder,
/// so it must not be negative (the phases would overlap), and the median
/// ratio must be within kReconstructTolerance of 1 (the phase timers would
/// miss or double-count work, or tracing would change it).
bool reconstructs(const std::vector<Rep>& traced,
                  const std::vector<Rep>& untraced) {
  using qoslb::obs::Phase;
  bool ok = true;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Rep& r = traced[i];
    const auto& phases = r.result.telemetry.phases;
    const double loop = engine_loop_s(r);
    const double parts = phases[Phase::kStep].seconds +
                         phases[Phase::kCommit].seconds +
                         phases[Phase::kSatisfactionCheck].seconds +
                         r.index_s + loop;
    ratios.push_back(ratio(parts, untraced[i].converge_s()));
    std::printf("# reconstruct untraced converge_s=%.6f from step+commit+"
                "satcheck+index %.6f + engine.loop_s %.6f: ratio %.4f\n",
                untraced[i].converge_s(), parts - loop, loop, ratios.back());
    if (loop < 0.0) ok = false;
  }
  const double med = median(ratios);
  ok = ok && std::fabs(med - 1.0) <= kReconstructTolerance;
  std::printf("# reconstruct median ratio %.4f (tolerance %.2f), loop >= 0: "
              "%s\n", med, kReconstructTolerance, ok ? "ok" : "FAILED");
  return ok;
}

/// Per-layer metrics from the traced replications (`traced`), with the
/// untraced ones of the same run as the overhead baseline. Memory per layer
/// comes from the warm-up: later replications reuse the heap it grew.
void per_layer(Report& report, const Workload& w, const Rep& warmup,
               const std::vector<Rep>& traced,
               const std::vector<Rep>& untraced) {
  using qoslb::obs::Phase;
  // The DES phase timers run on virtual time; never report them as host
  // seconds, so the round-engine layers read 0 on the async workload.
  const auto host = [&](const Rep& r, Phase p) {
    return w.async ? 0.0 : r.result.telemetry.phases[p].seconds;
  };
  const auto phase = [&](Phase p) {
    return collect(traced, [&](const Rep& r) { return host(r, p); });
  };
  const auto per = [&](auto num, auto den) {
    return collect(traced, [&](const Rep& r) { return ratio(num(r), den(r)); });
  };
  const auto migrations = [](const Rep& r) {
    return static_cast<double>(r.result.counters.migrations);
  };

  report.sampled("commit.s", "s", phase(Phase::kCommit));
  report.sampled("commit.ns_per_migration", "ns", per([&](const Rep& r) {
                   return 1e9 * host(r, Phase::kCommit);
                 }, migrations));
  report.sampled("step.s", "s", phase(Phase::kStep));
  report.sampled("step.visits", "count", collect(traced, [](const Rep& r) {
                   return static_cast<double>(r.visits);
                 }));
  report.sampled("step.ns_per_visit", "ns", per([&](const Rep& r) {
                   return 1e9 * host(r, Phase::kStep);
                 }, [](const Rep& r) { return static_cast<double>(r.visits); }));
  report.sampled("engine.loop_s", "s", collect(traced, [&](const Rep& r) {
                   return w.async ? 0.0 : engine_loop_s(r);
                 }));
  std::vector<double> rounds;
  for (const Rep& r : traced)
    rounds.insert(rounds.end(), r.round_ms.begin(), r.round_ms.end());
  report.derived("engine.round_ms.p50", "ms", percentile(rounds, 0.50));
  report.derived("engine.round_ms.p95", "ms", percentile(rounds, 0.95));
  report.derived("engine.round_ms.samples", "count",
                 static_cast<double>(rounds.size()));
  report.sampled("satcheck.s", "s", phase(Phase::kSatisfactionCheck));
  report.sampled("trace.sink_s", "s", phase(Phase::kTrace));
  report.sampled("index.build_s", "s",
                 collect(traced, [](const Rep& r) { return r.index_s; }));
  report.sampled("setup.instance_s", "s",
                 collect(traced, [](const Rep& r) { return r.instance_s; }));
  report.sampled("setup.state_s", "s",
                 collect(traced, [](const Rep& r) { return r.state_s; }));
  report.sampled("teardown.s", "s",
                 collect(traced, [](const Rep& r) { return r.teardown_s; }));
  report.derived("rss.setup_mb", "MiB", warmup.rss_setup_mb);
  report.derived("rss.converge_delta_mb", "MiB", warmup.rss_converge_mb);
  const auto counter = [](std::uint64_t qoslb::Counters::*field) {
    return [field](const Rep& r) {
      return static_cast<double>(r.result.counters.*field);
    };
  };
  report.sampled("protocol.migrations_per_probe", "ratio",
                 per(migrations, counter(&qoslb::Counters::probes)));
  report.sampled("protocol.grant_ratio", "ratio",
                 per(counter(&qoslb::Counters::grants),
                     counter(&qoslb::Counters::migrate_requests)));
  const auto events = [](const Rep& r) {
    return static_cast<double>(r.result.events);  // 0 on the round engine
  };
  report.sampled("des.events", "count", collect(traced, events));
  report.sampled("des.events_per_s", "1/s", per(events, [](const Rep& r) {
                   return r.converge_s();
                 }));
  report.sampled("async.timeouts", "count",
                 collect(traced, counter(&qoslb::Counters::timeouts)));
  report.sampled("async.retries", "count",
                 collect(traced, counter(&qoslb::Counters::retries)));
  report.sampled("async.stale_drops", "count",
                 collect(traced, counter(&qoslb::Counters::stale_drops)));
  report.sampled("async.retry_ratio", "ratio",
                 per(counter(&qoslb::Counters::retries), [](const Rep& r) {
                   return static_cast<double>(r.result.counters.messages());
                 }));
  report.sampled("faults.injected", "count", collect(traced, [](const Rep& r) {
                   return static_cast<double>(r.result.faults.total());
                 }));
  report.sampled("trace.overhead_frac", "ratio",
                 overhead_fracs(traced, untraced));
}

// ---------------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-hash") {
      args.source_hash = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string provenance(const Args& args, const Workload& w) {
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"provenance\":{\"git_sha\":\"%s\",\"source_hash\":\"%s\","
      "\"build_type\":\"%s\","
      "\"ndebug\":%s,\"opt_flags\":\"%s\",\"compiler\":\"%s\","
      "\"hardware_concurrency\":%u,\"engine_threads\":%zu,"
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d}}",
      args.git_sha.c_str(), args.source_hash.c_str(),
      QOSLB_PERFBENCH_BUILD_TYPE, ndebug,
      QOSLB_PERFBENCH_OPT_FLAGS, QOSLB_PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), w.threads, w.name,
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
  return buf;
}

/// The counts a realization seed pins exactly.
struct Counts {
  double sim_time;
  std::uint64_t migrations;
  std::uint64_t messages;
  bool operator==(const Counts&) const = default;
};

int run(const Args& args) {
  const Workload* found = find_workload(args.workload);
  if (found == nullptr)
    throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *found;
  const std::string header = provenance(args, w);
  std::printf("%s\n", header.c_str());
  std::fflush(stdout);

  SpanLog spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<int, Counts> reference;  // per realization
  int rep_id = 0;
  // Runs realization k and gates it: it must pass the replication's checks
  // and repeat the counts of every earlier run of k (warm-up, traced and
  // untraced alike).
  const auto replication = [&](int k, bool traced) {
    Rep rep = replicate(w, qoslb::derive_seed(args.seed, k), traced, spans,
                        rep_id++);
    rep.realization = k;
    ++attempted;
    if (rep.failure.empty()) {
      const Counts counts{rep.sim_time(w.async), rep.result.counters.migrations,
                          rep.result.counters.messages()};
      const auto [it, first] = reference.emplace(k, counts);
      if (!first && !(it->second == counts))
        rep.failure = "counts differ from an earlier run of realization " +
                      std::to_string(k);
    }
    if (!rep.failure.empty()) {
      ++failed;
      std::printf("# FAILED replication %llu (realization %d): %s\n",
                  static_cast<unsigned long long>(attempted), k,
                  rep.failure.c_str());
    }
    return rep;
  };

  // Warm-up: the first replication pays first-touch page faults and
  // allocator growth that later ones do not; it is gated, not timed.
  const Rep warmup = replication(0, /*traced=*/false);

  Report report;
  const double start = now_s();
  const auto elapsed = [&] { return now_s() - start; };
  // Runs whole cycles over the realizations, so each weighs the same
  // whatever the host's speed: at least one, and another only while it
  // fits, by the last cycle's time, into the next `budget` seconds.
  const auto cycles = [&](double budget, const auto& one) {
    const double until = elapsed() + budget;
    double cycle_s = 0.0;
    do {
      const double cycle_start = elapsed();
      for (int k = 0; k < kRealizations; ++k) one(k);
      cycle_s = elapsed() - cycle_start;
    } while (elapsed() + cycle_s <= until);
  };
  if (!args.trace) {
    // Three quarters of the run for replications, the last quarter for
    // setup-only samples: setup_s comes from back-to-back setups alone.
    std::vector<Rep> timed;
    cycles(0.75 * args.seconds, [&](int k) {
      timed.push_back(replication(k, /*traced=*/false));
    });
    std::vector<double> setups;
    std::vector<int> setup_realizations;
    const int sampling = spans.open("setup.samples", -1, rep_id++);
    cycles(0.25 * args.seconds, [&](int k) {
      setups.push_back(
          timed_setup(w, qoslb::derive_seed(args.seed, k)).seconds());
      setup_realizations.push_back(k);
    });
    spans.close(sampling);
    end_to_end(report, w, timed, setups, setup_realizations);
  } else {
    // Traced and untraced replications of one realization in pairs, so the
    // overhead compares like with like.
    std::vector<Rep> traced;
    std::vector<Rep> untraced;
    while (traced.size() < 2 || elapsed() < args.seconds) {
      const int k = static_cast<int>(traced.size()) % kRealizations;
      traced.push_back(replication(k, /*traced=*/true));
      untraced.push_back(replication(k, /*traced=*/false));
    }
    per_layer(report, w, warmup, traced, untraced);
    if (!w.async && !reconstructs(traced, untraced)) ++failed;
    const double overhead = median(overhead_fracs(traced, untraced));
    std::printf("# trace.overhead_frac=%.4f (budget < 0.02): %s\n", overhead,
                overhead < 0.02 ? "within" : "OVER");
  }

  report.print_steadiness();
  spans.print_self_time();
  if (!args.spans.empty()) spans.write_jsonl(args.spans, header);
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), report.json().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "qoslb_perfbench: refusing to time an unoptimised build "
               "(build type %s; need -O2 or higher and NDEBUG)\n",
               QOSLB_PERFBENCH_BUILD_TYPE);
  return 2;
#else
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qoslb_perfbench: %s\n", e.what());
    return 2;
  }
#endif
}
