#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/async/async_protocols.hpp"
#include "core/potential.hpp"
#include "obs/decision_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace_sink.hpp"
#include "rng/splitmix64.hpp"
#include "sim/parallel_round_engine.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

/// Exports the run's final counters, fault stats, state gauges, and phase
/// timers into the attached MetricsRegistry (catalog in
/// docs/observability.md). Called once per run, after the loop — never from
/// the hot path.
void export_metrics(const obs::Telemetry& options, EngineResult& result,
                    const State* state) {
  if (options.metrics == nullptr) return;
  obs::MetricsRegistry& m = *options.metrics;
  const Counters& c = result.counters;
  m.add(m.counter("engine/rounds"), c.rounds);
  m.add(m.counter("engine/migrations"), c.migrations);
  m.add(m.counter("engine/messages"), c.messages());
  m.add(m.counter("engine/probes"), c.probes);
  m.add(m.counter("engine/migrate_requests"), c.migrate_requests);
  m.add(m.counter("engine/grants"), c.grants);
  m.add(m.counter("engine/rejects"), c.rejects);
  m.add(m.counter("engine/timeouts"), c.timeouts);
  m.add(m.counter("engine/retries"), c.retries);
  m.add(m.counter("engine/stale_drops"), c.stale_drops);
  m.add(m.counter("trace/rows"), result.telemetry.trace_rows);
  m.set(m.gauge("engine/threads"), static_cast<double>(result.threads_used));
  if (result.events > 0 || result.virtual_time > 0.0) {
    m.add(m.counter("des/events"), result.events);
    m.set(m.gauge("des/virtual_time"), result.virtual_time);
  }
  if (result.faults.total() > 0) {
    m.add(m.counter("faults/dropped"), result.faults.dropped);
    m.add(m.counter("faults/duplicated"), result.faults.duplicated);
    m.add(m.counter("faults/delayed"), result.faults.delayed);
    m.add(m.counter("faults/crash_dropped"), result.faults.crash_dropped);
  }
  if (result.churn.failures > 0) {
    m.add(m.counter("churn/failures"), result.churn.failures);
    m.add(m.counter("churn/recoveries"), result.churn.recoveries);
    m.add(m.counter("churn/evicted"), result.churn.evicted);
    m.set(m.gauge("churn/max_dip_depth"), result.churn.max_dip_depth);
    m.set(m.gauge("churn/max_recovery_rounds"),
          static_cast<double>(result.churn.max_recovery_rounds));
  }
  if (state != nullptr) {
    m.set(m.gauge("state/unsatisfied"),
          static_cast<double>(state->count_unsatisfied()));
    m.set(m.gauge("state/max_load"), static_cast<double>(state->max_load()));
    m.set(m.gauge("state/potential"), rosenthal_potential(*state));
  }
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    const obs::PhaseStat& stat = result.telemetry.phases.stats[i];
    if (stat.count == 0) continue;
    const auto phase = static_cast<obs::Phase>(i);
    m.set(m.gauge(std::string("phase/") + obs::phase_name(phase) +
                  "_seconds"),
          stat.seconds);
  }
  if (options.decisions != nullptr) {
    m.add(m.counter("decisions/events"), result.telemetry.decision_events);
    m.add(m.counter("decisions/spans"), result.telemetry.span_events);
    m.add(m.counter("diag/herding_findings"),
          result.telemetry.herding_findings);
    m.set(m.gauge("diag/max_herding_ratio"),
          result.telemetry.max_herding_ratio);
  }
  if (options.perf != nullptr) {
    m.set(m.gauge("perf/available"),
          result.telemetry.perf_available ? 1.0 : 0.0);
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      const obs::PerfSample& sample = result.telemetry.perf.totals[i];
      if (sample.cycles == 0 && sample.instructions == 0) continue;
      const auto phase = static_cast<obs::Phase>(i);
      const std::string prefix = std::string("perf/") + obs::phase_name(phase);
      m.set(m.gauge(prefix + "_cycles"), static_cast<double>(sample.cycles));
      m.set(m.gauge(prefix + "_instructions"),
            static_cast<double>(sample.instructions));
      m.set(m.gauge(prefix + "_cache_misses"),
            static_cast<double>(sample.cache_misses));
      m.set(m.gauge(prefix + "_branch_misses"),
            static_cast<double>(sample.branch_misses));
    }
  }
}

/// Per-round migration-flow aggregates, tallied by UserSetRound::commit
/// from the shard-ordered request list (so every field is
/// thread/mode/layout-invariant) and turned into a DiagRow + detector
/// verdict by TelemetryDriver::decision_round.
struct RoundDiagData {
  std::uint64_t migrations = 0;  // granted moves this round
  std::uint64_t inflow_max = 0;
  ResourceId inflow_argmax = kNoResource;
  std::uint64_t outflow_at_argmax = 0;
};

/// Per-run driver for config.telemetry. Every hook reads simulation state
/// from the driving thread, strictly between rounds, and feeds nothing back
/// — which is why sinks on/off cannot change the realization
/// (tests/core_telemetry_test.cpp pins the assignment hashes).
class TelemetryDriver {
 public:
  TelemetryDriver(const obs::Telemetry& options, EngineResult& result,
                  const Protocol& protocol, const State& state,
                  std::uint64_t seed, std::size_t threads, const char* mode)
      : options_(options), result_(&result) {
    if (!options_.any()) return;
    result_->telemetry.enabled = true;
    result_->telemetry.perf_available =
        options_.perf != nullptr && options_.perf->available();
    if (options_.sink != nullptr || options_.decisions != nullptr) {
      obs::TraceRunInfo info;
      info.protocol = protocol.name();
      info.users = state.num_users();
      info.resources = state.num_resources();
      info.seed = seed;
      info.threads = threads;
      info.mode = mode;
      if (options_.sink != nullptr) options_.sink->begin_run(info);
      if (options_.decisions != nullptr)
        options_.decisions->begin_run(info, options_.decision_sample);
    }
    if (options_.metrics != nullptr) {
      const auto hi =
          static_cast<double>(std::max<std::size_t>(state.num_users(), 1));
      active_hist_ =
          options_.metrics->histogram("engine/active_set_size", 0.0, hi, 32);
    }
  }

  obs::PhaseTimers* timers() { return &result_->telemetry.phases; }
  /// The attached counters if they opened; null otherwise (no reads).
  const obs::PerfCounters* perf() const {
    return result_->telemetry.perf_available ? options_.perf : nullptr;
  }
  obs::PhasePerf* phase_perf() { return &result_->telemetry.perf; }
  bool decisions_on() const { return options_.decisions != nullptr; }
  std::uint64_t decision_sample() const { return options_.decision_sample; }

  /// Round-boundary hook (round 0 = the pre-run snapshot): samples the
  /// active-set-size histogram for executed rounds and emits the trace row,
  /// thinned by trace_every (round 0 and — via finish() — the final round
  /// are always kept). `unsatisfied` is the round loop's one count of the
  /// round, never recomputed here.
  void round_row(std::uint64_t round, const State& state,
                 std::uint64_t active_size, std::size_t unsatisfied) {
    if (round != 0 && active_hist_.valid())
      options_.metrics->observe(active_hist_,
                                static_cast<double>(active_size));
    if (options_.sink == nullptr) return;
    if (round != 0 && options_.trace_every > 1 &&
        round % options_.trace_every != 0) {
      // Held back; finish() flushes it if this stays the run's last round
      // (the state it would describe is then still the current state).
      pending_ = true;
      pending_round_ = round;
      pending_active_ = active_size;
      pending_unsatisfied_ = unsatisfied;
      return;
    }
    emit(round, state, active_size, unsatisfied);
  }

  /// Post-commit hook for one executed round (driving thread, decisions
  /// sink attached): drains the per-shard decision records in shard order —
  /// resolving `to`/`granted`/`satisfied_after` against the committed state,
  /// which is what captures admission rejects — then emits the round's
  /// diagnostics row and runs the herding detector.
  void decision_round(std::uint64_t round, const State& state,
                      const std::vector<DecisionScratch>& shards,
                      const RoundDiagData& diag) {
    obs::ScopedPhase phase(options_.clock, timers(), obs::Phase::kTrace,
                           perf(), phase_perf());
    obs::DecisionSink& sink = *options_.decisions;
    const auto to_field = [](ResourceId r) {
      return r == kNoResource ? obs::kNoDecisionTarget
                              : static_cast<std::int64_t>(r);
    };
    for (const DecisionScratch& shard : shards) {
      for (const DecisionRecord& rec : shard.records) {
        obs::DecisionEvent event;
        event.round = round;
        event.user = rec.user;
        event.from = to_field(rec.from);
        event.probe = to_field(rec.probe);
        event.target = to_field(rec.target);
        const ResourceId now = state.resource_of(rec.user);
        event.to = to_field(now);
        event.threshold = rec.threshold;
        event.requested = rec.target != kNoResource;
        event.granted = event.requested && now == rec.target;
        event.satisfied_before = rec.satisfied_before;
        event.satisfied_after = state.satisfied(rec.user);
        sink.decision(event);
        ++result_->telemetry.decision_events;
      }
    }
    obs::DiagRow row;
    row.round = round;
    row.migrations = diag.migrations;
    row.inflow_max = diag.inflow_max;
    row.inflow_argmax = to_field(diag.inflow_argmax);
    row.outflow_at_argmax = diag.outflow_at_argmax;
    row.herding_ratio =
        static_cast<double>(diag.inflow_max) /
        static_cast<double>(std::max<std::uint64_t>(1, diag.outflow_at_argmax));
    const auto& loads = state.loads();
    const auto& live = state.live_resources();
    double mean = 0.0;
    for (const ResourceId r : live) mean += loads[r];
    mean /= static_cast<double>(live.size());
    double sq = 0.0;
    for (const ResourceId r : live) {
      const double dev = loads[r] - mean;
      row.l_inf = std::max(row.l_inf, std::abs(dev));
      sq += dev * dev;
    }
    row.l2 = std::sqrt(sq / static_cast<double>(live.size()));
    sink.diag(row);
    result_->telemetry.max_herding_ratio =
        std::max(result_->telemetry.max_herding_ratio, row.herding_ratio);
    if (row.inflow_max > 1 && row.herding_ratio > options_.herding_factor) {
      obs::DecisionFinding finding;
      finding.detector = "herding";
      finding.round = round;
      finding.resource = row.inflow_argmax;
      finding.inflow = row.inflow_max;
      finding.outflow = row.outflow_at_argmax;
      finding.ratio = row.herding_ratio;
      sink.finding(finding);
      ++result_->telemetry.herding_findings;
    }
  }

  /// Flushes a held-back final row, closes the sinks, exports the metrics.
  void finish(const State& state) {
    if (!options_.any()) return;
    if (options_.sink != nullptr) {
      if (pending_)
        emit(pending_round_, state, pending_active_, pending_unsatisfied_);
      options_.sink->end_run();
    }
    if (options_.decisions != nullptr) options_.decisions->end_run();
    export_metrics(options_, *result_, &state);
  }

 private:
  void emit(std::uint64_t round, const State& state,
            std::uint64_t active_size, std::size_t unsatisfied) {
    pending_ = false;
    obs::ScopedPhase phase(options_.clock, timers(), obs::Phase::kTrace);
    obs::TraceRow row;
    row.round = round;
    row.unsatisfied = unsatisfied;
    row.migrations = result_->counters.migrations;
    row.messages = result_->counters.messages();
    row.max_load = state.max_load();
    row.potential = rosenthal_potential(state);
    row.active_size = active_size;
    options_.sink->row(row);
    ++result_->telemetry.trace_rows;
  }

  obs::Telemetry options_;
  EngineResult* result_;
  obs::HistogramHandle active_hist_;
  bool pending_ = false;
  std::uint64_t pending_round_ = 0;
  std::uint64_t pending_active_ = 0;
  std::size_t pending_unsatisfied_ = 0;
};

/// Binds Protocol::step_users/commit_round to the sharded fan-out over an
/// explicit iteration list (all users in dense mode, the ascending
/// unsatisfied set in active mode): begin_round() snapshots the
/// round-boundary loads, decide() — one call per shard, possibly
/// concurrent — writes into per-shard buffers and per-shard counters, and
/// commit() merges both in shard order on the driving thread — so the
/// outcome is independent of which worker executed which shard. Randomness
/// comes from the round's per-user substreams, so it is independent of the
/// shard partition too.
class UserSetRound {
 public:
  UserSetRound(Protocol& protocol, State& state, Counters& counters)
      : protocol_(&protocol), state_(&state), counters_(&counters) {}

  void begin_round(const std::vector<UserId>& users, const RoundRng& streams,
                   std::size_t num_shards) {
    users_ = &users;
    streams_ = streams;
    snapshot_ = state_->loads();
    // Reuse the staging buffers' capacity across rounds: clear the vectors
    // in place instead of destroying them, so steady-state rounds allocate
    // nothing in the fan-out path.
    shards_.resize(num_shards);
    if (decisions_on_) decision_shards_.resize(num_shards);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      MigrationBuffer& shard = shards_[i];
      shard.requests.clear();
      shard.resource_tallies.clear();
      if (decisions_on_) {
        DecisionScratch& scratch = decision_shards_[i];
        scratch.sample_seed = sample_seed_;
        scratch.sample_every = sample_every_;
        scratch.records.clear();
        shard.decisions = &scratch;
      } else {
        shard.decisions = nullptr;
      }
    }
    shard_counters_.assign(num_shards, Counters{});
  }

  void decide(std::size_t shard, std::size_t begin, std::size_t end) {
    protocol_->step_users(*state_, snapshot_, users_->data() + begin,
                          end - begin, shards_[shard], streams_,
                          shard_counters_[shard]);
  }

  /// Phase-timer and perf-counter hookup (driving thread only; null clock
  /// and null perf = no reads).
  void set_telemetry(const obs::Clock* clock, obs::PhaseTimers* timers,
                     const obs::PerfCounters* perf,
                     obs::PhasePerf* phase_perf) {
    clock_ = clock;
    timers_ = timers;
    perf_ = perf;
    phase_perf_ = phase_perf;
  }

  /// Turns on per-shard decision recording and round-flow diagnostics.
  void enable_decisions(std::uint64_t sample_seed, std::uint64_t sample_every) {
    decisions_on_ = true;
    sample_seed_ = sample_seed;
    sample_every_ = sample_every;
  }

  const std::vector<DecisionScratch>& decision_shards() const {
    return decision_shards_;
  }
  const RoundDiagData& round_diag() const { return diag_; }

  void commit() {
    // commit() runs on the caller thread after the decide fan-out joined,
    // so timing it here races with nothing.
    obs::ScopedPhase phase(clock_, timers_, obs::Phase::kCommit, perf_,
                           phase_perf_);
    for (const Counters& shard : shard_counters_) *counters_ += shard;
    if (!decisions_on_) {
      protocol_->commit_round(*state_, shards_, *counters_);
      return;
    }
    // Pre-commit: remember every request's source resource (shard order —
    // one request per user per round), then let the protocol commit, then
    // tally the granted flows. All reads, so the realization is untouched.
    round_moves_.clear();
    for (const MigrationBuffer& shard : shards_)
      for (const MigrationRequest& req : shard.requests)
        round_moves_.push_back(
            PendingMove{req.user, req.target, state_->resource_of(req.user)});
    protocol_->commit_round(*state_, shards_, *counters_);
    inflow_.assign(state_->num_resources(), 0);
    outflow_.assign(state_->num_resources(), 0);
    diag_ = RoundDiagData{};
    for (const PendingMove& mv : round_moves_) {
      if (state_->resource_of(mv.user) != mv.target || mv.target == mv.from)
        continue;
      ++inflow_[mv.target];
      ++outflow_[mv.from];
      ++diag_.migrations;
    }
    for (ResourceId r = 0; r < inflow_.size(); ++r) {
      if (inflow_[r] > diag_.inflow_max) {
        diag_.inflow_max = inflow_[r];
        diag_.inflow_argmax = r;
      }
    }
    if (diag_.inflow_argmax != kNoResource)
      diag_.outflow_at_argmax = outflow_[diag_.inflow_argmax];
  }

 private:
  struct PendingMove {
    UserId user;
    ResourceId target;
    ResourceId from;
  };

  Protocol* protocol_;
  State* state_;
  Counters* counters_;
  const obs::Clock* clock_ = nullptr;
  obs::PhaseTimers* timers_ = nullptr;
  const obs::PerfCounters* perf_ = nullptr;
  obs::PhasePerf* phase_perf_ = nullptr;
  const std::vector<UserId>* users_ = nullptr;
  RoundRng streams_;
  std::vector<int> snapshot_;
  std::vector<MigrationBuffer> shards_;
  std::vector<Counters> shard_counters_;
  bool decisions_on_ = false;
  std::uint64_t sample_seed_ = 0;
  std::uint64_t sample_every_ = 1;
  std::vector<DecisionScratch> decision_shards_;
  std::vector<PendingMove> round_moves_;
  std::vector<std::uint64_t> inflow_;
  std::vector<std::uint64_t> outflow_;
  RoundDiagData diag_;
};

EngineResult from_async(const AsyncRunResult& async) {
  EngineResult result;
  result.termination = async.termination;
  result.converged = async.termination == Termination::kQuiesced;
  result.all_satisfied = async.all_satisfied;
  result.final_satisfied = async.satisfied;
  result.virtual_time = async.virtual_time;
  result.events = async.events;
  result.counters = async.counters;
  result.faults = async.faults;
  result.rounds = async.counters.rounds;
  result.telemetry = async.telemetry;
  return result;
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  QOSLB_REQUIRE(config_.stability_check_period >= 1,
                "stability_check_period must be positive");
  QOSLB_REQUIRE(config_.shard_size >= 1, "shard_size must be positive");
  for (std::size_t i = 1; i < config_.snapshot_rounds.size(); ++i)
    QOSLB_REQUIRE(config_.snapshot_rounds[i - 1] < config_.snapshot_rounds[i],
                  "snapshot_rounds must be strictly increasing");
  QOSLB_REQUIRE(config_.snapshot_rounds.empty() ||
                    config_.snapshot_sink != nullptr,
                "snapshot_rounds without a snapshot_sink");
}

EngineResult Engine::run(Protocol& protocol, State& state,
                         Xoshiro256& rng) const {
  // Churn and checkpointing need the round-boundary cut that only the
  // sharded round body has; a step() round cannot be split around them.
  QOSLB_REQUIRE(!config_.churn.any() || protocol.supports_step_users(),
                "churn plans need a sharded (step_users) protocol");
  QOSLB_REQUIRE(config_.snapshot_rounds.empty() ||
                    protocol.supports_step_users(),
                "checkpointing needs a sharded (step_users) protocol");
  // A protocol that samples the whole resource set would migrate users onto
  // rate-0 pairs; only opted-in protocols may drive restricted instances.
  QOSLB_REQUIRE(!state.instance().restricted() ||
                    protocol.restricted_assignment_compatible(),
                "protocol '" + protocol.name() +
                    "' does not support restricted-assignment instances");
  protocol.reset();
  // Sharded protocols fold one draw of the caller's RNG into the master
  // seed so replications that advance that RNG (the established seeding
  // idiom) stay distinct while (config, rng state) still pins the run
  // exactly. The folded value is what a checkpoint stores — resume() reuses
  // it without re-folding. Step()-only protocols draw from `rng` itself, so
  // nothing is folded and their stream starts where the caller left it.
  const std::uint64_t master_seed = protocol.supports_step_users()
                                        ? derive_seed(config_.seed, rng())
                                        : config_.seed;
  return drive(protocol, state, &rng, master_seed, /*start_round=*/0,
               Counters{}, ChurnTracker{});
}

namespace {

/// The churn-eviction substream salt: victims of a failed resource draw
/// their relocation target from RoundRng(derive_seed(master, kChurnSalt),
/// round).user_stream(user) — keyed like the decision streams but on a
/// disjoint branch, so evictions are thread/mode-invariant and never
/// perturb protocol draws.
constexpr std::uint64_t kChurnSalt = 0xC0DEFA11ULL;

void apply_churn_event(const ChurnEvent& event, State& state,
                       std::uint64_t master_seed, ChurnTracker& tracker) {
  if (event.kind == ChurnKind::kRecover) {
    state.set_resource_live(event.resource, true);
    tracker.on_recovery();
    return;
  }
  tracker.on_failure(event.round, state.count_satisfied());
  std::vector<UserId> victims;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (state.resource_of(u) == event.resource) victims.push_back(u);
  state.set_resource_live(event.resource, false);
  const auto& live = state.live_resources();
  const RoundRng streams(derive_seed(master_seed, kChurnSalt), event.round);
  const Instance& instance = state.instance();
  std::vector<ResourceId> candidates;
  for (const UserId u : victims) {
    PhiloxEngine rng = streams.user_stream(u);
    if (!instance.restricted()) {
      state.move(u, live[uniform_u64_below(rng, live.size())]);
      continue;
    }
    // Victims of a restricted instance relocate within reachable(u) ∩ live.
    // A user whose only reachable resources are all dead cannot be placed
    // anywhere — that is a schedule bug, reported loudly rather than
    // silently parking the user on a rate-0 pair.
    candidates.clear();
    for (const ResourceId r : instance.reachable(u))
      if (state.resource_live(r)) candidates.push_back(r);
    QOSLB_REQUIRE(!candidates.empty(),
                  "churn stranded user " + std::to_string(u) +
                      ": every reachable resource is dead");
    state.move(u, candidates[uniform_u64_below(rng, candidates.size())]);
  }
  tracker.on_eviction(victims.size());
}

}  // namespace

EngineResult Engine::drive(Protocol& protocol, State& state, Xoshiro256* rng,
                           std::uint64_t master_seed,
                           std::uint64_t start_round, Counters start_counters,
                           ChurnTracker tracker) const {
  config_.churn.validate(state.num_resources());
  // A protocol that tests `load + 1` would misjudge every weighted move.
  QOSLB_REQUIRE(!state.instance().weighted() || protocol.weighted_compatible(),
                "protocol '" + protocol.name() +
                    "' does not support weighted instances");
  EngineResult result;
  result.counters = start_counters;
  result.rounds = start_round;
  const std::size_t n = state.num_users();

  // Step()-only protocols run their round body inline: no pool, and
  // threads_used reports 1.
  const bool sharded = protocol.supports_step_users();
  ParallelRoundEngine::Options options;
  options.threads = sharded ? config_.threads : 1;
  options.shard_size = config_.shard_size;
  ParallelRoundEngine engine(options);
  UserSetRound task(protocol, state, result.counters);

  // Active mode iterates only the unsatisfied set; protocols whose
  // satisfied users do act (berenbrink) keep the dense scan regardless.
  // Only an active run builds the satisfaction index (O(n log n) once,
  // idempotent across chained runs): every other run reads satisfaction
  // through the SoA scans, which need no upkeep per migration.
  const bool active = sharded && config_.mode == EngineMode::kActive &&
                      protocol.active_set_compatible();
  if (active) state.enable_satisfaction_tracking();
  std::vector<UserId> iteration;
  if (sharded && !active) {
    iteration.resize(n);
    std::iota(iteration.begin(), iteration.end(), UserId{0});
  }

  TelemetryDriver telemetry(config_.telemetry, result, protocol, state,
                            master_seed, engine.threads(),
                            !sharded ? "sequential"
                            : active ? "active"
                                     : "dense");
  const obs::Clock* clock = config_.telemetry.clock;
  obs::PhaseTimers* timers = telemetry.timers();
  const obs::PerfCounters* perf = telemetry.perf();
  obs::PhasePerf* phase_perf = telemetry.phase_perf();
  task.set_telemetry(clock, timers, perf, phase_perf);
  // The decision sample key is the run's master seed — the same value a
  // checkpoint stores — so a resumed run samples the same users. A step()
  // round has no per-shard records to drain.
  const bool decisions = sharded && telemetry.decisions_on();
  if (decisions)
    task.enable_decisions(master_seed, telemetry.decision_sample());
  // The one satisfied count per round: taken at the boundary (after the
  // commit) and shared by the convergence check, the churn tracker, the
  // trajectory and the trace row. O(1) when tracked, one scan otherwise.
  std::size_t satisfied = state.count_satisfied();
  telemetry.round_row(0, state, 0, n - satisfied);

  // Already-applied schedule entries (rounds before start_round) are part of
  // the checkpointed liveness; only the tail replays.
  const std::vector<ChurnEvent>& events = config_.churn.events;
  std::size_t churn_idx = 0;
  while (churn_idx < events.size() && events[churn_idx].round < start_round)
    ++churn_idx;
  std::size_t snap_idx = 0;
  while (snap_idx < config_.snapshot_rounds.size() &&
         config_.snapshot_rounds[snap_idx] < start_round)
    ++snap_idx;
  const auto pending_churn = [&] { return churn_idx < events.size(); };

  std::uint64_t rounds_done = start_round;
  const auto converged = [&] {
    // A run with unapplied churn events is never done — the schedule must
    // play out (and the system re-converge) first.
    if (pending_churn()) return false;
    obs::ScopedPhase phase(clock, timers, obs::Phase::kSatisfactionCheck,
                           perf, phase_perf);
    if (satisfied == n) return protocol.is_stable(state);
    if (rounds_done % config_.stability_check_period == 0)
      return protocol.is_stable(state);
    return false;
  };

  if (converged()) {
    result.converged = true;
  } else {
    for (std::uint64_t r = start_round; r < config_.max_rounds; ++r) {
      // Checkpoint at the boundary, before this round's churn and decisions
      // — exactly the cut resume() restarts from.
      if (snap_idx < config_.snapshot_rounds.size() &&
          config_.snapshot_rounds[snap_idx] == r) {
        ++snap_idx;
        config_.snapshot_sink(capture_snapshot(protocol, state, master_seed,
                                               r, result.counters, tracker));
      }
      while (churn_idx < events.size() && events[churn_idx].round == r) {
        apply_churn_event(events[churn_idx], state, master_seed, tracker);
        ++churn_idx;
      }
      if (!sharded) {
        obs::ScopedPhase step(clock, timers, obs::Phase::kStep, perf,
                              phase_perf);
        protocol.step(state, *rng, result.counters);
      } else {
        if (active) {
          // The bitmap enumerates ascending ids: per-user streams make the
          // draws order-independent, but the ascending order keeps the
          // applied migration sequence — and hence the trajectory — exactly
          // the dense scan's.
          iteration.clear();
          state.for_each_unsatisfied([&iteration](UserId u) {
            iteration.push_back(u);
            return true;
          });
        }
        {
          // kStep spans the round-boundary snapshot and the decide fan-out;
          // the commit below is timed in its own kCommit span.
          obs::ScopedPhase step(clock, timers, obs::Phase::kStep, perf,
                                phase_perf);
          task.begin_round(iteration, RoundRng(master_seed, r),
                           engine.num_shards(iteration.size()));
          engine.for_each_shard(
              iteration.size(),
              [&task](std::size_t shard, std::size_t begin, std::size_t end) {
                task.decide(shard, begin, end);
              });
        }
        task.commit();
      }
      ++result.counters.rounds;
      ++result.rounds;
      ++rounds_done;
      if (decisions)
        telemetry.decision_round(rounds_done, state, task.decision_shards(),
                                 task.round_diag());
      {
        obs::ScopedPhase phase(clock, timers, obs::Phase::kSatisfactionCheck,
                               perf, phase_perf);
        satisfied = state.count_satisfied();
      }
      tracker.on_round_end(rounds_done, satisfied, n);
      if (config_.record_trajectory)
        result.unsatisfied_trajectory.push_back(
            static_cast<std::uint32_t>(n - satisfied));
      if (config_.invariant_check_period != 0 &&
          rounds_done % config_.invariant_check_period == 0)
        state.check_invariants();
      // A dense or step() round visits every user.
      telemetry.round_row(rounds_done, state, active ? iteration.size() : n,
                          n - satisfied);
      if (converged()) {
        result.converged = true;
        break;
      }
    }
  }

  result.termination =
      result.converged ? Termination::kConverged : Termination::kRoundCap;
  result.final_satisfied = satisfied;
  result.all_satisfied = result.final_satisfied == n;
  result.final_satisfied_weight = state.instance().weighted()
                                      ? state.satisfied_weight()
                                      : satisfied;
  result.threads_used = engine.threads();
  result.churn = tracker.stats;
  telemetry.finish(state);
  return result;
}

SnapshotV1 Engine::save_snapshot(Protocol& protocol, State& state,
                                 Xoshiro256& rng,
                                 std::uint64_t at_round) const {
  QOSLB_REQUIRE(protocol.supports_step_users(),
                "checkpointing needs a sharded (step_users) protocol");
  EngineConfig config = config_;
  config.snapshot_rounds = {at_round};
  std::optional<SnapshotV1> captured;
  config.snapshot_sink = [&captured](const SnapshotV1& snapshot) {
    captured = snapshot;
  };
  Engine(std::move(config)).run(protocol, state, rng);
  QOSLB_REQUIRE(captured.has_value(),
                "the run ended before the requested snapshot round");
  return *std::move(captured);
}

EngineResult Engine::resume(Protocol& protocol, const SnapshotV1& snapshot,
                            State& state) const {
  QOSLB_REQUIRE(protocol.supports_step_users(),
                "resume needs a sharded (step_users) protocol");
  protocol.reset();
  QOSLB_REQUIRE(protocol.name() == snapshot.protocol,
                "protocol '" + protocol.name() +
                    "' does not match the checkpoint's '" + snapshot.protocol +
                    "'");
  QOSLB_REQUIRE(state.num_users() == snapshot.assignment.size() &&
                    state.num_resources() == snapshot.live.size(),
                "state dimensions do not match the checkpoint");
  for (UserId u = 0; u < state.num_users(); ++u)
    QOSLB_REQUIRE(state.resource_of(u) == snapshot.assignment[u],
                  "state assignment does not match the checkpoint");
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    QOSLB_REQUIRE(state.resource_live(r) == (snapshot.live[r] != 0),
                  "state liveness does not match the checkpoint");
  std::istringstream protocol_state(snapshot.protocol_state);
  protocol.snapshot_read(protocol_state);
  return drive(protocol, state, /*rng=*/nullptr, snapshot.master_seed,
               snapshot.next_round, snapshot.counters, snapshot.churn);
}

EngineResult Engine::run_async_admission(const Instance& instance) const {
  EngineResult result = from_async(::qoslb::run_async_admission(instance, config_));
  export_metrics(config_.telemetry, result, nullptr);
  return result;
}

EngineResult Engine::run_async_optimistic(const Instance& instance,
                                          double lambda) const {
  EngineResult result =
      from_async(::qoslb::run_async_optimistic(instance, lambda, config_));
  export_metrics(config_.telemetry, result, nullptr);
  return result;
}

}  // namespace qoslb
