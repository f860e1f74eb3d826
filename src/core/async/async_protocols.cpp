#include "core/async/async_protocols.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "obs/decision_sink.hpp"
#include "obs/phase_timer.hpp"
#include "rng/distributions.hpp"
#include "sim/des.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

/// Message-span emission state shared by the run's user agents (null when no
/// DecisionSink is attached). Emission is purely observational — it reads
/// the DES virtual clock and consumes no engine randomness — so spans on/off
/// cannot change the realization. The DES loop is single-threaded, so the
/// shared counter needs no synchronization.
struct SpanTrace {
  obs::DecisionSink* sink = nullptr;
  const obs::Clock* clock = nullptr;
  std::uint64_t sample_seed = 0;
  std::uint64_t sample_every = 1;
  std::uint64_t span_events = 0;
};

// Agent layout: resources occupy agent ids [0, m), users [m, m+n).
//
// Two operating modes share these agents. In *trusting* mode (no fault plan)
// the message flow is exactly the paper's realization — no sequence numbers,
// no timers — and stays byte-identical to the pre-fault-layer code. In
// *loss-tolerant* mode (robust == true; armed whenever faults are injected)
// every user-initiated operation carries a per-user monotone sequence
// number, replies are matched against the outstanding operation, silence is
// detected by timeouts and answered with bounded exponential-backoff
// retries, and departures are retransmitted until acknowledged so a lost
// LEAVE cannot strand a phantom resident.

class ResourceAgent : public DesAgent {
 public:
  /// `gated` selects the admission handshake (P4). Ungated resources accept
  /// every join and instead notify residents displaced by the arrival — the
  /// optimistic realization (P2).
  ResourceAgent(ResourceId rid, Counters* counters, bool gated = true,
                bool robust = false)
      : rid_(rid), counters_(counters), gated_(gated), robust_(robust) {}

  /// Records a resident: an initial one before the simulation starts, or an
  /// admitted join. Each threshold bucket stays sorted by id, so the notify
  /// walks below send in ascending id order. Seeding runs in ascending id, so
  /// it only appends.
  void add_resident(AgentId user, int threshold) {
    residents_[user] = threshold;
    std::vector<AgentId>& bucket = by_threshold_[threshold];
    if (bucket.empty() || bucket.back() < user) {
      bucket.push_back(user);
      return;
    }
    const auto at = std::lower_bound(bucket.begin(), bucket.end(), user);
    if (*at != user) bucket.insert(at, user);
  }

  int load() const { return static_cast<int>(residents_.size()); }

  void on_message(const Message& msg, DesEngine& engine) override {
    switch (msg.type) {
      case MsgType::kProbe: {
        if (robust_ && stale_or_record(msg)) {
          ++counters_->stale_drops;
          break;
        }
        Message reply;
        reply.type = MsgType::kLoadReply;
        reply.src = rid_;
        reply.dst = msg.src;
        reply.seq = msg.seq;
        reply.a = load();
        engine.send(reply);
        break;
      }
      case MsgType::kMigrateRequest: {
        if (robust_ && stale_or_record(msg)) {
          ++counters_->stale_drops;
          break;
        }
        if (robust_ && residents_.count(msg.src) != 0) {
          // Duplicate (or retried) request from someone already admitted:
          // re-grant idempotently, without touching state or counters.
          ++counters_->stale_drops;
          Message again;
          again.type = MsgType::kGrant;
          again.src = rid_;
          again.dst = msg.src;
          again.seq = msg.seq;
          again.a = load();
          engine.send(again);
          break;
        }
        const int requester_threshold = static_cast<int>(msg.a);
        const int post_load = load() + 1;
        const bool fits_requester = post_load <= requester_threshold;
        const bool fits_residents = post_load <= satisfied_resident_min();
        Message reply;
        reply.src = rid_;
        reply.dst = msg.src;
        reply.seq = msg.seq;
        if (!gated_ || (fits_requester && fits_residents)) {
          add_resident(msg.src, requester_threshold);
          reply.type = MsgType::kGrant;
          reply.a = load();
          ++counters_->grants;
          ++counters_->migrations;
          if (!gated_) notify_newly_displaced(engine, msg.src);
        } else {
          reply.type = MsgType::kReject;
          ++counters_->rejects;
        }
        engine.send(reply);
        break;
      }
      case MsgType::kLeave: {
        if (robust_) {
          if (stale_or_record(msg)) {
            ++counters_->stale_drops;
            break;
          }
          const auto it = residents_.find(msg.src);
          if (it == residents_.end()) {
            // Duplicate of an already-processed departure: the state change
            // happened, only the ack was lost. Re-ack, change nothing.
            ++counters_->stale_drops;
            send_leave_ack(engine, msg);
            break;
          }
          erase_resident(it);
          send_leave_ack(engine, msg);
          notify_newly_satisfied(engine);
          break;
        }
        const auto it = residents_.find(msg.src);
        QOSLB_CHECK(it != residents_.end(), "leave from non-resident");
        erase_resident(it);
        notify_newly_satisfied(engine);
        break;
      }
      default:
        break;  // resources ignore other message kinds (incl. kRecover:
                // resource state survives a crash; only its inbox is lost)
    }
  }

 private:
  /// Per-sender monotone sequence guard (loss-tolerant mode): a message
  /// whose seq is below the highest seen from that sender was overtaken by a
  /// newer operation (e.g. a heavy-tail-delayed LEAVE arriving after the
  /// user already re-joined) and must be ignored. Equality is allowed — a
  /// retransmission of the latest operation is handled idempotently above.
  bool stale_or_record(const Message& msg) {
    if (msg.seq == 0) return false;
    auto& last = last_seq_[msg.src];
    if (msg.seq < last) return true;
    last = msg.seq;
    return false;
  }

  void erase_resident(std::unordered_map<AgentId, int>::iterator it) {
    const auto bucket = by_threshold_.find(it->second);
    std::vector<AgentId>& ids = bucket->second;
    ids.erase(std::lower_bound(ids.begin(), ids.end(), it->first));
    if (ids.empty()) by_threshold_.erase(bucket);
    residents_.erase(it);
  }

  void send_leave_ack(DesEngine& engine, const Message& leave) {
    Message ack;
    ack.type = MsgType::kLeaveAck;
    ack.src = rid_;
    ack.dst = leave.src;
    ack.seq = leave.seq;
    engine.send(ack);
  }

  /// Minimum threshold among residents that are satisfied at the current
  /// load; residents already unsatisfied cannot be hurt further and do not
  /// gate admission (same rule as the synchronous P4). O(log #thresholds)
  /// via the threshold buckets.
  int satisfied_resident_min() const {
    const auto it = by_threshold_.lower_bound(load());
    return it == by_threshold_.end() ? std::numeric_limits<int>::max()
                                     : it->first;
  }

  /// After a departure, residents whose threshold now covers the load become
  /// satisfied in place (exactly the threshold == load bucket); tell them so
  /// they stop searching.
  void notify_newly_satisfied(DesEngine& engine) {
    const auto it = by_threshold_.find(load());
    if (it == by_threshold_.end()) return;
    for (const AgentId user : it->second) {
      Message reply;
      reply.type = MsgType::kLoadReply;
      reply.src = rid_;
      reply.dst = user;
      reply.a = load();
      engine.send(reply);
    }
  }

  /// Ungated arrivals can push previously satisfied residents over their
  /// threshold: exactly the threshold == load()-1 bucket. Tell them (the
  /// joiner learns its own fate from the grant's load payload).
  void notify_newly_displaced(DesEngine& engine, AgentId joiner) {
    const auto it = by_threshold_.find(load() - 1);
    if (it == by_threshold_.end()) return;
    for (const AgentId user : it->second) {
      if (user == joiner) continue;
      Message reply;
      reply.type = MsgType::kLoadReply;
      reply.src = rid_;
      reply.dst = user;
      reply.a = load();
      engine.send(reply);
    }
  }

  ResourceId rid_;
  Counters* counters_;
  bool gated_;
  bool robust_;
  // residents_ and last_seq_ are only looked up, never walked, so their hash
  // order cannot reach the realization; by_threshold_ is walked, in key order
  // and ascending id within a bucket.
  std::unordered_map<AgentId, int> residents_;  // resident user agent id -> threshold here
  std::map<int, std::vector<AgentId>> by_threshold_;  // threshold -> sorted residents
  std::unordered_map<AgentId, std::uint32_t> last_seq_;  // staleness guard (robust mode)
};

class UserAgent : public DesAgent {
 public:
  /// `lambda` is the optimistic-commit probability (only drawn for ungated
  /// runs; the gated protocol always requests and lets the resource decide).
  UserAgent(UserId uid, const Instance* instance, ResourceId start,
            Counters* counters, bool gated = true, double lambda = 1.0,
            bool robust = false, ExponentialBackoff backoff = {},
            SpanTrace* spans = nullptr)
      : uid_(uid), instance_(instance), current_(start), counters_(counters),
        gated_(gated), lambda_(lambda), robust_(robust), backoff_(backoff),
        spans_(spans),
        traced_(spans != nullptr &&
                decision_sampled(spans->sample_seed, uid, spans->sample_every)) {
  }

  ResourceId current_resource() const { return current_; }

  void on_start(DesEngine& engine) override { probe_own(engine); }

  void on_message(const Message& msg, DesEngine& engine) override {
    switch (msg.type) {
      case MsgType::kLoadReply:
        handle_load_reply(msg, engine);
        break;
      case MsgType::kGrant: {
        if (robust_) {
          handle_grant_robust(msg, engine);
          break;
        }
        emit_span(op_span_, "ack", "grant", static_cast<ResourceId>(msg.src),
                  0);
        // Leave the old resource, adopt the new one.
        Message leave;
        leave.type = MsgType::kLeave;
        leave.src = agent_id(engine);
        leave.dst = current_;
        engine.send(leave);
        current_ = static_cast<ResourceId>(msg.src);
        pending_request_ = false;
        // Ungated joins can overshoot: the grant reports the post-join load,
        // so an unlucky joiner keeps searching.
        if (static_cast<int>(msg.a) > threshold_on(current_)) {
          searching_ = true;
          probe_own(engine);
        } else {
          searching_ = false;
        }
        break;
      }
      case MsgType::kReject:
        if (robust_) {
          if (op_kind_ != Op::kRequest || msg.seq != op_seq_) {
            ++counters_->stale_drops;
            break;
          }
          emit_span(op_span_, "ack", "reject",
                    static_cast<ResourceId>(msg.src), op_retries_);
          clear_op();
          if (searching_) probe_own(engine, /*delay=*/2.0);
          break;
        }
        emit_span(op_span_, "ack", "reject", static_cast<ResourceId>(msg.src),
                  0);
        pending_request_ = false;
        if (searching_) probe_own(engine, /*delay=*/2.0);
        break;
      case MsgType::kLeaveAck:
        if (robust_) {
          const auto it = pending_leaves_.find(msg.seq);
          if (it != pending_leaves_.end()) {
            emit_span(it->second.span, "ack", "leave_ack",
                      it->second.resource, it->second.retries);
            pending_leaves_.erase(it);
          } else {
            ++counters_->stale_drops;  // ack for a retransmitted/cancelled leave
          }
        }
        break;
      case MsgType::kTimer:
        if (robust_) {
          handle_timer_robust(msg, engine);
          break;
        }
        probe_own(engine);
        break;
      case MsgType::kRecover:
        if (robust_) handle_recover(engine);
        break;
      default:
        break;
    }
  }

 private:
  enum class Op : std::uint8_t { kNone, kProbeOwn, kProbeOther, kRequest };

  struct PendingLeave {
    ResourceId resource;
    unsigned retries;
    std::uint64_t span = 0;
  };

  /// Emits one span event for this (sampled) user. `span` groups every
  /// send/retry/timeout/ack of one operation attempt chain.
  void emit_span(std::uint64_t span, const char* op, const char* msg,
                 ResourceId target, std::uint64_t seq) {
    if (!traced_) return;
    obs::SpanEvent event;
    event.span = span;
    event.user = uid_;
    event.op = op;
    event.msg = msg;
    event.target = static_cast<std::int64_t>(target);
    event.seq = seq;
    event.time = spans_->clock->now();
    spans_->sink->span(event);
    ++spans_->span_events;
  }

  /// A fresh span id: user id in the high bits, per-user operation counter
  /// in the low — globally unique and deterministic, no RNG involved.
  std::uint64_t new_span() {
    return (static_cast<std::uint64_t>(uid_) << 20) |
           (++span_counter_ & 0xFFFFFULL);
  }

  const char* op_msg() const {
    return op_kind_ == Op::kRequest ? "request" : "probe";
  }

  AgentId agent_id(DesEngine& engine) const {
    (void)engine;
    return static_cast<AgentId>(instance_->num_resources() + uid_);
  }

  int threshold_on(ResourceId r) const { return instance_->threshold(uid_, r); }

  bool op_active() const { return op_kind_ != Op::kNone; }
  void clear_op() { op_kind_ = Op::kNone; }

  /// "Am I already busy?" gate. Loss-tolerant mode enforces one outstanding
  /// operation per user (every op has a timeout, so nothing can be lost by
  /// waiting); trusting mode reproduces the legacy gating exactly, which
  /// only serializes migrate requests.
  bool busy() const {
    return robust_ ? op_active() : pending_request_;
  }

  std::uint32_t next_seq() {
    if (++seq_ == 0) ++seq_;  // 0 is the unsolicited marker
    return seq_;
  }

  void probe_own(DesEngine& engine, double delay = 1.0) {
    begin_probe(engine, current_, delay);
  }

  void probe_random_other(DesEngine& engine) {
    const std::size_t m = instance_->num_resources();
    if (m <= 1) return;
    ResourceId target = current_;
    while (target == current_)
      target = static_cast<ResourceId>(uniform_u64_below(engine.rng(), m));
    begin_probe(engine, target, 1.0);
  }

  void begin_probe(DesEngine& engine, ResourceId target, double delay) {
    if (robust_) {
      op_kind_ = target == current_ ? Op::kProbeOwn : Op::kProbeOther;
      op_target_ = target;
      op_seq_ = next_seq();
      op_retries_ = 0;
    }
    op_span_ = new_span();
    emit_span(op_span_, "send", "probe", target, 0);
    send_probe(engine, target, delay);
  }

  void send_probe(DesEngine& engine, ResourceId target, double delay) {
    Message probe;
    probe.type = MsgType::kProbe;
    probe.src = agent_id(engine);
    probe.dst = target;
    probe.seq = robust_ ? op_seq_ : 0;
    ++counters_->probes;
    engine.send(probe, delay);
    if (robust_) arm_op_timer(engine, delay);
  }

  void begin_request(DesEngine& engine, ResourceId target) {
    op_kind_ = Op::kRequest;
    op_target_ = target;
    op_seq_ = next_seq();
    op_retries_ = 0;
    op_span_ = new_span();
    emit_span(op_span_, "send", "request", target, 0);
    send_request(engine);
  }

  void send_request(DesEngine& engine) {
    Message request;
    request.type = MsgType::kMigrateRequest;
    request.src = agent_id(engine);
    request.dst = op_target_;
    request.seq = op_seq_;
    request.a = threshold_on(op_target_);
    ++counters_->migrate_requests;
    engine.send(request);
    arm_op_timer(engine, 1.0);
  }

  /// Arms the timeout for the outstanding operation: the send's base delay
  /// plus the backoff budget for the current attempt (which must exceed a
  /// round trip, or healthy replies would race the timer).
  void arm_op_timer(DesEngine& engine, double base_delay) {
    engine.schedule_timer(
        agent_id(engine),
        base_delay + backoff_.jittered(engine.rng(), op_retries_),
        static_cast<std::int64_t>(op_seq_));
  }

  void retry_op(DesEngine& engine) {
    ++op_retries_;
    ++counters_->retries;
    op_seq_ = next_seq();
    emit_span(op_span_, "retry", op_msg(), op_target_, op_retries_);
    if (op_kind_ == Op::kRequest)
      send_request(engine);
    else
      send_probe(engine, op_target_, 1.0);
  }

  /// Starts (or skips, if already in flight) an acknowledged departure from
  /// `resource`: LEAVE is retransmitted with backoff until the kLeaveAck
  /// lands, so a lost departure cannot strand a phantom resident.
  void begin_leave(DesEngine& engine, ResourceId resource) {
    for (const auto& [seq, leave] : pending_leaves_)
      if (leave.resource == resource) return;  // already departing
    const std::uint32_t seq = next_seq();
    pending_leaves_.emplace(seq, PendingLeave{resource, 0, new_span()});
    emit_span(pending_leaves_.at(seq).span, "send", "leave", resource, 0);
    send_leave(engine, resource, seq);
  }

  void send_leave(DesEngine& engine, ResourceId resource, std::uint32_t seq) {
    Message leave;
    leave.type = MsgType::kLeave;
    leave.src = agent_id(engine);
    leave.dst = resource;
    leave.seq = seq;
    engine.send(leave);
    engine.schedule_timer(
        agent_id(engine),
        1.0 + backoff_.jittered(engine.rng(), pending_leaves_.at(seq).retries),
        static_cast<std::int64_t>(seq));
  }

  /// Cancels a pending departure from `resource` (we just re-joined it); a
  /// still-in-flight old LEAVE is neutralized by the resource's per-sender
  /// sequence guard.
  void cancel_leave(ResourceId resource) {
    for (auto it = pending_leaves_.begin(); it != pending_leaves_.end(); ++it) {
      if (it->second.resource == resource) {
        pending_leaves_.erase(it);
        return;
      }
    }
  }

  void handle_grant_robust(const Message& msg, DesEngine& engine) {
    const auto from = static_cast<ResourceId>(msg.src);
    const bool matches =
        op_kind_ == Op::kRequest && msg.seq == op_seq_ && from == op_target_;
    if (!matches) {
      ++counters_->stale_drops;
      // A stale grant (we timed out and moved on) still admitted us over
      // there; undo the phantom residency — unless it is where we live now,
      // or we are still retrying a request to that very resource (the retry
      // will be answered by an idempotent re-grant we do want to keep).
      const bool still_requesting_it =
          op_kind_ == Op::kRequest && op_target_ == from;
      if (from != current_ && !still_requesting_it) begin_leave(engine, from);
      return;
    }
    emit_span(op_span_, "ack", "grant", from, op_retries_);
    clear_op();
    begin_leave(engine, current_);
    cancel_leave(from);
    current_ = from;
    if (static_cast<int>(msg.a) > threshold_on(current_)) {
      searching_ = true;
      probe_own(engine);
    } else {
      searching_ = false;
    }
  }

  void handle_timer_robust(const Message& msg, DesEngine& engine) {
    const auto seq = static_cast<std::uint32_t>(msg.a);
    if (const auto it = pending_leaves_.find(seq); it != pending_leaves_.end()) {
      ++counters_->timeouts;
      emit_span(it->second.span, "timeout", "leave", it->second.resource,
                it->second.retries);
      if (backoff_.exhausted(it->second.retries)) {
        // Give up: if the resource comes back it will reconcile through the
        // idempotent re-grant / sequence-guard paths.
        pending_leaves_.erase(it);
        return;
      }
      ++it->second.retries;
      ++counters_->retries;
      emit_span(it->second.span, "retry", "leave", it->second.resource,
                it->second.retries);
      send_leave(engine, it->second.resource, seq);
      return;
    }
    if (op_active() && seq == op_seq_) {
      ++counters_->timeouts;
      emit_span(op_span_, "timeout", op_msg(), op_target_, op_retries_);
      if (backoff_.exhausted(op_retries_)) {
        const Op timed_out = op_kind_;
        clear_op();
        // Graceful degradation: persistent silence means the target is down
        // or unreachable. A silent *own* resource cannot certify our
        // satisfaction — assume the worst and re-enter search elsewhere; a
        // silent candidate is abandoned for a fresh scan from our own.
        if (timed_out == Op::kProbeOwn) {
          searching_ = true;
          probe_random_other(engine);
        } else {
          probe_own(engine);
        }
        return;
      }
      retry_op(engine);
      return;
    }
    // Stale timer: the operation it guarded already completed.
  }

  void handle_recover(DesEngine& engine) {
    // Our crash window just ended. Whatever was in flight is gone (the
    // inbox, including our own timers, was dropped); restart cleanly.
    clear_op();
    for (auto& [seq, leave] : pending_leaves_)
      send_leave(engine, leave.resource, seq);
    probe_own(engine);
  }

  void handle_load_reply(const Message& msg, DesEngine& engine) {
    const auto from = static_cast<ResourceId>(msg.src);
    const int load = static_cast<int>(msg.a);
    if (robust_ && msg.seq != 0) {
      // Solicited reply: must answer the outstanding probe, else it is a
      // duplicate or overtaken by a timeout retry.
      const bool matches =
          (op_kind_ == Op::kProbeOwn || op_kind_ == Op::kProbeOther) &&
          msg.seq == op_seq_ && from == op_target_;
      if (!matches) {
        ++counters_->stale_drops;
        return;
      }
      emit_span(op_span_, "ack", "load_reply", from, op_retries_);
      clear_op();
    } else if (!robust_) {
      // Trusting mode has no operation matching; attribute the reply
      // (solicited or an unsolicited notification) to the latest probe span.
      emit_span(op_span_, "ack", "load_reply", from, 0);
    }
    if (from == current_) {
      if (load <= threshold_on(current_)) {
        searching_ = false;  // satisfied in place
      } else {
        searching_ = true;
        if (!busy()) probe_random_other(engine);
      }
      return;
    }
    // Reply from a candidate resource.
    if (!searching_ || busy()) return;
    if (load + 1 <= threshold_on(from)) {
      if (!gated_ && !bernoulli(engine.rng(), lambda_)) {
        probe_own(engine, /*delay=*/1.0);  // damped: skip this opportunity
        return;
      }
      if (robust_) {
        begin_request(engine, from);
        return;
      }
      op_span_ = new_span();
      emit_span(op_span_, "send", "request", from, 0);
      Message request;
      request.type = MsgType::kMigrateRequest;
      request.src = agent_id(engine);
      request.dst = from;
      request.a = threshold_on(from);
      ++counters_->migrate_requests;
      pending_request_ = true;
      engine.send(request);
    } else {
      probe_own(engine, /*delay=*/1.0);  // rescan from the top
    }
  }

  UserId uid_;
  const Instance* instance_;
  ResourceId current_;
  Counters* counters_;
  bool gated_;
  double lambda_;
  bool robust_;
  ExponentialBackoff backoff_;
  bool searching_ = false;
  bool pending_request_ = false;  // trusting mode only

  // Loss-tolerant mode state.
  std::uint32_t seq_ = 0;
  Op op_kind_ = Op::kNone;
  ResourceId op_target_ = 0;
  std::uint32_t op_seq_ = 0;
  unsigned op_retries_ = 0;
  std::map<std::uint32_t, PendingLeave> pending_leaves_;

  // Span tracing (observational; see SpanTrace).
  SpanTrace* spans_;
  bool traced_;
  std::uint64_t span_counter_ = 0;
  std::uint64_t op_span_ = 0;
};

}  // namespace

namespace {

AsyncRunResult run_async(const Instance& instance, const EngineConfig& config,
                         bool gated, double lambda) {
  const std::size_t m = instance.num_resources();
  const std::size_t n = instance.num_users();
  // Every agent joins and leaves as one unit of load.
  QOSLB_REQUIRE(!instance.weighted(),
                "async runs do not support weighted instances");
  QOSLB_REQUIRE(config.initial_assignment.empty() ||
                    config.initial_assignment.size() == n,
                "initial_assignment must have one entry per user");
  const bool robust = config.force_timeouts || config.faults.any();

  AsyncRunResult result;
  DesEngine engine(config.seed, config.latency_jitter);
  // The DES keeps this clock at its virtual time, so the kEventDispatch
  // phase below measures virtual (deterministic) seconds — the async
  // instantiation of the Clock-injection pattern (docs/observability.md).
  // Attaching it is observational: the engine never reads it back.
  obs::VirtualClock virtual_clock;
  const bool telemetry_on = config.telemetry.any();
  if (telemetry_on) engine.set_clock(&virtual_clock);
  // Message-span tracing: same sink / sampling key as the sync decision
  // stream; emission reads the virtual clock and draws nothing.
  SpanTrace span_trace;
  SpanTrace* spans = nullptr;
  if (config.telemetry.decisions != nullptr) {
    span_trace.sink = config.telemetry.decisions;
    span_trace.clock = &virtual_clock;
    span_trace.sample_seed = config.seed;
    span_trace.sample_every = config.telemetry.decision_sample;
    spans = &span_trace;
    obs::TraceRunInfo info;
    info.protocol = gated ? "async-admission" : "async-optimistic";
    info.users = n;
    info.resources = m;
    info.seed = config.seed;
    info.threads = 1;
    info.mode = "async";
    span_trace.sink->begin_run(info, span_trace.sample_every);
  }
  // Each user keeps O(1) requests in flight and resources answer one-for-one,
  // so a trusting run's pending set stays below 2n + m (its peak is the n
  // initial probes). Loss-tolerant users also leave an operation timer and a
  // departure timer pending after the operation they guard completes, which
  // held the set at 3.74n-3.75n under 5% loss (n = 1e5, m = 1e3); sizing for
  // 4n + m keeps the scheduling path reallocation-free in both modes.
  engine.reserve((robust ? 4 * n : 2 * n) + m);
  std::optional<FaultInjector> injector;
  if (config.faults.any()) {
    // Mix the run seed into the plan seed so the same plan yields
    // independent fault realizations across replications.
    injector.emplace(config.faults,
                     config.faults.seed ^ (config.seed * 0x9E3779B97F4A7C15ULL));
    engine.set_fault_injector(&*injector);
  }

  // Contiguous agent storage, reserved up front: the engine keeps raw
  // pointers into both vectors, so they must never reallocate.
  std::vector<ResourceAgent> resources;
  std::vector<UserAgent> users;
  resources.reserve(m);
  users.reserve(n);

  for (ResourceId r = 0; r < m; ++r) {
    resources.emplace_back(r, &result.counters, gated, robust);
    const AgentId id = engine.add_agent(&resources.back());
    QOSLB_CHECK(id == r, "resource agent ids must equal resource ids");
  }

  Xoshiro256 placement_rng(config.seed ^ 0xA5A5A5A5ULL);
  for (UserId u = 0; u < n; ++u) {
    ResourceId start;
    if (!config.initial_assignment.empty()) {
      start = config.initial_assignment[u];
      QOSLB_REQUIRE(start < m, "initial_assignment entry out of range");
    } else if (config.random_start) {
      start = static_cast<ResourceId>(uniform_u64_below(placement_rng, m));
    } else {
      start = ResourceId{0};
    }
    users.emplace_back(u, &instance, start, &result.counters, gated, lambda,
                       robust, config.backoff, spans);
    const AgentId id = engine.add_agent(&users.back());
    QOSLB_CHECK(id == m + u, "user agent ids must follow resource ids");
    resources[start].add_resident(id, instance.threshold(u, start));
  }

  {
    obs::ScopedPhase dispatch(telemetry_on ? &virtual_clock : nullptr,
                              &result.telemetry.phases,
                              obs::Phase::kEventDispatch);
    result.events = engine.run(config.max_events);
  }
  if (telemetry_on) {
    result.telemetry.enabled = true;
    // One ScopedPhase interval, but the natural "count" for the dispatch
    // bucket is deliveries, not run() calls.
    result.telemetry.phases[obs::Phase::kEventDispatch].count = result.events;
  }
  if (spans != nullptr) {
    result.telemetry.span_events = span_trace.span_events;
    span_trace.sink->end_run();
  }
  result.virtual_time = engine.now();
  result.counters.events = result.events;
  result.hit_event_cap = engine.pending() > 0;
  result.termination = result.hit_event_cap ? Termination::kEventCap
                                            : Termination::kQuiesced;
  if (injector) result.faults = injector->stats();

  // Final satisfaction from the users' own view (consistent when the queue
  // drained; best-effort when max_events was hit).
  std::vector<int> loads(m, 0);
  for (const UserAgent& user : users) ++loads[user.current_resource()];
  for (UserId u = 0; u < n; ++u) {
    const ResourceId r = users[u].current_resource();
    if (loads[r] <= instance.threshold(u, r)) ++result.satisfied;
  }
  result.all_satisfied = result.satisfied == n;
  return result;
}

}  // namespace

AsyncRunResult run_async_admission(const Instance& instance,
                                   const EngineConfig& config) {
  return run_async(instance, config, /*gated=*/true, /*lambda=*/1.0);
}

AsyncRunResult run_async_optimistic(const Instance& instance, double lambda,
                                    const EngineConfig& config) {
  QOSLB_REQUIRE(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0,1]");
  return run_async(instance, config, /*gated=*/false, lambda);
}

}  // namespace qoslb
