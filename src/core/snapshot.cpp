#include "core/snapshot.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/protocol.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("qoslb snapshot: " + message);
}

/// Next non-empty, non-comment line; throws at EOF.
std::string next_line(std::istream& in, const char* what) {
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    return std::string(trimmed);
  }
  fail(std::string("unexpected end of input while reading ") + what);
}

std::uint64_t read_named_u64(std::istream& in, const std::string& keyword) {
  const std::string line = next_line(in, keyword.c_str());
  std::istringstream parts(line);
  std::string word;
  std::uint64_t value = 0;
  if (!(parts >> word >> value) || word != keyword)
    fail("expected '" + keyword + " <value>', got '" + line + "'");
  std::string extra;
  if (parts >> extra) fail("trailing garbage on '" + line + "'");
  return value;
}

std::size_t read_count(std::istream& in, const std::string& keyword) {
  return static_cast<std::size_t>(read_named_u64(in, keyword));
}

double read_named_double(std::istream& in, const std::string& keyword) {
  const std::string line = next_line(in, keyword.c_str());
  std::istringstream parts(line);
  std::string word, number;
  if (!(parts >> word >> number) || word != keyword)
    fail("expected '" + keyword + " <value>', got '" + line + "'");
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(number, &consumed);
  } catch (const std::exception&) {
    fail("bad number on '" + line + "'");
  }
  if (consumed != number.size()) fail("trailing garbage on '" + line + "'");
  return value;
}

double read_double(std::istream& in, const char* what) {
  const std::string line = next_line(in, what);
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(line, &consumed);
  } catch (const std::exception&) {
    fail(std::string("bad number for ") + what + ": '" + line + "'");
  }
  if (consumed != line.size())
    fail(std::string("trailing garbage after ") + what + ": '" + line + "'");
  return value;
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  const std::string line = next_line(in, what);
  std::size_t consumed = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(line, &consumed);
  } catch (const std::exception&) {
    fail(std::string("bad integer for ") + what + ": '" + line + "'");
  }
  if (consumed != line.size())
    fail(std::string("trailing garbage after ") + what + ": '" + line + "'");
  return value;
}

bool read_named_bool(std::istream& in, const std::string& keyword) {
  const std::uint64_t value = read_named_u64(in, keyword);
  if (value > 1) fail("boolean field '" + keyword + "' must be 0 or 1");
  return value != 0;
}

constexpr char kMagicV1[] = "qoslb-snapshot v1";
constexpr char kMagicV2[] = "qoslb-snapshot v2";

}  // namespace

void write_snapshot(std::ostream& out, const SnapshotV1& snapshot) {
  const auto previous = out.precision(std::numeric_limits<double>::max_digits10);
  out << kMagicV2 << '\n';
  out << "protocol " << snapshot.protocol << '\n';
  out << "next_round " << snapshot.next_round << '\n';
  out << "master_seed " << snapshot.master_seed << '\n';
  out << "resources " << snapshot.capacities.size() << '\n';
  for (const double capacity : snapshot.capacities) out << capacity << '\n';
  out << "users " << snapshot.requirements.size() << '\n';
  for (const double requirement : snapshot.requirements)
    out << requirement << '\n';
  const RateModel& rates = snapshot.rate_model;
  switch (rates.kind()) {
    case RateModelKind::kUniform:
      out << "rate_model " << "uniform" << '\n';
      break;
    case RateModelKind::kMatrix:
      out << "rate_model " << "matrix" << '\n';
      out << "rates " << rates.matrix_rates().size() << '\n';
      for (const double rate : rates.matrix_rates()) out << rate << '\n';
      break;
    case RateModelKind::kBipartite: {
      out << "rate_model " << "bipartite" << '\n';
      const std::vector<RateEdge> edges = rates.edges();
      out << "edges " << edges.size() << '\n';
      for (const RateEdge& e : edges)
        out << e.user << ' ' << e.resource << ' ' << e.rate << '\n';
      break;
    }
  }
  out << "assignment " << snapshot.assignment.size() << '\n';
  for (const ResourceId r : snapshot.assignment) out << r << '\n';
  out << "live " << snapshot.live.size() << '\n';
  for (const std::uint8_t bit : snapshot.live)
    out << static_cast<int>(bit) << '\n';
  const Counters& c = snapshot.counters;
  out << "counters " << 10 << '\n';
  out << "probes " << c.probes << '\n';
  out << "migrate_requests " << c.migrate_requests << '\n';
  out << "grants " << c.grants << '\n';
  out << "rejects " << c.rejects << '\n';
  out << "migrations " << c.migrations << '\n';
  out << "rounds " << c.rounds << '\n';
  out << "events " << c.events << '\n';
  out << "timeouts " << c.timeouts << '\n';
  out << "retries " << c.retries << '\n';
  out << "stale_drops " << c.stale_drops << '\n';
  const ChurnTracker& t = snapshot.churn;
  out << "churn " << 10 << '\n';
  out << "failures " << t.stats.failures << '\n';
  out << "recoveries " << t.stats.recoveries << '\n';
  out << "evicted " << t.stats.evicted << '\n';
  out << "max_dip_depth " << t.stats.max_dip_depth << '\n';
  out << "max_recovery_rounds " << t.stats.max_recovery_rounds << '\n';
  out << "dip_open " << (t.stats.dip_open ? 1 : 0) << '\n';
  out << "in_dip " << (t.in_dip ? 1 : 0) << '\n';
  out << "dip_start_round " << t.dip_start_round << '\n';
  out << "baseline_satisfied " << t.baseline_satisfied << '\n';
  out << "min_satisfied " << t.min_satisfied << '\n';
  std::size_t state_lines = 0;
  for (const char ch : snapshot.protocol_state)
    if (ch == '\n') ++state_lines;
  out << "protocol_state " << state_lines << '\n';
  out << snapshot.protocol_state;
  out.precision(previous);
}

SnapshotV1 read_snapshot(std::istream& in) {
  const std::string magic = next_line(in, "the format magic");
  if (magic != kMagicV1 && magic != kMagicV2)
    fail("unsupported format version '" + magic + "' (expected '" +
         kMagicV1 + "' or '" + kMagicV2 + "')");
  const bool v2 = magic == kMagicV2;
  SnapshotV1 snapshot;
  const std::string protocol_line = next_line(in, "the protocol name");
  const std::string protocol_keyword = "protocol ";
  if (protocol_line.rfind(protocol_keyword, 0) != 0)
    fail("expected 'protocol <name>', got '" + protocol_line + "'");
  snapshot.protocol = protocol_line.substr(protocol_keyword.size());
  if (snapshot.protocol.empty()) fail("empty protocol name");
  snapshot.next_round = read_named_u64(in, "next_round");
  snapshot.master_seed = read_named_u64(in, "master_seed");
  const std::size_t m = read_count(in, "resources");
  snapshot.capacities.resize(m);
  for (auto& capacity : snapshot.capacities)
    capacity = read_double(in, "capacity value");
  const std::size_t n = read_count(in, "users");
  snapshot.requirements.resize(n);
  for (auto& requirement : snapshot.requirements)
    requirement = read_double(in, "requirement value");
  if (v2) {
    // v1 predates the rate-model block; its absence means uniform rates.
    const std::string kind_line = next_line(in, "the rate model kind");
    std::istringstream kind_parts(kind_line);
    std::string word, kind;
    if (!(kind_parts >> word >> kind) || word != "rate_model")
      fail("expected 'rate_model <kind>', got '" + kind_line + "'");
    if (kind == "uniform") {
      snapshot.rate_model = RateModel::uniform();
    } else if (kind == "matrix") {
      const std::size_t values = read_count(in, "rates");
      if (values != n * m)
        fail("rates block lists " + std::to_string(values) + " values for a " +
             std::to_string(n) + " x " + std::to_string(m) + " instance");
      std::vector<double> rate_values(values);
      for (auto& rate : rate_values) rate = read_double(in, "rate value");
      try {
        snapshot.rate_model = RateModel::matrix(n, m, std::move(rate_values));
      } catch (const std::invalid_argument& error) {
        fail(std::string("invalid rate matrix: ") + error.what());
      }
    } else if (kind == "bipartite") {
      const std::size_t edge_count = read_count(in, "edges");
      std::vector<RateEdge> edge_list(edge_count);
      for (auto& edge : edge_list) {
        const std::string line = next_line(in, "an access-graph edge");
        std::istringstream parts(line);
        std::uint64_t user = 0;
        std::uint64_t resource = 0;
        double rate = 0.0;
        std::string extra;
        if (!(parts >> user >> resource >> rate) || (parts >> extra))
          fail("expected '<user> <resource> <rate>', got '" + line + "'");
        if (user >= n || resource >= m)
          fail("edge endpoint out of range on '" + line + "'");
        edge = {static_cast<UserId>(user), static_cast<ResourceId>(resource),
                rate};
      }
      try {
        snapshot.rate_model =
            RateModel::bipartite(n, m, std::move(edge_list));
      } catch (const std::invalid_argument& error) {
        fail(std::string("invalid access graph: ") + error.what());
      }
    } else {
      fail("unknown rate model kind '" + kind + "'");
    }
  }
  const std::size_t assigned = read_count(in, "assignment");
  if (assigned != n)
    fail("assignment block covers " + std::to_string(assigned) + " of " +
         std::to_string(n) + " users");
  snapshot.assignment.resize(n);
  for (auto& r : snapshot.assignment) {
    const std::uint64_t id = read_u64(in, "assignment entry");
    if (id >= m) fail("assignment entry " + std::to_string(id) + " out of range");
    r = static_cast<ResourceId>(id);
  }
  const std::size_t live_bits = read_count(in, "live");
  if (live_bits != m)
    fail("live block covers " + std::to_string(live_bits) + " of " +
         std::to_string(m) + " resources");
  snapshot.live.resize(m);
  for (auto& bit : snapshot.live) {
    const std::uint64_t value = read_u64(in, "live bit");
    if (value > 1) fail("live bit must be 0 or 1");
    bit = static_cast<std::uint8_t>(value);
  }
  const std::size_t counter_fields = read_count(in, "counters");
  if (counter_fields != 10)
    fail("counters block must list exactly 10 fields");
  Counters& c = snapshot.counters;
  c.probes = read_named_u64(in, "probes");
  c.migrate_requests = read_named_u64(in, "migrate_requests");
  c.grants = read_named_u64(in, "grants");
  c.rejects = read_named_u64(in, "rejects");
  c.migrations = read_named_u64(in, "migrations");
  c.rounds = read_named_u64(in, "rounds");
  c.events = read_named_u64(in, "events");
  c.timeouts = read_named_u64(in, "timeouts");
  c.retries = read_named_u64(in, "retries");
  c.stale_drops = read_named_u64(in, "stale_drops");
  const std::size_t churn_fields = read_count(in, "churn");
  if (churn_fields != 10) fail("churn block must list exactly 10 fields");
  ChurnTracker& t = snapshot.churn;
  t.stats.failures = read_named_u64(in, "failures");
  t.stats.recoveries = read_named_u64(in, "recoveries");
  t.stats.evicted = read_named_u64(in, "evicted");
  t.stats.max_dip_depth = read_named_double(in, "max_dip_depth");
  t.stats.max_recovery_rounds = read_named_u64(in, "max_recovery_rounds");
  t.stats.dip_open = read_named_bool(in, "dip_open");
  t.in_dip = read_named_bool(in, "in_dip");
  t.dip_start_round = read_named_u64(in, "dip_start_round");
  t.baseline_satisfied = read_named_u64(in, "baseline_satisfied");
  t.min_satisfied = read_named_u64(in, "min_satisfied");
  const std::size_t state_lines = read_count(in, "protocol_state");
  snapshot.protocol_state.clear();
  for (std::size_t i = 0; i < state_lines; ++i) {
    // Verbatim payload: raw getline, no blank/comment skipping.
    std::string line;
    if (!std::getline(in, line)) fail("truncated protocol state block");
    snapshot.protocol_state += line;
    snapshot.protocol_state += '\n';
  }
  return snapshot;
}

Instance SnapshotV1::make_instance() const {
  try {
    if (rate_model.is_uniform()) return Instance(capacities, requirements);
    return Instance(capacities, requirements, rate_model);
  } catch (const std::invalid_argument& error) {
    fail(std::string("invalid instance data: ") + error.what());
  }
}

State SnapshotV1::make_state(const Instance& instance) const {
  QOSLB_REQUIRE(instance.num_resources() == capacities.size() &&
                    instance.num_users() == requirements.size(),
                "instance does not match the checkpoint dimensions");
  for (const ResourceId r : assignment)
    QOSLB_REQUIRE(r < live.size() && live[r] != 0,
                  "checkpointed user resides on a dead resource");
  State state(instance, assignment);
  for (ResourceId r = 0; r < live.size(); ++r)
    if (live[r] == 0) state.set_resource_live(r, false);
  return state;
}

SnapshotV1 capture_snapshot(const Protocol& protocol, const State& state,
                            std::uint64_t master_seed,
                            std::uint64_t next_round, const Counters& counters,
                            const ChurnTracker& churn) {
  const Instance& instance = state.instance();
  // SnapshotV1 carries no weights; a restore would rebuild a unit instance.
  QOSLB_REQUIRE(!instance.weighted(),
                "checkpoints do not serialize user weights");
  SnapshotV1 snapshot;
  snapshot.protocol = protocol.name();
  snapshot.next_round = next_round;
  snapshot.master_seed = master_seed;
  snapshot.capacities.reserve(instance.num_resources());
  for (ResourceId r = 0; r < instance.num_resources(); ++r)
    snapshot.capacities.push_back(instance.capacity(r));
  snapshot.requirements.reserve(instance.num_users());
  for (UserId u = 0; u < instance.num_users(); ++u)
    snapshot.requirements.push_back(instance.requirement(u));
  snapshot.rate_model = instance.rate_model();
  snapshot.assignment.reserve(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    snapshot.assignment.push_back(state.resource_of(u));
  snapshot.live.reserve(state.num_resources());
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    snapshot.live.push_back(state.resource_live(r) ? 1 : 0);
  snapshot.counters = counters;
  snapshot.churn = churn;
  std::ostringstream protocol_state;
  protocol.snapshot_write(protocol_state);
  snapshot.protocol_state = protocol_state.str();
  QOSLB_CHECK(snapshot.protocol_state.empty() ||
                  snapshot.protocol_state.back() == '\n',
              "protocol snapshot state must be newline-terminated");
  return snapshot;
}

std::uint64_t state_hash(const State& state) {
  std::uint64_t h = mix64(0xC0DE'5EED'5EED'C0DEULL);
  h = mix64(h ^ state.num_users());
  h = mix64(h ^ state.num_resources());
  for (UserId u = 0; u < state.num_users(); ++u)
    h = mix64(h ^ (state.resource_of(u) + 0x9E3779B97F4A7C15ULL));
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    h = mix64(h ^ (state.resource_live(r) ? 2 : 1));
  return h;
}

}  // namespace qoslb
