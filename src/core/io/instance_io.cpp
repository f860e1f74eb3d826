#include "core/io/instance_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace qoslb {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("qoslb io: " + message);
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

std::size_t read_count(std::istream& in, const std::string& keyword) {
  const std::string line = next_line(in, keyword.c_str());
  std::istringstream parts(line);
  std::string word;
  long long count = -1;
  if (!(parts >> word >> count) || word != keyword || count < 0)
    fail("expected '" + keyword + " <count>', got '" + line + "'");
  return static_cast<std::size_t>(count);
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

void expect_magic(std::istream& in, const char* magic) {
  const std::string line = next_line(in, magic);
  if (line != magic) fail(std::string("expected '") + magic + "', got '" + line + "'");
}

}  // namespace

void write_instance(std::ostream& out, const Instance& instance) {
  // The v2 format has no weight section; dropping the weights would
  // silently turn the instance into a different problem.
  if (instance.weighted()) fail("write_instance does not serialize user weights");
  const auto previous = out.precision(std::numeric_limits<double>::max_digits10);
  out << "qoslb-instance v2\n";
  out << "resources " << instance.num_resources() << '\n';
  for (ResourceId r = 0; r < instance.num_resources(); ++r)
    out << instance.capacity(r) << '\n';
  out << "users " << instance.num_users() << '\n';
  for (UserId u = 0; u < instance.num_users(); ++u)
    out << instance.requirement(u) << '\n';
  const RateModel& rates = instance.rate_model();
  switch (rates.kind()) {
    case RateModelKind::kUniform:
      out << "rate_model uniform\n";
      break;
    case RateModelKind::kMatrix:
      out << "rate_model matrix\n";
      out << "rates " << rates.matrix_rates().size() << '\n';
      for (const double rate : rates.matrix_rates()) out << rate << '\n';
      break;
    case RateModelKind::kBipartite: {
      out << "rate_model bipartite\n";
      const std::vector<RateEdge> edges = rates.edges();
      out << "edges " << edges.size() << '\n';
      for (const RateEdge& e : edges)
        out << e.user << ' ' << e.resource << ' ' << e.rate << '\n';
      break;
    }
  }
  out.precision(previous);
}

Instance read_instance(std::istream& in) {
  const std::string magic = next_line(in, "the format magic");
  if (magic != "qoslb-instance v1" && magic != "qoslb-instance v2")
    fail("expected 'qoslb-instance v1' or 'qoslb-instance v2', got '" +
         magic + "'");
  const bool v2 = magic == "qoslb-instance v2";
  const std::size_t m = read_count(in, "resources");
  std::vector<double> capacities(m);
  for (auto& capacity : capacities) capacity = read_double(in, "capacity");
  const std::size_t n = read_count(in, "users");
  std::vector<double> requirements(n);
  for (auto& requirement : requirements)
    requirement = read_double(in, "requirement");
  RateModel rates;  // v1 carries no block: uniform
  if (v2) {
    const std::string kind_line = next_line(in, "the rate model kind");
    std::istringstream kind_parts(kind_line);
    std::string word, kind;
    if (!(kind_parts >> word >> kind) || word != "rate_model")
      fail("expected 'rate_model <kind>', got '" + kind_line + "'");
    if (kind == "uniform") {
      rates = RateModel::uniform();
    } else if (kind == "matrix") {
      const std::size_t values = read_count(in, "rates");
      if (values != n * m)
        fail("rates block lists " + std::to_string(values) + " values for a " +
             std::to_string(n) + " x " + std::to_string(m) + " instance");
      std::vector<double> rate_values(values);
      for (auto& rate : rate_values) rate = read_double(in, "rate");
      try {
        rates = RateModel::matrix(n, m, std::move(rate_values));
      } catch (const std::invalid_argument& error) {
        fail(std::string("invalid rate matrix: ") + error.what());
      }
    } else if (kind == "bipartite") {
      const std::size_t edge_count = read_count(in, "edges");
      std::vector<RateEdge> edge_list(edge_count);
      for (auto& edge : edge_list) {
        const std::string line = next_line(in, "an access-graph edge");
        std::istringstream parts(line);
        unsigned long long user = 0;
        unsigned long long resource = 0;
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
        rates = RateModel::bipartite(n, m, std::move(edge_list));
      } catch (const std::invalid_argument& error) {
        fail(std::string("invalid access graph: ") + error.what());
      }
    } else {
      fail("unknown rate model kind '" + kind + "'");
    }
  }
  try {
    if (rates.is_uniform())
      return Instance(std::move(capacities), std::move(requirements));
    return Instance(std::move(capacities), std::move(requirements),
                    std::move(rates));
  } catch (const std::invalid_argument& error) {
    fail(std::string("invalid instance data: ") + error.what());
  }
}

void write_state(std::ostream& out, const State& state) {
  out << "qoslb-state v1\n";
  out << "users " << state.num_users() << '\n';
  for (UserId u = 0; u < state.num_users(); ++u)
    out << state.resource_of(u) << '\n';
}

State read_state(std::istream& in, const Instance& instance) {
  expect_magic(in, "qoslb-state v1");
  const std::size_t n = read_count(in, "users");
  if (n != instance.num_users())
    fail("state has " + std::to_string(n) + " users, instance has " +
         std::to_string(instance.num_users()));
  std::vector<ResourceId> assignment(n);
  for (auto& r : assignment) {
    const double value = read_double(in, "resource id");
    const auto id = static_cast<long long>(value);
    if (value != static_cast<double>(id) || id < 0 ||
        static_cast<std::size_t>(id) >= instance.num_resources())
      fail("bad resource id " + std::to_string(value));
    r = static_cast<ResourceId>(id);
  }
  return State(instance, std::move(assignment));
}

}  // namespace qoslb
