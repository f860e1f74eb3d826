#pragma once

// The six sharded protocol kinds shared by the mode/thread invariance,
// telemetry, decision-trace and kill/restore matrices.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qoslb {

struct ShardedCase {
  std::string kind;
  double lambda;
};

inline const std::vector<ShardedCase>& sharded_cases() {
  static const std::vector<ShardedCase> kCases = {
      {"uniform", 0.5},      {"adaptive", 1.0},      {"admission", 1.0},
      {"nbr-uniform", 0.5},  {"nbr-admission", 1.0}, {"berenbrink", 1.0}};
  return kCases;
}

inline std::string case_name(const ::testing::TestParamInfo<ShardedCase>& info) {
  std::string name = info.param.kind;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

/// gtest prints the parameter into each test's listing (and CMake's test
/// discovery copies it into the ctest name); printing the fields instead of
/// the struct's bytes, which include a heap pointer, keeps names stable.
inline void PrintTo(const ShardedCase& c, std::ostream* os) {
  *os << c.kind << " lambda=" << c.lambda;
}

}  // namespace qoslb
