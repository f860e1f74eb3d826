// Self-tests for qoslb-lint (src/tools/lint): runs the rule engine against
// the known-violation fixture tree under tests/lint_fixtures/ and asserts
// exact rule hits, that the suppression syntax works, and — the gate the CI
// lint job relies on — that the repository tree itself is clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lint.hpp"
#include "util/json.hpp"

namespace {

using qoslb::lint::Finding;

std::vector<Finding> fixture_findings() {
  static const std::vector<Finding> kFindings =
      qoslb::lint::run({QOSLB_LINT_FIXTURES_DIR});
  return kFindings;
}

std::vector<Finding> findings_for(const std::string& file) {
  std::vector<Finding> out;
  for (const Finding& f : fixture_findings())
    if (f.file == file) out.push_back(f);
  return out;
}

std::vector<Finding> findings_for(const std::string& file,
                                  const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings_for(file))
    if (f.rule == rule) out.push_back(f);
  return out;
}

std::vector<int> lines_of(const std::vector<Finding>& fs) {
  std::vector<int> lines;
  for (const Finding& f : fs) lines.push_back(f.line);
  return lines;
}

TEST(LintRules, RuleTableIsStable) {
  std::vector<std::string> ids;
  for (const qoslb::lint::RuleInfo& r : qoslb::lint::rules())
    ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "QL001", "QL002", "QL003", "QL004", "QL005", "QL006",
                     "QL007", "QL008", "QL009", "QL010", "QL011", "QL012",
                     "QL013", "QL014", "QL015", "QL016"}));
}

TEST(LintRules, ExactFixtureHitCounts) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Finding& f : fixture_findings()) ++counts[{f.file, f.rule}];
  const std::map<std::pair<std::string, std::string>, int> expected = {
      {{".clang-format-allowlist", "QL006"}, 1},
      {{"src/bad_rng.cpp", "QL001"}, 1},
      {{"src/core/hot_path_bad.cpp", "QL015"}, 2},
      {{"src/core/layering_bad.hpp", "QL011"}, 2},
      {{"src/core/philox_bad.cpp", "QL013"}, 1},
      {{"src/core/potential.cpp", "QL005"}, 2},
      {{"src/core/protocols/iter_bad.cpp", "QL002"}, 2},
      {{"src/core/async/agents.cpp", "QL002"}, 1},
      {{"src/core/race_bad.cpp", "QL012"}, 2},
      {{"src/core/snapshot_bad.cpp", "QL008"}, 2},
      {{"src/core/window_tracker.hpp", "QL014"}, 1},
      {{"src/obs/schema_bad.cpp", "QL016"}, 2},
      {{"src/core/protocols/registry.cpp", "QL004"}, 2},
      {{"src/core/protocols/registry.cpp", "QL009"}, 3},
      {{"src/core/satisfaction_acc.hpp", "QL005"}, 2},
      {{"src/core/wall_clock.cpp", "QL003"}, 3},
      {{"src/orphan.cpp", "QL004"}, 1},
      {{"src/sim/steady_clock_bad.cpp", "QL007"}, 2},
      {{"src/sim/thread_spawn_bad.cpp", "QL010"}, 4},
      {{"src/util/worker_pool.cpp", "QL010"}, 2},
  };
  EXPECT_EQ(counts, expected);
}

TEST(LintRules, Ql001AnchorsTheBannedLine) {
  const std::vector<Finding> fs = findings_for("src/bad_rng.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "QL001");
  EXPECT_EQ(fs[0].line, 6);
  EXPECT_NE(fs[0].message.find("std::mt19937"), std::string::npos);
}

TEST(LintRules, Ql002FlagsRangeForAndIteratorWalks) {
  const std::vector<Finding> fs =
      findings_for("src/core/protocols/iter_bad.cpp");
  // Line 10 only compares an iterator against cend(): not a walk.
  EXPECT_EQ(lines_of(fs), (std::vector<int>{8, 9}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL002");
  // The DES agents are covered too; their find-then-compare lines (8, 9)
  // are clean and only the range-for is a hit.
  const std::vector<Finding> agents =
      findings_for("src/core/async/agents.cpp");
  EXPECT_EQ(lines_of(agents), (std::vector<int>{16}));
  for (const Finding& f : agents) EXPECT_EQ(f.rule, "QL002");
}

TEST(LintRules, Ql003FlagsClockEnvAndTimerInclude) {
  const std::vector<Finding> fs = findings_for("src/core/wall_clock.cpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{4, 9, 10}));
  EXPECT_NE(fs[0].message.find("util/timer.hpp"), std::string::npos);
  EXPECT_NE(fs[1].message.find("system_clock"), std::string::npos);
  EXPECT_NE(fs[2].message.find("getenv"), std::string::npos);
}

TEST(LintRules, Ql004CatchesBothRegistryMismatchDirections) {
  const std::vector<Finding> fs =
      findings_for("src/core/protocols/registry.cpp", "QL004");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_NE(fs[0].message.find("'bad'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("does not define step_users"),
            std::string::npos);
  EXPECT_NE(fs[1].message.find("'understated'"), std::string::npos);
  EXPECT_NE(fs[1].message.find("returns true"), std::string::npos);
}

TEST(LintRules, Ql009CatchesAllThreeRestrictedContractDirections) {
  const std::vector<Finding> fs =
      findings_for("src/core/protocols/registry.cpp", "QL009");
  ASSERT_EQ(fs.size(), 3u);
  // Sorted by registry-entry line: r-bad, r-understated, r-unsafe.
  EXPECT_NE(fs[0].message.find("'r-bad'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("does not return true"), std::string::npos);
  EXPECT_NE(fs[1].message.find("'r-understated'"), std::string::npos);
  EXPECT_NE(fs[1].message.find("returns true"), std::string::npos);
  EXPECT_NE(fs[2].message.find("'r-unsafe'"), std::string::npos);
  EXPECT_NE(fs[2].message.find("sample_reachable"), std::string::npos);
}

TEST(LintRules, Ql004FlagsCMakeOrphans) {
  const std::vector<Finding> fs = findings_for("src/orphan.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "QL004");
  EXPECT_NE(fs[0].message.find("CMakeLists.txt"), std::string::npos);
}

TEST(LintRules, Ql007FlagsSteadyClockReadAndWrapperInSimCore) {
  const std::vector<Finding> fs = findings_for("src/sim/steady_clock_bad.cpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{9, 13}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL007");
  EXPECT_NE(fs[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(fs[1].message.find("SteadyClock"), std::string::npos);
}

TEST(LintRules, Ql006FlagsStaleAllowlistEntries) {
  const std::vector<Finding> fs = findings_for(".clang-format-allowlist");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_NE(fs[0].message.find("src/not_there.cpp"), std::string::npos);
}

TEST(LintRules, Ql008FlagsBothContractDirections) {
  const std::vector<Finding> fs = findings_for("src/core/snapshot_bad.cpp");
  ASSERT_EQ(fs.size(), 2u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL008");
  // Sorted by line: the write-side finding anchors at write_snapshot's
  // definition, the read-side one at read_snapshot's.
  EXPECT_EQ(fs[0].line, 16);
  EXPECT_NE(fs[0].message.find("'beta'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("never read"), std::string::npos);
  EXPECT_EQ(fs[1].line, 21);
  EXPECT_NE(fs[1].message.find("'gamma'"), std::string::npos);
  EXPECT_NE(fs[1].message.find("never written"), std::string::npos);
}

TEST(LintRules, Ql010FlagsEverySpawnPrimitiveButNotMemberReads) {
  const std::vector<Finding> fs = findings_for("src/sim/thread_spawn_bad.cpp");
  // One hit per spawn line; the std::thread::hardware_concurrency() read on
  // line 12 must not appear.
  EXPECT_EQ(lines_of(fs), (std::vector<int>{16, 17, 18, 20}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL010");
  EXPECT_NE(fs[0].message.find("std::thread construction"), std::string::npos);
  EXPECT_NE(fs[1].message.find("std::jthread"), std::string::npos);
  EXPECT_NE(fs[2].message.find("std::async"), std::string::npos);
  EXPECT_NE(fs[3].message.find("pthread_create"), std::string::npos);
  EXPECT_NE(fs[0].message.find("RoundWorkerPool"), std::string::npos);
}

TEST(LintScope, Ql010ExemptsTheWorkerPoolItself) {
  // sim/worker_pool.* is the sanctioned spawn site: the same construction
  // that fires four findings above yields none here.
  EXPECT_TRUE(findings_for("src/sim/worker_pool.cpp").empty());
}

TEST(LintScope, Ql010CoversEveryLibraryDirectory) {
  // The rule reaches past core/ and sim/, and its exemption is the
  // sim/worker_pool.* path, not the file name: a pool in util/ is flagged
  // even under the sanctioned basename.
  const std::vector<Finding> fs = findings_for("src/util/worker_pool.cpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{12, 13}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL010");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_NE(fs[0].message.find("std::thread construction"), std::string::npos);
  EXPECT_NE(fs[1].message.find("std::async"), std::string::npos);
}

TEST(LintSuppressions, SameLineAllowSilencesTheFinding) {
  EXPECT_TRUE(findings_for("src/suppressed_rng.cpp").empty());
}

TEST(LintSuppressions, PrecedingCommentLineAllowWorks) {
  // satisfaction_acc.hpp has one float suppressed by a comment line directly
  // above it and two unsuppressed ones; only the latter may surface.
  const std::vector<Finding> fs =
      findings_for("src/core/satisfaction_acc.hpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{9, 10}));
}

TEST(LintSuppressions, AllowFileSilencesTheWholeFile) {
  EXPECT_TRUE(findings_for("src/allow_file.cpp").empty());
}

TEST(LintScope, RngDirectoryMayUseStandardEngines) {
  EXPECT_TRUE(findings_for("src/rng/keyed_ok.cpp").empty());
}

TEST(LintScope, ObsDirectoryMayReadSteadyClock) {
  EXPECT_TRUE(findings_for("src/obs/clock_ok.cpp").empty());
}

TEST(LintScope, CleanFileHasNoFindings) {
  EXPECT_TRUE(findings_for("src/clean.cpp").empty());
}

TEST(LintRules, Ql011FlagsInvertedLayerEdgesOnly) {
  // Two upward includes fire; the core->rng include on the next line is the
  // in-file control and must not.
  const std::vector<Finding> fs = findings_for("src/core/layering_bad.hpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{6, 7}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL011");
  EXPECT_NE(fs[0].message.find("sim/accounting.hpp"), std::string::npos);
  EXPECT_NE(fs[0].message.find("core/ may include only"), std::string::npos);
  EXPECT_NE(fs[1].message.find("obs/telemetry.hpp"), std::string::npos);
}

TEST(LintScope, Ql011EngineSeamMayIncludeSimAndObs) {
  // The same includes that fire in layering_bad.hpp are sanctioned in the
  // engine TU — the declared core->sim/obs orchestration seam.
  EXPECT_TRUE(findings_for("src/core/engine.cpp").empty());
}

TEST(LintRules, Ql012FlagsDirectAndCallGraphReachedMutations) {
  const std::vector<Finding> fs = findings_for("src/core/race_bad.cpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{12, 17}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL012");
  // Line 12 sits in apply_now(), one hop below step_users(): its why chain
  // must carry both steps, root first.
  EXPECT_NE(fs[0].message.find("loads array"), std::string::npos);
  ASSERT_EQ(fs[0].why.size(), 2u);
  EXPECT_NE(fs[0].why[0].find("step_users"), std::string::npos);
  EXPECT_NE(fs[0].why[1].find("apply_now"), std::string::npos);
  // Line 17 is in the root itself: a one-step chain.
  EXPECT_NE(fs[1].message.find("State::move()"), std::string::npos);
  ASSERT_EQ(fs[1].why.size(), 1u);
  EXPECT_NE(fs[1].why[0].find("step_users"), std::string::npos);
}

TEST(LintScope, Ql012AllowsCommitRoundMutations) {
  // Staging in step_users() plus mutating in commit_round() is the
  // sanctioned migration shape.
  EXPECT_TRUE(findings_for("src/core/race_ok.cpp").empty());
}

TEST(LintRules, Ql013FlagsRawKeyedPhiloxConstruction) {
  const std::vector<Finding> fs = findings_for("src/core/philox_bad.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "QL013");
  EXPECT_EQ(fs[0].line, 9);
  EXPECT_NE(fs[0].message.find("'raw_seed'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("mix64"), std::string::npos);
}

TEST(LintScope, Ql013ResolvesSanctionedKeysInterprocedurally) {
  // draw()'s key parameter is clean only because every caller routes the
  // argument through mix64(); the dataflow walk must chase it.
  EXPECT_TRUE(findings_for("src/core/philox_ok.cpp").empty());
}

TEST(LintRules, Ql014FlagsTheUnserializedMemberOnly) {
  // omega_ fires; alpha_ matches the field list, span_rounds_ is covered by
  // its as(window) annotation and cached_best_ by transient.
  const std::vector<Finding> fs = findings_for("src/core/window_tracker.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "QL014");
  EXPECT_EQ(fs[0].line, 21);
  EXPECT_NE(fs[0].message.find("'omega_'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("WindowTracker"), std::string::npos);
}

TEST(LintRules, Ql015FlagsLocksAndReachableAllocations) {
  const std::vector<Finding> fs = findings_for("src/core/hot_path_bad.cpp");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{10, 15}));
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL015");
  EXPECT_NE(fs[0].message.find("heap allocation"), std::string::npos);
  ASSERT_EQ(fs[0].why.size(), 2u);
  EXPECT_NE(fs[0].why[1].find("grow_scratch"), std::string::npos);
  EXPECT_NE(fs[1].message.find("lock acquisition"), std::string::npos);
}

TEST(LintSuppressions, Ql015PerCallSiteAllowWorks) {
  EXPECT_TRUE(findings_for("src/core/hot_path_ok.cpp").empty());
}

TEST(LintRules, Ql016FlagsUndocumentedKeyAndMetricName) {
  const std::vector<Finding> fs = findings_for("src/obs/schema_bad.cpp");
  ASSERT_EQ(fs.size(), 2u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "QL016");
  // Sorted by line: the JSONL-key hit, then the registration hit. The
  // documented 'kind' key on the same line must not fire.
  EXPECT_EQ(fs[0].line, 13);
  EXPECT_NE(fs[0].message.find("'mystery'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("schema drift"), std::string::npos);
  EXPECT_EQ(fs[1].line, 14);
  EXPECT_NE(fs[1].message.find("'engine/bogus_counter'"), std::string::npos);
}

TEST(LintScope, Ql016AcceptsComposedWildcardNamesAndSuppression) {
  // phase/<name>_seconds covers the std::string("phase/") + ... + "_seconds"
  // concatenation; the undocumented key is silenced by allow(QL016); the
  // literal-free gauge(phase) registration is out of scope.
  EXPECT_TRUE(findings_for("src/obs/schema_ok.cpp").empty());
}

TEST(LintFormat, HumanAndFixListRenderings) {
  const std::vector<Finding> one = {{"QL001", "src/x.cpp", 7, "boom"}};
  EXPECT_EQ(qoslb::lint::format(one, /*fix_list=*/false),
            "src/x.cpp:7: [QL001] boom\n");
  EXPECT_EQ(qoslb::lint::format(one, /*fix_list=*/true),
            "QL001\tsrc/x.cpp\t7\n");
}

// Golden test for the SARIF writer: the emitted log must round-trip through
// the repo's own JSON reader and carry the 2.1.0 shape CI consumers (GitHub
// code scanning, sarif-tools) rely on.
TEST(LintSarif, EmitsWellFormedSarif210) {
  const std::vector<Finding> two = {
      {"QL012", "src/core/race_bad.cpp", 17, "State::move() reached",
       {"src/core/race_bad.cpp:16 step_users"}},
      {"QL001", "src/x.cpp", 7, "line says \"rand()\""},
  };
  const qoslb::json::Value log = qoslb::json::parse(qoslb::lint::sarif(two));

  EXPECT_EQ(log.find("$schema")->as_string(),
            "https://json.schemastore.org/sarif-2.1.0.json");
  EXPECT_EQ(log.find("version")->as_string(), "2.1.0");
  const qoslb::json::Value& run = log.find("runs")->items().at(0);
  const qoslb::json::Value* driver = run.find("tool")->find("driver");
  EXPECT_EQ(driver->find("name")->as_string(), "qoslb-lint");
  // One rule descriptor per registered rule, in ID order.
  const auto& rule_descs = driver->find("rules")->items();
  ASSERT_EQ(rule_descs.size(), qoslb::lint::rules().size());
  EXPECT_EQ(rule_descs.front().find("id")->as_string(), "QL001");
  EXPECT_EQ(rule_descs.back().find("id")->as_string(), "QL016");

  const auto& results = run.find("results")->items();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("ruleId")->as_string(), "QL012");
  EXPECT_EQ(results[0].find("level")->as_string(), "error");
  // The call chain rides inside the message text.
  EXPECT_NE(results[0].find("message")->find("text")->as_string().find(
                "[call path: src/core/race_bad.cpp:16 step_users]"),
            std::string::npos);
  const qoslb::json::Value* physical =
      results[0].find("locations")->items().at(0).find("physicalLocation");
  EXPECT_EQ(physical->find("artifactLocation")->find("uri")->as_string(),
            "src/core/race_bad.cpp");
  EXPECT_EQ(physical->find("region")->find("startLine")->as_number(), 17);
  // Quotes in messages must come back intact through escaping.
  EXPECT_EQ(results[1].find("message")->find("text")->as_string(),
            "line says \"rand()\"");
}

TEST(LintSarif, EmptyFindingsStillProduceAValidLog) {
  const qoslb::json::Value log = qoslb::json::parse(qoslb::lint::sarif({}));
  EXPECT_TRUE(
      log.find("runs")->items().at(0).find("results")->items().empty());
}

// The acceptance gate: the repository tree itself must be clean. Any
// violation reintroduced anywhere in src/, bench/, tests/, or examples/
// fails this test with the offending file:line in the message.
TEST(LintTree, RepositoryIsClean) {
  const std::vector<Finding> fs = qoslb::lint::run({QOSLB_REPO_ROOT_DIR});
  EXPECT_TRUE(fs.empty()) << qoslb::lint::format(fs, /*fix_list=*/false);
}

}  // namespace
