// cellrel-lint rule tests, driven against the fixture trees in
// tests/lint_fixtures and against inline sources.

#include "lint/cellrel_lint.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#ifndef CELLREL_LINT_FIXTURE_DIR
#error "CELLREL_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif

namespace cellrel::lint {
namespace {

const std::filesystem::path kFixtures = CELLREL_LINT_FIXTURE_DIR;

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

long count_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::count_if(vs.begin(), vs.end(),
                       [&](const Violation& v) { return v.rule == rule; });
}

TEST(CellrelLint, CleanModulePasses) {
  const auto violations = lint_tree(kFixtures / "clean");
  EXPECT_TRUE(violations.empty())
      << violations.size() << " unexpected violation(s), first: "
      << (violations.empty() ? "" : violations[0].file + ": " + violations[0].message);
}

TEST(CellrelLint, LayeringViolationDetected) {
  const auto violations = lint_tree(kFixtures / "layering_violation");
  ASSERT_TRUE(has_rule(violations, "layering"));
  const auto it = std::find_if(violations.begin(), violations.end(),
                               [](const Violation& v) { return v.rule == "layering"; });
  EXPECT_EQ(it->file, "common/bad.h");
  EXPECT_EQ(it->line, 4u);
  EXPECT_NE(it->message.find("telephony"), std::string::npos);
}

TEST(CellrelLint, ScenarioPackEdgesRegisteredInLayerDag) {
  // The scenario pack's new module edges: workload -> {bs, device, net} is
  // the sanctioned direction; net reaching up into workload/mobility.h must
  // be the tree's only finding.
  const auto violations = lint_tree(kFixtures / "mobility_layering");
  ASSERT_EQ(count_rule(violations, "layering"), 1)
      << "expected exactly the seeded upward edge";
  const auto it = std::find_if(violations.begin(), violations.end(),
                               [](const Violation& v) { return v.rule == "layering"; });
  EXPECT_EQ(it->file, "net/bad_mobility_reach.h");
  EXPECT_NE(it->message.find("workload"), std::string::npos);
  for (const Violation& v : violations) {
    EXPECT_NE(v.file, "workload/ok_mobility.h") << v.message;
  }
}

TEST(CellrelLint, SystemClockBanDetected) {
  const auto violations = lint_tree(kFixtures / "nondeterminism");
  ASSERT_TRUE(has_rule(violations, "nondeterminism"));
  const auto it = std::find_if(violations.begin(), violations.end(), [](const Violation& v) {
    return v.rule == "nondeterminism";
  });
  EXPECT_EQ(it->file, "sim/clock.cpp");
  EXPECT_NE(it->message.find("system_clock"), std::string::npos);
}

TEST(CellrelLint, NakedNewAndDeleteDetected) {
  const auto violations = lint_tree(kFixtures / "naked_new");
  EXPECT_EQ(std::count_if(violations.begin(), violations.end(),
                          [](const Violation& v) { return v.rule == "naked-new"; }),
            2);
}

TEST(CellrelLint, BatchHygieneFixtureTree) {
  const auto violations = lint_tree(kFixtures / "batch_hygiene");
  // analysis/batch.h seeds a raw string member, a per-record std::string
  // construction, and a make_unique; the string_view column, the comment
  // mentions, and the identical tokens in labels.h (not a hot file) must
  // all stay silent.
  EXPECT_EQ(std::count_if(violations.begin(), violations.end(),
                          [](const Violation& v) { return v.rule == "batch-hygiene"; }),
            3);
  for (const auto& v : violations) {
    if (v.rule == "batch-hygiene") {
      EXPECT_EQ(v.file, "analysis/batch.h");
    }
  }
}

TEST(CellrelLint, BatchHygieneConfinedToHotFiles) {
  const auto& opts = default_options();
  const std::string source =
      "#ifndef X\n#define X\nstruct R { std::string apn; };\n#endif\n";
  EXPECT_TRUE(has_rule(lint_source(source, "analysis", "analysis/batch.h", opts),
                       "batch-hygiene"));
  EXPECT_FALSE(has_rule(lint_source(source, "analysis", "analysis/aggregate.h", opts),
                        "batch-hygiene"));
}

TEST(CellrelLint, BatchHygieneAllowsStringView) {
  const auto& opts = default_options();
  const std::string source =
      "#ifndef X\n#define X\nstruct R { std::string_view apn; };\n#endif\n";
  EXPECT_FALSE(has_rule(lint_source(source, "analysis", "analysis/batch.h", opts),
                        "batch-hygiene"));
}

TEST(CellrelLint, EngineHygieneFixtureTree) {
  const auto violations = lint_tree(kFixtures / "engine_hygiene");
  // sim/event_queue.h seeds a std::function member, a shared_ptr member and
  // a make_shared call; the comment and string-literal mentions and the
  // identical tokens in timer_wheel.h (not an engine file) stay silent.
  EXPECT_EQ(std::count_if(violations.begin(), violations.end(),
                          [](const Violation& v) { return v.rule == "engine-hygiene"; }),
            3);
  for (const auto& v : violations) {
    if (v.rule == "engine-hygiene") {
      EXPECT_EQ(v.file, "sim/event_queue.h");
    }
  }
}

TEST(CellrelLint, EngineHygieneConfinedToEngineFiles) {
  const auto& opts = default_options();
  const std::string source = "#include <functional>\nstd::function<void()> f;\n";
  EXPECT_TRUE(has_rule(lint_source(source, "sim", "sim/event_queue.cpp", opts),
                       "engine-hygiene"));
  EXPECT_FALSE(has_rule(lint_source(source, "sim", "sim/clock.cpp", opts),
                        "engine-hygiene"));
}

TEST(CellrelLint, ModuleCycleDetected) {
  const auto violations = lint_tree(kFixtures / "cycle");
  ASSERT_TRUE(has_rule(violations, "module-cycle"));
  // The same pair of headers is also a file-level include cycle.
  EXPECT_TRUE(has_rule(violations, "include-cycle"));
}

TEST(CellrelLint, SameModuleIncludeCycleDetected) {
  // x.h <-> y.h inside one module: invisible to the module DAG, caught by
  // the file-level include-graph pass.
  const auto violations = lint_tree(kFixtures / "file_cycle");
  EXPECT_FALSE(has_rule(violations, "module-cycle"));
  ASSERT_TRUE(has_rule(violations, "include-cycle"));
  const auto it = std::find_if(violations.begin(), violations.end(), [](const Violation& v) {
    return v.rule == "include-cycle";
  });
  EXPECT_NE(it->message.find("x.h"), std::string::npos);
  EXPECT_NE(it->message.find("y.h"), std::string::npos);
}

TEST(CellrelLint, MissingIncludeGuardDetected) {
  const auto violations = lint_tree(kFixtures / "include_guard");
  EXPECT_EQ(count_rule(violations, "include-guard"), 1);
  const auto it = std::find_if(violations.begin(), violations.end(), [](const Violation& v) {
    return v.rule == "include-guard";
  });
  EXPECT_EQ(it->file, "common/unguarded.h");
}

TEST(CellrelLint, ShardStateFixtureTree) {
  const auto violations = lint_tree(kFixtures / "shard_state");
  EXPECT_EQ(count_rule(violations, "shard-state"), 3)
      << [&] {
           std::string all;
           for (const auto& v : violations) {
             all += v.file + ":" + std::to_string(v.line) + " [" + v.rule + "] " +
                    v.message + "\n";
           }
           return all;
         }();
  for (const auto& v : violations) {
    EXPECT_EQ(v.rule, "shard-state");
  }
}

TEST(CellrelLint, ShardStateInlineCases) {
  const auto& opts = default_options();
  // Mutable namespace-scope and function-local statics are flagged.
  EXPECT_TRUE(has_rule(
      lint_source("static int g_count = 0;\n", "sim", "sim/x.cpp", opts), "shard-state"));
  EXPECT_TRUE(has_rule(
      lint_source("int run() {\n  static int calls = 0;\n  return ++calls;\n}\n", "sim",
                  "sim/x.cpp", opts),
      "shard-state"));
  EXPECT_TRUE(has_rule(
      lint_source("thread_local int tls_slot = 0;\n", "sim", "sim/x.cpp", opts),
      "shard-state"));
  // const / constexpr / functions / members are not state.
  EXPECT_FALSE(has_rule(
      lint_source("static const int kA = 1;\nconstexpr int kB = 2;\n", "sim", "sim/x.cpp",
                  opts),
      "shard-state"));
  EXPECT_FALSE(has_rule(
      lint_source("static int helper();\nstatic int helper() { return 1; }\n", "sim",
                  "sim/x.cpp", opts),
      "shard-state"));
  EXPECT_FALSE(has_rule(
      lint_source("struct S {\n  int member = 0;\n  static int f() { return 2; }\n};\n",
                  "sim", "sim/x.cpp", opts),
      "shard-state"));
  // An explicitly allowlisted file is exempt (the default allowlist is
  // empty: in-tree exceptions use justified inline suppressions instead).
  LintOptions allow = opts;
  allow.shard_state_allowlist.insert("sim/x.cpp");
  EXPECT_FALSE(
      has_rule(lint_source("static int g = 0;\n", "sim", "sim/x.cpp", allow),
               "shard-state"));
}

TEST(CellrelLint, OrderedExportFixtureTree) {
  const auto violations = lint_tree(kFixtures / "ordered_export");
  EXPECT_EQ(count_rule(violations, "ordered-export"), 4);
  // The identical pattern outside the surface (device/) stays silent; the
  // flagged files are the analysis and query seeds only.
  int query_hits = 0;
  for (const auto& v : violations) {
    EXPECT_TRUE(v.file == "analysis/agg.cpp" || v.file == "query/bad_query.cpp")
        << v.file << ": " << v.message;
    if (v.file == "query/bad_query.cpp") ++query_hits;
  }
  EXPECT_EQ(query_hits, 1);
}

TEST(CellrelLint, OrderedExportSurfaceScoping) {
  const auto& opts = default_options();
  const std::string source =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { (void)kv; }\n"
      "}\n";
  // Flagged in the deterministic surface: obs, analysis, campaign merge path.
  EXPECT_TRUE(has_rule(lint_source(source, "obs", "obs/export.cpp", opts),
                       "ordered-export"));
  EXPECT_TRUE(has_rule(lint_source(source, "analysis", "analysis/agg.cpp", opts),
                       "ordered-export"));
  EXPECT_TRUE(has_rule(lint_source(source, "workload", "workload/campaign.cpp", opts),
                       "ordered-export"));
  // Not flagged elsewhere, and ordered containers never trip it.
  EXPECT_FALSE(has_rule(lint_source(source, "device", "device/x.cpp", opts),
                        "ordered-export"));
  const std::string ordered =
      "#include <map>\n"
      "void f(const std::map<int, int>& m) {\n"
      "  for (const auto& kv : m) { (void)kv; }\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_source(ordered, "analysis", "analysis/agg.cpp", opts),
                        "ordered-export"));
}

TEST(CellrelLint, OrderedExportTracksAutoPropagation) {
  const auto& opts = default_options();
  const std::string source =
      "#include <unordered_set>\n"
      "std::unordered_set<int> keys();\n"
      "int f() {\n"
      "  auto snapshot = keys();\n"
      "  int n = 0;\n"
      "  for (int k : snapshot) { n += k; }\n"
      "  return n;\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_source(source, "analysis", "analysis/x.cpp", opts),
                       "ordered-export"));
}

TEST(CellrelLint, NodiscardFixtureTree) {
  const auto violations = lint_tree(kFixtures / "nodiscard");
  EXPECT_EQ(count_rule(violations, "nodiscard-check"), 2);
  for (const auto& v : violations) {
    EXPECT_EQ(v.rule, "nodiscard-check");
  }
}

TEST(CellrelLint, NodiscardInlineCases) {
  const auto& opts = default_options();
  // Discarded member validate() and free parse_* are flagged.
  EXPECT_TRUE(has_rule(
      lint_source("void f(Scenario& sc) {\n  sc.validate();\n}\n", "workload",
                  "workload/x.cpp", opts),
      "nodiscard-check"));
  EXPECT_TRUE(has_rule(
      lint_source("void f() {\n  parse_rat(\"4G\");\n}\n", "common", "common/x.cpp", opts),
      "nodiscard-check"));
  // Consumed, (void)-cast, tested, and free `validate()` are fine.
  EXPECT_FALSE(has_rule(
      lint_source("void f(Scenario& sc) {\n  auto errs = sc.validate();\n  (void)errs;\n}\n",
                  "workload", "workload/x.cpp", opts),
      "nodiscard-check"));
  EXPECT_FALSE(has_rule(
      lint_source("void f() {\n  (void)parse_rat(\"4G\");\n}\n", "common", "common/x.cpp",
                  opts),
      "nodiscard-check"));
  EXPECT_FALSE(has_rule(
      lint_source("bool f() {\n  return parse_rat(\"4G\").has_value();\n}\n", "common",
                  "common/x.cpp", opts),
      "nodiscard-check"));
  EXPECT_FALSE(has_rule(
      lint_source("void f() {\n  if (parse_rat(\"4G\")) {\n  }\n}\n", "common",
                  "common/x.cpp", opts),
      "nodiscard-check"));
  EXPECT_FALSE(has_rule(
      lint_source("void validate();\nvoid f() {\n  validate();\n}\n", "common",
                  "common/x.cpp", opts),
      "nodiscard-check"));
}

TEST(CellrelLint, SuppressionFixtureTree) {
  // good.cpp: justified suppressions silence both naked-new findings.
  // bad.cpp: a reason-less marker yields bad-suppression AND leaves the
  // naked-new finding live.
  const auto violations = lint_tree(kFixtures / "suppression");
  EXPECT_EQ(count_rule(violations, "bad-suppression"), 1);
  EXPECT_EQ(count_rule(violations, "naked-new"), 1);
  for (const auto& v : violations) {
    EXPECT_EQ(v.file, "sim/bad.cpp") << v.rule << ": " << v.message;
  }
}

TEST(CellrelLint, SuppressionSameLineAndNextLine) {
  const auto& opts = default_options();
  EXPECT_TRUE(
      lint_source("int* f() {\n"
                  "  return new int;  // cellrel-lint: allow(naked-new) -- why not\n"
                  "}\n",
                  "sim", "sim/x.cpp", opts)
          .empty());
  EXPECT_TRUE(
      lint_source("int* f() {\n"
                  "  // cellrel-lint: allow(naked-new) -- next-line form\n"
                  "  return new int;\n"
                  "}\n",
                  "sim", "sim/x.cpp", opts)
          .empty());
  // A suppression for rule A does not silence rule B.
  EXPECT_TRUE(has_rule(
      lint_source("int* f() {\n"
                  "  return new int;  // cellrel-lint: allow(threading) -- wrong rule\n"
                  "}\n",
                  "sim", "sim/x.cpp", opts),
      "naked-new"));
}

TEST(CellrelLint, EmptyReasonSuppressionHardFails) {
  const auto& opts = default_options();
  const auto violations = lint_source(
      "int* p = new int;  // cellrel-lint: allow(naked-new)\n", "sim", "sim/x.cpp", opts);
  EXPECT_TRUE(has_rule(violations, "bad-suppression"));
  EXPECT_TRUE(has_rule(violations, "naked-new"))
      << "a reason-less marker must not silence the finding";
}

TEST(CellrelLint, CommentEmbeddingFixtureTreeIsClean) {
  const auto violations = lint_tree(kFixtures / "comment_embedding");
  for (const auto& v : violations) {
    ADD_FAILURE() << v.file << ":" << v.line << " [" << v.rule << "] " << v.message;
  }
}

TEST(CellrelLint, RawStringAndCharLiteralBaitIsExempt) {
  const auto& opts = default_options();
  const std::string source =
      "int f() {\n"
      "  auto s = R\"x(srand(1); new int; #include <thread>)x\";\n"
      "  char q = '\\'';\n"
      "  int after = 0;  // 'after' proves the char literal closed correctly\n"
      "  return static_cast<int>(s.size()) + q + after;\n"
      "}\n";
  const auto violations = lint_source(source, "telephony", "telephony/x.cpp", opts);
  EXPECT_TRUE(violations.empty())
      << violations[0].rule << ": " << violations[0].message;
}

TEST(CellrelLint, RuleCatalogCoversEmittedRules) {
  const auto& catalog = rule_catalog();
  for (const char* id :
       {"layering", "nondeterminism", "naked-new", "threading", "obs", "shard-state",
        "ordered-export", "nodiscard-check", "engine-hygiene", "module-cycle", "include-cycle",
        "include-guard", "bad-suppression", "unknown-module", "io-error"}) {
    EXPECT_TRUE(std::any_of(catalog.begin(), catalog.end(),
                            [&](const RuleInfo& r) { return r.id == id; }))
        << id << " missing from rule_catalog()";
  }
}

TEST(CellrelLint, RealSourceTreeIsClean) {
  // tests/tools/../../src — the actual project sources must stay clean; this
  // duplicates the cellrel_lint.src_tree ctest inside the unit suite so a
  // violation shows up in both places.
  const auto violations = lint_tree(kFixtures / ".." / ".." / "src");
  for (const auto& v : violations) {
    ADD_FAILURE() << v.file << ":" << v.line << " [" << v.rule << "] " << v.message;
  }
}

TEST(CellrelLint, CommentsAndStringsAreExempt) {
  const std::string source =
      "// std::rand() in a comment\n"
      "/* system_clock in a block comment\n"
      "   spanning lines */\n"
      "const char* s = \"new delete std::rand()\";\n"
      "const int x = 0;\n";
  const auto violations = lint_source(source, "sim", "sim/f.cpp", default_layers());
  EXPECT_TRUE(violations.empty());
}

TEST(CellrelLint, DeletedSpecialMembersAreExempt) {
  const std::string source =
      "struct A {\n"
      "  A(const A&) = delete;\n"
      "  A& operator=(const A&) = delete;\n"
      "};\n";
  const auto violations = lint_source(source, "common", "common/a.h", default_layers());
  EXPECT_TRUE(violations.empty());
}

TEST(CellrelLint, RngImplementationIsExemptFromRandomBans) {
  const std::string source = "#include <random>\nstd::random_device rd;\n";
  EXPECT_TRUE(lint_source(source, "common", "common/rng.cpp", default_layers()).empty());
  EXPECT_TRUE(has_rule(lint_source(source, "common", "common/other.cpp", default_layers()),
                       "nondeterminism"));
}

TEST(CellrelLint, DownwardAndSameLayerIncludesAllowed) {
  const std::string source =
      "#include \"common/check.h\"\n"
      "#include \"sim/event_queue.h\"\n"
      "#include \"radio/modem.h\"\n";
  // telephony (layer 2) may include layers 0 and 1.
  EXPECT_TRUE(lint_source(source, "telephony", "telephony/x.h", default_layers()).empty());
  // sim (layer 0) may NOT include radio (layer 1).
  EXPECT_TRUE(has_rule(lint_source(source, "sim", "sim/x.h", default_layers()), "layering"));
}

TEST(CellrelLint, UnknownIncludeModuleFlagged) {
  const std::string source = "#include \"vendor/blob.h\"\n";
  EXPECT_TRUE(has_rule(lint_source(source, "common", "common/x.h", default_layers()),
                       "unknown-module"));
}

TEST(CellrelLint, QueryModuleRegisteredInLayerDag) {
  // query (layer 3) may include the analysis/obs/common stack...
  const std::string ok =
      "#include \"analysis/aggregate.h\"\n"
      "#include \"common/stats.h\"\n"
      "#include \"obs/export.h\"\n";
  EXPECT_TRUE(lint_source(ok, "query", "query/engine.cpp", default_layers()).empty());
  // ...but lower layers may not reach back up into query.
  EXPECT_TRUE(has_rule(lint_source("#include \"query/spec.h\"\n", "device", "device/x.h",
                                   default_layers()),
                       "layering"));
  // query is part of the deterministic export surface.
  const std::string unordered =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) { (void)kv; }\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_source(unordered, "query", "query/export.cpp", default_options()),
                       "ordered-export"));
}

TEST(CellrelLint, IdentifierBoundariesRespected) {
  // Identifiers merely containing banned tokens must not trip the scanner.
  const std::string source =
      "void undelete_all();\n"
      "int f() {\n"
      "  int renewal = 0;\n"
      "  int new_count = renewal;\n"
      "  int mysrand_seed = 3;\n"
      "  return new_count + mysrand_seed;\n"
      "}\n";
  const auto violations = lint_source(source, "common", "common/ok.h", default_layers());
  EXPECT_TRUE(violations.empty());
}

TEST(CellrelLint, ThreadingHeadersConfinedToAllowlist) {
  const auto violations = lint_tree(kFixtures / "threading_containment");
  // telephony/spin.cpp includes <atomic> and <mutex>: two violations.
  EXPECT_EQ(std::count_if(violations.begin(), violations.end(),
                          [](const Violation& v) { return v.rule == "threading"; }),
            2);
  // The allowlisted thread_pool fixture must not be flagged.
  for (const auto& v : violations) {
    EXPECT_NE(v.file, "common/thread_pool.h") << v.message;
    EXPECT_EQ(v.file, "telephony/spin.cpp");
  }
}

TEST(CellrelLint, ThreadingAllowlistExactFiles) {
  const std::string source = "#include <thread>\n#include <mutex>\n";
  // The sanctioned homes are exempt.
  EXPECT_TRUE(
      lint_source(source, "common", "common/thread_pool.h", default_layers()).empty());
  EXPECT_TRUE(
      lint_source(source, "common", "common/thread_pool.cpp", default_layers()).empty());
  EXPECT_TRUE(
      lint_source(source, "workload", "workload/campaign.cpp", default_layers()).empty());
  EXPECT_TRUE(
      lint_source("#include <mutex>\n", "common", "common/check.cpp", default_layers())
          .empty());
  // Everyone else is flagged, including other files of the same modules.
  EXPECT_TRUE(has_rule(
      lint_source(source, "workload", "workload/scenario.cpp", default_layers()),
      "threading"));
  EXPECT_TRUE(has_rule(lint_source(source, "common", "common/rng.cpp", default_layers()),
                       "threading"));
  EXPECT_TRUE(has_rule(lint_source(source, "sim", "sim/event_queue.h", default_layers()),
                       "threading"));
}

TEST(CellrelLint, ObsContainmentFixtureTree) {
  const auto violations = lint_tree(kFixtures / "obs_containment");
  // device/bad_obs.cpp (obs include) and net/wallclock.cpp (<chrono>) each
  // trip the rule once; obs/wall.cpp is clean.
  EXPECT_EQ(std::count_if(violations.begin(), violations.end(),
                          [](const Violation& v) { return v.rule == "obs"; }),
            2);
  for (const auto& v : violations) {
    EXPECT_NE(v.file, "obs/wall.cpp") << v.message;
  }
}

TEST(CellrelLint, DetectContainmentFixtureTree) {
  const auto violations = lint_tree(kFixtures / "detect_containment");
  // detect/ok.cpp (obs include + std::map iteration) must stay silent;
  // detect/bad_clock.cpp trips the <chrono> confinement (plus the
  // steady_clock identifier ban), detect/bad_order.cpp the ordered-export
  // surface.
  for (const auto& v : violations) {
    EXPECT_NE(v.file, "detect/ok.cpp") << v.message;
  }
  EXPECT_EQ(count_rule(violations, "obs"), 1);
  ASSERT_TRUE(has_rule(violations, "nondeterminism"));
  EXPECT_EQ(count_rule(violations, "ordered-export"), 1);
  const auto it = std::find_if(violations.begin(), violations.end(), [](const Violation& v) {
    return v.rule == "ordered-export";
  });
  EXPECT_EQ(it->file, "detect/bad_order.cpp");
}

TEST(CellrelLint, ObsIncludeAllowlist) {
  const std::string source = "#include \"obs/metrics.h\"\n";
  for (const char* module :
       {"obs", "radio", "telephony", "core", "detect", "workload", "analysis"}) {
    EXPECT_FALSE(has_rule(
        lint_source(source, module, std::string(module) + "/x.cpp", default_layers()),
        "obs"))
        << module;
  }
  for (const char* module : {"common", "sim", "bs", "device", "net", "timp"}) {
    EXPECT_TRUE(has_rule(
        lint_source(source, module, std::string(module) + "/x.cpp", default_layers()),
        "obs"))
        << module;
  }
}

TEST(CellrelLint, ChronoConfinedToObs) {
  const std::string source = "#include <chrono>\n";
  EXPECT_TRUE(lint_source(source, "obs", "obs/metrics.cpp", default_layers()).empty());
  EXPECT_TRUE(has_rule(lint_source(source, "sim", "sim/engine.cpp", default_layers()),
                       "obs"));
  EXPECT_TRUE(
      has_rule(lint_source(source, "common", "common/x.cpp", default_layers()), "obs"));
}

TEST(CellrelLint, ObsExemptFromWallClockBansButNotRandomBans) {
  const std::string clock_src = "long f() {\n  auto t = std::chrono::steady_clock::now();\n  return t.time_since_epoch().count();\n}\n";
  EXPECT_TRUE(lint_source(clock_src, "obs", "obs/metrics.cpp", default_layers()).empty());
  EXPECT_TRUE(has_rule(
      lint_source(clock_src, "telephony", "telephony/x.cpp", default_layers()),
      "nondeterminism"));
  const std::string rand_src = "int r = std::rand();\n";
  EXPECT_TRUE(has_rule(lint_source(rand_src, "obs", "obs/metrics.cpp", default_layers()),
                       "nondeterminism"));
}

TEST(CellrelLint, NonThreadingAngleIncludesAllowed) {
  const std::string source =
      "#include <vector>\n#include <future_like_header>\n#include <cstdint>\n";
  EXPECT_TRUE(lint_source(source, "common", "common/x.h", default_layers()).empty());
}

TEST(CellrelLint, MissingDirectoryReportsIoError) {
  const auto violations = lint_tree(kFixtures / "does_not_exist");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "io-error");
}

}  // namespace
}  // namespace cellrel::lint
