#include "scenario/scenario.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/estimation.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario {

namespace {

struct Registry {
  std::vector<ScenarioInfo> order;
  std::map<std::string, ScenarioFn> byName;
};

Registry& MutableRegistry() {
  static Registry registry;
  return registry;
}

void EnsureBuiltins() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    detail::RegisterModelScenarios();
    detail::RegisterTraceScenarios();
    detail::RegisterStabilityScenarios();
    detail::RegisterEstimationScenarios();
    detail::RegisterAblationScenarios();
    detail::RegisterScaleScenarios();
    detail::RegisterTopologyScenarios();
    detail::RegisterStreamScenarios();
    detail::RegisterWhatIfScenarios();
  });
}

// Strict non-negative integer parse for the bench-harness flags —
// rejects trailing junk and overflow instead of silently yielding 0
// the way atoll does (ICTM-D005).
bool ParseNonNegative(const char* arg, unsigned long long max,
                      unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v > max ||
      arg[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

void RegisterScenario(ScenarioInfo info, ScenarioFn fn) {
  Registry& r = MutableRegistry();
  ICTM_REQUIRE(fn != nullptr, "scenario function is null");
  ICTM_REQUIRE(!info.name.empty(), "scenario name is empty");
  ICTM_REQUIRE(r.byName.find(info.name) == r.byName.end(),
               "duplicate scenario name: " + info.name);
  r.byName.emplace(info.name, fn);
  r.order.push_back(std::move(info));
}

const std::vector<ScenarioInfo>& ListScenarios() {
  EnsureBuiltins();
  return MutableRegistry().order;
}

bool HasScenario(const std::string& name) {
  EnsureBuiltins();
  const Registry& r = MutableRegistry();
  return r.byName.find(name) != r.byName.end();
}

ScenarioResult RunScenario(const std::string& name,
                           const ScenarioContext& ctx) {
  EnsureBuiltins();
  const Registry& r = MutableRegistry();
  const auto it = r.byName.find(name);
  ICTM_REQUIRE(it != r.byName.end(), "unknown scenario: " + name);

  ScenarioResult result;
  for (const ScenarioInfo& info : r.order) {
    if (info.name == name) result.info = info;
  }

  const auto start = StartTimer();
  try {
    json::Value body = it->second(ctx, result.notes);
    const json::Object& obj = body.asObject();
    const json::Value* pass = obj.find("pass");
    ICTM_REQUIRE(pass != nullptr && pass->isBool(),
                 "scenario result lacks a boolean 'pass': " + name);
    result.pass = pass->asBool();

    // Wrap the body in the common envelope.  Only deterministic,
    // configuration-derived fields may appear here — never thread
    // counts or timings.
    json::Object envelope;
    envelope.set("schema", "ictm-scenario-result-v1");
    envelope.set("scenario", result.info.name);
    envelope.set("artifact", result.info.artifact);
    envelope.set("title", result.info.title);
    envelope.set("expectation", result.info.expectation);
    envelope.set("seed_offset",
                 static_cast<std::int64_t>(ctx.seedOffset));
    envelope.set("scale", ctx.tiny ? "tiny" : "full");
    envelope.set("pass", result.pass);
    envelope.set("results", std::move(body));
    result.doc = json::Value(std::move(envelope));
  } catch (const std::exception& e) {
    result.error = e.what();
    result.pass = false;
  }
  result.seconds = SecondsSince(start);
  return result;
}

std::vector<ScenarioResult> RunScenarios(
    const std::vector<std::string>& names, const ScenarioContext& ctx,
    std::size_t workers) {
  EnsureBuiltins();
  for (const std::string& name : names) {
    ICTM_REQUIRE(HasScenario(name), "unknown scenario: " + name);
  }
  std::vector<ScenarioResult> results(names.size());
  // Scenario-level fan-out: each scenario is seeded from the context
  // alone, so concurrent execution cannot change any result.
  ParallelFor(0, names.size(), workers, [&](std::size_t i) {
    results[i] = RunScenario(names[i], ctx);
  });
  return results;
}

void WriteResultFiles(const std::vector<ScenarioResult>& results,
                      const ScenarioContext& ctx,
                      const std::string& outDir) {
  namespace fs = std::filesystem;
  fs::create_directories(outDir);

  json::Array names;
  for (const ScenarioResult& r : results) {
    if (!r.error.empty()) continue;  // no document to write
    const fs::path path = fs::path(outDir) / (r.info.name + ".json");
    std::ofstream os(path);
    ICTM_REQUIRE(os.good(), "cannot open for writing: " + path.string());
    os << r.doc.dump(2);
    ICTM_REQUIRE(os.good(), "write failed: " + path.string());
    names.push_back(json::Value(r.info.name));
  }

  json::Object manifest;
  manifest.set("schema", "ictm-scenario-manifest-v1");
  manifest.set("seed_offset", static_cast<std::int64_t>(ctx.seedOffset));
  manifest.set("scale", ctx.tiny ? "tiny" : "full");
  manifest.set("topology",
               ctx.topology.empty() ? "default" : ctx.topology);
  manifest.set("solver", ctx.solver.empty() ? "auto" : ctx.solver);
  manifest.set("scenarios", json::Value(std::move(names)));
  const fs::path path = fs::path(outDir) / "manifest.json";
  std::ofstream os(path);
  ICTM_REQUIRE(os.good(), "cannot open for writing: " + path.string());
  os << json::Value(std::move(manifest)).dump(2);
  ICTM_REQUIRE(os.good(), "write failed: " + path.string());
}

int RunScenarioMain(const std::string& name, int argc, char** argv) {
  ScenarioContext ctx;
  ctx.threads = 0;  // bench binaries default to all cores
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      ctx.tiny = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      unsigned long long v = 0;
      if (!ParseNonNegative(argv[++i], 4096, &v)) {
        std::fprintf(stderr, "--threads must be an integer in [0, 4096], got: %s\n",
                     argv[i]);
        return 2;
      }
      ctx.threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      unsigned long long v = 0;
      if (!ParseNonNegative(argv[++i], ~0ULL, &v)) {
        std::fprintf(stderr, "--seed must be a non-negative integer, got: %s\n",
                     argv[i]);
        return 2;
      }
      ctx.seedOffset = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      ctx.topology = argv[++i];
    } else if (std::strcmp(argv[i], "--solver") == 0 && i + 1 < argc) {
      core::SolverKind kind;
      if (!core::ParseSolverKind(argv[i + 1], &kind)) {
        std::fprintf(stderr,
                     "unknown solver: %s (expected auto|dense)\n",
                     argv[i + 1]);
        return 2;
      }
      ctx.solver = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tiny] [--threads N] [--seed S] "
                   "[--topology SPEC] [--solver auto|dense]\n",
                   argv[0]);
      return 2;
    }
  }

  const ScenarioResult r = RunScenario(name, ctx);
  std::printf("==============================================================\n");
  std::printf("%s — %s [%s]\n", r.info.artifact.c_str(),
              r.info.title.c_str(), r.info.name.c_str());
  std::printf("paper: %s\n", r.info.expectation.c_str());
  std::printf("(simulated datasets; compare shape, not absolute values)\n");
  std::printf("==============================================================\n");
  if (!r.error.empty()) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s", r.doc.dump(2).c_str());
  if (!r.notes.empty()) std::printf("%s", r.notes.c_str());
  std::printf("[%s] %s in %.2f s\n", r.pass ? "PASS" : "FAIL",
              r.info.name.c_str(), r.seconds);
  return r.pass ? 0 : 1;
}

}  // namespace ictm::scenario
