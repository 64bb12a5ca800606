#include "scenario/scenario.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "common/parallel.hpp"
#include "obs/now.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario {

namespace {

/// The built-in scenarios in listing (figure) order: infos[k] runs as
/// fns[k].
struct Table {
  std::vector<ScenarioInfo> infos;
  std::vector<ScenarioFn> fns;
};

const Table& Builtins() {
  static const Table table = [] {
    using List = std::vector<detail::Builtin> (*)();
    Table t;
    for (List list :
         {detail::ModelScenarios, detail::TraceScenarios,
          detail::StabilityScenarios, detail::EstimationScenarios,
          detail::AblationScenarios, detail::ScaleScenarios,
          detail::TopologyScenarios, detail::StreamScenarios,
          detail::WhatIfScenarios}) {
      for (detail::Builtin& b : list()) {
        t.infos.push_back(std::move(b.info));
        t.fns.push_back(b.fn);
      }
    }
    return t;
  }();
  return table;
}

/// Position of `name` in the table; infos.size() when unknown.
std::size_t IndexOf(const std::string& name) {
  const std::vector<ScenarioInfo>& infos = Builtins().infos;
  std::size_t k = 0;
  while (k < infos.size() && infos[k].name != name) ++k;
  return k;
}

}  // namespace

const std::vector<ScenarioInfo>& ListScenarios() { return Builtins().infos; }

bool HasScenario(const std::string& name) {
  return IndexOf(name) < Builtins().infos.size();
}

ScenarioResult RunScenario(const std::string& name,
                           const ScenarioContext& ctx) {
  const std::size_t k = IndexOf(name);
  ICTM_REQUIRE(k < Builtins().infos.size(), "unknown scenario: " + name);

  ScenarioResult result;
  result.info = Builtins().infos[k];

  const std::uint64_t start = obs::Now();
  try {
    json::Value body = Builtins().fns[k](ctx, result.notes);
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
  result.seconds = obs::ElapsedSeconds(start);
  return result;
}

std::vector<ScenarioResult> RunScenarios(
    const std::vector<std::string>& names, const ScenarioContext& ctx,
    std::size_t workers) {
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
    OutputFile file((fs::path(outDir) / (r.info.name + ".json")).string());
    file.stream() << r.doc.dump(2);
    file.commit();
    names.push_back(json::Value(r.info.name));
  }

  json::Object manifest;
  manifest.set("schema", "ictm-scenario-manifest-v1");
  manifest.set("seed_offset", static_cast<std::int64_t>(ctx.seedOffset));
  manifest.set("scale", ctx.tiny ? "tiny" : "full");
  manifest.set("topology",
               ctx.topology.empty() ? "default" : ctx.topology);
  manifest.set("scenarios", json::Value(std::move(names)));
  OutputFile file((fs::path(outDir) / "manifest.json").string());
  file.stream() << json::Value(std::move(manifest)).dump(2);
  file.commit();
}

}  // namespace ictm::scenario
