// Internal: the built-in scenario lists, one per translation unit.
// scenario.cpp concatenates them, in the order below, into the const
// table that ListScenarios, HasScenario and RunScenario read.  Naming
// each list from scenario.cpp also keeps the scenario translation
// units inside the static library — the linker would otherwise drop
// translation units nothing references.
#pragma once

#include <vector>

#include "scenario/scenario.hpp"

/// Internal lists of the built-in scenarios.
namespace ictm::scenario::detail {

/// One table row: a scenario's metadata and its body.
struct Builtin {
  ScenarioInfo info;  ///< registry metadata
  ScenarioFn fn;      ///< the scenario body
};

/// fig2_example, fig3_model_fit and dof_table.
std::vector<Builtin> ModelScenarios();
/// fig4_f_traces.
std::vector<Builtin> TraceScenarios();
/// fig5-fig9 (weekly stability and activity structure).
std::vector<Builtin> StabilityScenarios();
/// fig10-fig13 (TM estimation with the IC priors).
std::vector<Builtin> EstimationScenarios();
/// The Sec. 5.5/5.6 ablations.
std::vector<Builtin> AblationScenarios();
/// The estimation/synthesis scaling scenarios.
std::vector<Builtin> ScaleScenarios();
/// The topology-workbench scaling scenario (topo_scale).
std::vector<Builtin> TopologyScenarios();
/// The streaming-subsystem scenarios.
std::vector<Builtin> StreamScenarios();
/// The what-if studies.
std::vector<Builtin> WhatIfScenarios();

}  // namespace ictm::scenario::detail
