// Packet-trace scenario: f measured directly from bidirectional
// packet-header traces (Fig. 4, the D3 Abilene substitute).
#include <cmath>

#include "conngen/fmeasure.hpp"
#include "conngen/packet_trace.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario::detail {

namespace {

json::Value RunFig4FTraces(const ScenarioContext& ctx, std::string&) {
  conngen::TraceSimConfig cfg;  // 2-hour trace, like D3
  cfg.connectionsPerSec = 10.0;  // keep the packet buffers modest
  if (ctx.tiny) {
    cfg.durationSec = 900.0;
    cfg.connectionsPerSec = 5.0;
  }
  stats::Rng rng(ctx.seed(42));
  const conngen::LinkTracePair trace =
      conngen::SimulatePacketTraces(cfg, rng);
  const conngen::FMeasurement m =
      conngen::MeasureForwardFraction(trace, 300.0);

  json::Object body;
  body.set("duration_sec", trace.durationSec);
  body.set("packets_a_to_b", trace.aToB.size());
  body.set("packets_b_to_a", trace.bToA.size());
  body.set("unknown_byte_fraction", m.unknownByteFraction);

  json::Array bins;
  for (std::size_t b = 0; b < m.fAB.size(); ++b) {
    json::Object o;
    o.set("bin", b);
    o.set("f_ab", m.fAB[b]);
    o.set("f_ba", m.fBA[b]);
    bins.push_back(json::Value(std::move(o)));
  }
  body.set("per_bin_f", json::Value(std::move(bins)));

  std::vector<double> finAB, finBA;
  for (double v : m.fAB)
    if (std::isfinite(v)) finAB.push_back(v);
  for (double v : m.fBA)
    if (std::isfinite(v)) finBA.push_back(v);
  body.set("f_ab_summary", SummaryJson(finAB));
  body.set("f_ba_summary", SummaryJson(finBA));
  body.set("mix_expected_f", cfg.mix.expectedForwardFraction());

  body.set("pass", !finAB.empty() && !finBA.empty() &&
                       m.unknownByteFraction >= 0.0 &&
                       m.unknownByteFraction <= 1.0);
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> TraceScenarios() {
  return {
      {{"fig4_f_traces", "Fig. 4",
        "f for both directions of an instrumented link pair over time",
        "f stays in 0.2-0.3 over all 5-min bins; the two directions "
        "track each other; unknown (pre-trace) traffic < 20% of bytes"},
       RunFig4FTraces},
  };
}

}  // namespace ictm::scenario::detail
