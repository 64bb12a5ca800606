// Simulated stand-ins for the paper's three datasets (see DESIGN.md §2
// for the substitution rationale):
//
//   D1 "Géant-like": 22 PoPs, 5-minute bins, 2016 bins/week, sampled
//      netflow measurement noise;
//   D2 "Totem-like": 23 PoPs ('de' split in two), 15-minute bins,
//      672 bins/week, up to 7+ weeks;
//   D3 "Abilene-like": two-hour bidirectional packet-header traces on
//      an instrumented link pair (built directly with
//      conngen::SimulatePacketTraces; see the fig4_f_traces scenario).
//
// Ground truth is generated at the *connection* level: initiators
// proportional to cyclo-stationary node activities, responders drawn
// from a lognormal preference vector, applications from a 2006-era mix
// with per-app forward fractions, per-pair f jitter, and optional
// netflow thinning.  The IC structure therefore *emerges* with natural
// noise rather than being imposed exactly, keeping the gravity-vs-IC
// comparison honest.
#pragma once

#include <cstdint>

#include "conngen/generator.hpp"
#include "stats/rng.hpp"
#include "topology/graph.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::dataset {

/// Knobs shared by the builders; defaults reproduce the paper-scale
/// datasets.  Tests shrink bins/activity for speed.
struct DatasetConfig {
  std::size_t weeks = 1;
  /// Mean per-node per-bin activity bytes at the daily peak.
  double peakActivityBytes = 4e8;
  /// Lognormal sigma of per-node peak levels (node-size heterogeneity).
  double peakLogSigma = 1.0;
  /// Preference lognormal parameters (paper Fig. 7 MLE).
  double preferenceMu = -4.3;
  double preferenceSigma = 1.7;
  /// Cap on the largest *normalised* preference share.  The paper's
  /// empirical {P_i} top out around 0.30-0.35 (Fig. 6); unconstrained
  /// lognormal draws occasionally concentrate most mass on one node,
  /// which real PoP-level networks do not show.  Excess is
  /// redistributed proportionally (waterfilling).  >= 1 disables.
  double preferenceCapShare = 0.35;
  /// Per-pair forward-fraction jitter (logit-space sigma); makes the
  /// simplified IC model only approximately correct.  The default is
  /// calibrated so the stable-fP fit improves on gravity by roughly
  /// the 20-25% the paper reports for Géant (Fig. 3a).
  double pairFJitterSigma = 1.5;
  /// Hot-potato routing asymmetry fraction (Sec. 5.6); 0 disables.
  double routingAsymmetry = 0.0;
  /// Apply 1/1000 netflow sampling noise to the measured series.
  bool netflowSampling = true;
  /// Extra unstructured measurement noise: each measured X_ij(t) is
  /// multiplied by an independent lognormal factor with this log-space
  /// sigma.  Models the TM-construction artifacts and anomalies the
  /// Totem providers document ([21]); 0 disables.
  double measurementNoiseSigma = 0.0;
  std::uint64_t seed = 42;
};

/// A simulated dataset: what the operator measures, what is true, and
/// the generating parameters for validation.
struct Dataset {
  traffic::TrafficMatrixSeries measured;  ///< after measurement noise
  traffic::TrafficMatrixSeries truth;     ///< exact per-bin OD bytes
  linalg::Vector truePreference;          ///< normalised
  double realizedForwardFraction = 0.0;   ///< aggregate f of the run
  std::size_t binsPerWeek = 0;
  double binSeconds = 0.0;
};

/// 22-node Géant-like dataset (D1): 5-minute bins, 2016 bins/week.
Dataset MakeGeantLike(const DatasetConfig& config = {});

/// 23-node Totem-like dataset (D2): 15-minute bins, 672 bins/week.
Dataset MakeTotemLike(const DatasetConfig& config = {});

/// Small generic dataset for unit tests: n nodes, `bins` bins of
/// `binSeconds`, same generative machinery.
Dataset MakeSmallDataset(std::size_t nodes, std::size_t bins,
                         double binSeconds, const DatasetConfig& config);

/// Small dataset spanning `config.weeks` weeks of `binsPerWeek` bins
/// each — the multi-week counterpart of MakeSmallDataset, used by the
/// scenario registry's tiny configurations (weekly-stability scenarios
/// need more than one week even at test scale).
Dataset MakeSmallWeeklyDataset(std::size_t nodes, std::size_t binsPerWeek,
                               double binSeconds,
                               const DatasetConfig& config);

}  // namespace ictm::dataset
