#pragma once
/// \file replay.hpp
/// Phase-by-phase replay of a campaign session through the library's public
/// functions — inject_error, TilingEngine::build or ::rebase, detect_errors,
/// localize, correct_design, detect_errors again — with a timer (and, when
/// tracing, a span) around each call. The replay mirrors what
/// run_campaign_session does, so its outcomes fold into the same report.

#include <map>
#include <memory>

#include "campaign/campaign_engine.hpp"
#include "common.hpp"
#include "core/tiled_design.hpp"

namespace e2e {

/// Per-campaign warm-start baselines, by (design, tiling) pair index.
using BaselineMap =
    std::map<std::size_t, std::shared_ptr<const emutile::TiledDesign>>;

struct ReplayedSession {
  emutile::SessionOutcome outcome;
  emutile::Netlist final_netlist;  ///< the DUT netlist after correction
  bool cold_build = false;         ///< ran TilingEngine::build for the DUT
  double baseline_build_ms = 0.0;  ///< shared baseline built by this session
  double build_ms = 0.0;           ///< TilingEngine::build of the DUT
  double rebase_ms = 0.0;          ///< TilingEngine::rebase
  double wall_ms = 0.0;
};

/// Replay `job` of `spec` against `golden`. Spans (when `rec` is enabled)
/// carry `group` and hang under `parent`.
[[nodiscard]] ReplayedSession replay_session(const emutile::CampaignSpec& spec,
                                             const emutile::CampaignJob& job,
                                             const emutile::Netlist& golden,
                                             BaselineMap& baselines,
                                             Recorder& rec,
                                             std::uint64_t group,
                                             std::uint64_t parent);

/// Aggregates of replayed sessions that feed the per-layer metrics.
struct ReplayStats {
  std::size_t sessions = 0;
  std::size_t warm = 0;
  std::vector<double> cold_build_ms;  ///< DUT and baseline builds
  std::vector<double> rebase_ms;
  double place_eco_ms = 0.0;
  double route_eco_ms = 0.0;
  double instances_placed = 0.0;
  double nets_routed = 0.0;
  double nodes_expanded = 0.0;
  double localize_rounds = 0.0;
  double probes_inserted = 0.0;
  double probes_retargeted = 0.0;
  double suspects = 0.0;
  double correct_attempts = 0.0;
  void add(const ReplayedSession& s);
  /// Per-session means plus the debug.* phase self times from `rec`.
  void write(MetricSet& m, const Recorder& rec) const;
};

/// Replay every job of `spec` (one campaign) and fold the outcomes into a
/// report exactly as run_campaign would.
[[nodiscard]] emutile::CampaignReport replay_campaign(
    const emutile::CampaignSpec& spec, const std::vector<emutile::Netlist>& goldens,
    Recorder& rec, std::uint64_t parent, ReplayStats& stats,
    std::vector<double>* session_ms = nullptr);

/// Replay every session of a seeded sample of `sample` scenarios of `spec`
/// and check them against the report `reference` produced by run_campaign
/// (or the service) for the same spec: outcomes and debug work agree
/// scenario by scenario, every corrected session fixed the injected LUT,
/// and the corrected netlist matches golden on held-out patterns under the
/// benchmark's own evaluator.
void check_sampled_sessions(const emutile::CampaignSpec& spec,
                            const std::vector<emutile::Netlist>& goldens,
                            const emutile::CampaignReport& reference,
                            std::size_t sample, std::uint64_t seed,
                            RunResult& result);

}  // namespace e2e
