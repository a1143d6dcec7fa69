#include "replay.hpp"

#include "checks.hpp"
#include "core/tiling_engine.hpp"
#include "debug/debug_loop.hpp"
#include "sim/patterns.hpp"

namespace e2e {

using namespace emutile;

namespace {

/// Synthesize the placer and router shares of an ECO effort as children of
/// `parent`, laid end to end from the parent's start.
void add_eco_children(Recorder& rec, std::uint64_t group, std::uint64_t parent,
                      double parent_start_us, const PnrEffort& effort) {
  if (!rec.enabled()) return;
  const double place_end = parent_start_us + effort.place_ms * 1e3;
  rec.add("place.eco", group, parent, parent_start_us, place_end);
  rec.add("route.eco", group, parent, place_end,
          place_end + effort.route_ms * 1e3);
}

}  // namespace

ReplayedSession replay_session(const CampaignSpec& spec, const CampaignJob& job,
                               const Netlist& golden, BaselineMap& baselines,
                               Recorder& rec, std::uint64_t group,
                               std::uint64_t parent) {
  ReplayedSession out;
  DebugSessionReport& report = out.outcome.report;
  const DebugSessionOptions& o = job.options;
  const auto session_t0 = Clock::now();
  const Scope session(rec, "session", group, parent);
  try {
    Netlist dut_netlist;
    {
      const Scope s(rec, "debug.inject", group, session.id());
      dut_netlist = golden;
      report.injected = inject_error(dut_netlist, o.error_kind, o.seed);
    }

    TiledDesign dut;
    {
      const Scope s(rec, "debug.build", group, session.id());
      // Same warm-start rule as run_campaign_session: catalog designs and
      // LUT-reconfiguration kinds share the pair's pre-injection baseline.
      std::shared_ptr<const TiledDesign> baseline;
      if (!spec.designs[job.design_index].builder &&
          o.error_kind != ErrorKind::kWrongConnection) {
        const std::size_t pair =
            job.design_index * spec.tilings.size() +
            (job.scenario % spec.tilings.size());
        auto& slot = baselines[pair];
        if (!slot) {
          const Scope b(rec, "core.build", group, s.id());
          const auto t0 = Clock::now();
          slot = std::make_shared<const TiledDesign>(
              TilingEngine::build(Netlist(golden), o.tiling));
          out.baseline_build_ms = ms_since(t0);
        }
        baseline = slot;
      }
      if (baseline &&
          TilingEngine::lut_reconfig_equivalent(baseline->netlist,
                                                dut_netlist)) {
        const Scope r(rec, "core.rebase", group, s.id());
        const auto t0 = Clock::now();
        dut = TilingEngine::rebase(*baseline, std::move(dut_netlist));
        out.rebase_ms = ms_since(t0);
        report.warm_started = true;
      } else {
        const Scope b(rec, "core.build", group, s.id());
        const auto t0 = Clock::now();
        dut = TilingEngine::build(std::move(dut_netlist), o.tiling);
        out.build_ms = ms_since(t0);
        out.cold_build = true;
      }
      report.build_effort = dut.build_effort;
      report.design_clbs = dut.packed.num_clbs();
    }

    std::vector<Pattern> patterns;
    {
      const Scope s(rec, "debug.detect", group, session.id());
      patterns = random_patterns(golden.primary_inputs().size(),
                                 o.num_patterns, o.seed ^ 0xA5A5ULL);
      report.detection = detect_errors(dut.netlist, golden, patterns);
    }
    if (report.detection.error_detected) {
      {
        const Scope s(rec, "debug.localize", group, session.id());
        LocalizerOptions lo = o.localizer;
        lo.eco = o.eco;
        report.localization = localize(
            dut, golden, report.detection.failing_output, patterns, lo);
        report.debug_effort += report.localization.total_effort;
        add_eco_children(rec, group, s.id(), s.start_us(),
                         report.localization.total_effort);
      }
      {
        const Scope s(rec, "debug.correct", group, session.id());
        report.correction =
            correct_design(dut, golden, report.localization.suspects,
                           patterns, o.eco);
        report.debug_effort += report.correction.total_effort;
        add_eco_children(rec, group, s.id(), s.start_us(),
                         report.correction.total_effort);
      }
      if (report.correction.corrected) {
        const Scope s(rec, "debug.verify", group, session.id());
        report.final_clean =
            !detect_errors(dut.netlist, golden, patterns).error_detected;
        dut.validate();
      }
    }
    out.final_netlist = std::move(dut.netlist);
  } catch (const std::exception& e) {
    out.outcome.error = e.what();
  }
  out.wall_ms = ms_since(session_t0);
  if (rec.enabled()) {
    rec.count("debug.suspects", group,
              static_cast<double>(report.localization.suspects.size()));
    rec.count("debug.debug_work", group, work_units(report.debug_effort));
  }
  return out;
}

void ReplayStats::add(const ReplayedSession& s) {
  const DebugSessionReport& r = s.outcome.report;
  ++sessions;
  if (r.warm_started) ++warm;
  if (s.baseline_build_ms > 0.0) cold_build_ms.push_back(s.baseline_build_ms);
  if (s.cold_build) cold_build_ms.push_back(s.build_ms);
  if (r.warm_started) rebase_ms.push_back(s.rebase_ms);
  place_eco_ms += r.debug_effort.place_ms;
  route_eco_ms += r.debug_effort.route_ms;
  instances_placed += static_cast<double>(r.debug_effort.instances_placed);
  nets_routed += static_cast<double>(r.debug_effort.nets_routed);
  nodes_expanded += static_cast<double>(r.debug_effort.nodes_expanded);
  localize_rounds += static_cast<double>(r.localization.iterations.size());
  for (const LocalizeIteration& it : r.localization.iterations) {
    probes_inserted += static_cast<double>(it.probes_inserted);
    probes_retargeted += static_cast<double>(it.probes_retargeted);
  }
  suspects += static_cast<double>(r.localization.suspects.size());
  correct_attempts += static_cast<double>(r.correction.attempts);
}

void ReplayStats::write(MetricSet& m, const Recorder& rec) const {
  const double n = sessions ? static_cast<double>(sessions) : 1.0;
  m.set("place.eco_ms", place_eco_ms / n, "ms");
  m.set("place.instances_placed", instances_placed / n, "count");
  m.set("route.eco_ms", route_eco_ms / n, "ms");
  m.set("route.eco_nodes_expanded", nodes_expanded / n, "count");
  m.set("route.nets_routed", nets_routed / n, "count");
  m.set("core.build_ms", mean_of(cold_build_ms), "ms");
  m.set("core.rebase_ms", mean_of(rebase_ms), "ms");
  m.set("core.warm_build_ratio", static_cast<double>(warm) / n, "ratio");
  m.set("debug.localize_rounds", localize_rounds / n, "count");
  m.set("debug.probes_inserted", probes_inserted / n, "count");
  m.set("debug.probes_retargeted", probes_retargeted / n, "count");
  m.set("debug.suspects", suspects / n, "count");
  m.set("debug.correct_attempts", correct_attempts / n, "count");
  const auto self = rec.self_times_ms();
  for (const char* phase : {"inject", "detect", "localize", "correct",
                            "verify"}) {
    const auto it = self.find(std::string("debug.") + phase);
    const double total = it == self.end() ? 0.0 : it->second.first;
    m.set(std::string("debug.") + phase + "_ms", total / n, "ms");
  }
}

CampaignReport replay_campaign(const CampaignSpec& spec,
                               const std::vector<Netlist>& goldens,
                               Recorder& rec, std::uint64_t parent,
                               ReplayStats& stats,
                               std::vector<double>* session_ms) {
  const std::vector<CampaignJob> jobs = spec.expand();
  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(jobs.size());
  BaselineMap baselines;
  for (const CampaignJob& job : jobs) {
    ReplayedSession s = replay_session(spec, job, goldens[job.design_index],
                                       baselines, rec, rec.new_group(), parent);
    stats.add(s);
    if (session_ms) session_ms->push_back(s.wall_ms);
    outcomes.push_back(std::move(s.outcome));
  }
  return build_report(spec, jobs, outcomes, {});
}

void check_sampled_sessions(const CampaignSpec& spec,
                            const std::vector<Netlist>& goldens,
                            const CampaignReport& reference,
                            std::size_t sample, std::uint64_t seed,
                            RunResult& result) {
  const std::vector<CampaignJob> jobs = spec.expand();
  const std::vector<std::size_t> scenarios =
      shuffled_order(reference.scenarios.size(), seed, 0x5A3B1E);
  Recorder off(false);
  BaselineMap baselines;
  for (std::size_t k = 0; k < sample && k < scenarios.size(); ++k) {
    const std::size_t sc = scenarios[k];
    const ScenarioStats& row = reference.scenarios[sc];
    ScenarioStats replayed;
    const std::string what = "replayed scenario " + row.design + "/" +
                             to_string(row.error_kind);
    for (const CampaignJob& job : jobs) {
      if (job.scenario != sc) continue;
      const Netlist& golden = goldens[job.design_index];
      const ReplayedSession s =
          replay_session(spec, job, golden, baselines, off, 0, 0);
      const DebugSessionReport& r = s.outcome.report;
      ++replayed.sessions;
      if (!s.outcome.error.empty()) {
        ++replayed.failed;
        continue;
      }
      replayed.detected += r.detection.error_detected ? 1 : 0;
      replayed.narrowed += r.localization.narrowed ? 1 : 0;
      replayed.corrected += r.correction.corrected ? 1 : 0;
      replayed.clean += r.final_clean ? 1 : 0;
      replayed.debug_work.add(work_units(r.debug_effort));
      if (!r.correction.corrected) continue;
      result.check(r.correction.fixed_cell == r.injected.cell,
                   what + ": corrected session fixed the injected LUT");
      result.check(
          outputs_match(s.final_netlist, golden,
                        held_out_patterns(golden.primary_inputs().size(), 256,
                                          job.options.seed ^ 0x0BADC0DEull)),
          what + ": corrected netlist matches golden on held-out patterns");
    }
    result.check(replayed.sessions == row.sessions &&
                     replayed.failed == row.failed &&
                     replayed.detected == row.detected &&
                     replayed.narrowed == row.narrowed &&
                     replayed.corrected == row.corrected &&
                     replayed.clean == row.clean,
                 what + " reproduces the report's outcomes");
    result.check(replayed.debug_work.sum() == row.debug_work.sum(),
                 what + " reproduces the report's debug work units");
  }
}

}  // namespace e2e
