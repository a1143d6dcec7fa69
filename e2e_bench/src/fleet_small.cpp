// fleet_small: a CampaignCoordinator (default options, 20 ms poll) over
// three in-process single-worker daemons on Unix sockets. Small campaigns
// are each run once and then re-run three times. Each shard's compute is a
// few polls, so dispatch, polling, stealing, affinity placement and merging
// set much of the latency.
//
// Each round clears the instances' result caches first, so the first run of
// every campaign misses again and every round does the same work.

#include <iostream>
#include <map>
#include <memory>

#include "campaign/campaign_engine.hpp"
#include "checks.hpp"
#include "obs/metrics.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "replay.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "synth/packer.hpp"

namespace e2e {

using namespace emutile;

namespace {

const std::vector<std::string> kDesigns = {"9sym", "c499", "sand"};
constexpr std::uint64_t kMasterSeedBase = 0xF1EE7000;
constexpr std::size_t kInstances = 3;
/// Re-runs after each first run. The first re-run recomputes whatever
/// slices were stolen in the first run; the later ones show the steady
/// state, so the rerun median does not hinge on how many steals happened.
constexpr std::size_t kReruns = 3;

/// One design x the three error kinds x two replicas.
CampaignSpec fleet_spec(const std::string& design, std::uint64_t master_seed) {
  CampaignSpec spec;
  spec.add_catalog_design(design);
  spec.sessions_per_scenario = 2;
  spec.master_seed = master_seed;
  return spec;
}

}  // namespace

RunResult run_fleet_small(const Options& opts, Recorder& rec) {
  RunResult result;
  std::vector<CampaignSpec> specs;
  std::vector<std::vector<Netlist>> goldens;
  std::vector<DesignRef> refs;
  for (std::size_t c = 0; c < kDesigns.size(); ++c) {
    specs.push_back(fleet_spec(kDesigns[c], kMasterSeedBase + c));
    goldens.push_back({build_campaign_golden(specs.back(), 0)});
    refs.push_back({kDesigns[c], specs.back().design_seed(0)});
    const std::size_t clbs = pack(goldens.back()[0]).num_clbs();
    result.check(clbs_match_table1(kDesigns[c], clbs),
                 kDesigns[c] + " packs to " + std::to_string(clbs) +
                     " CLBs, within 2% of Table 1");
  }

  std::vector<std::unique_ptr<SessionService>> services;
  std::vector<std::unique_ptr<ServiceEndpoint>> endpoints;
  FleetConfig fleet;
  for (std::size_t i = 0; i < kInstances; ++i) {
    ServiceConfig config;
    config.root = "fleet-" + std::to_string(i);
    config.num_threads = 1;
    services.push_back(std::make_unique<SessionService>(config));
    const std::string socket = "fleet-" + std::to_string(i) + ".sock";
    endpoints.push_back(
        std::make_unique<ServiceEndpoint>(*services.back(), socket));
    fleet.instances.push_back(
        {"i" + std::to_string(i), ServiceAddress::unix_socket(socket)});
  }
  // Default options except the STATUS poll: at the default 200 ms every
  // latency is a whole number of polls, and which number flips with host
  // speed (c499 fresh runs read 429 ms in one run and 737 ms in another).
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  CampaignCoordinator coordinator(fleet, options);
  // Warm up in-process: a warm-up through the fleet would put the STATUS
  // poll quantum into the set-up time.
  static_cast<void>(
      run_campaign(fleet_spec(kDesigns[0], kMasterSeedBase + 100)));
  const double setup_s = ms_since(opts.process_start) / 1e3;

  std::vector<std::string> first_json(specs.size());
  std::vector<CampaignReport> first_report(specs.size());
  std::vector<double> fresh_ms, rerun_ms, session_ms, report_ms, busy_ms,
      idle_ms;
  std::map<std::string, std::vector<double>> fresh_by_design,
      rerun_by_design;
  std::size_t campaigns = 0, sessions = 0, hits = 0, rerun_hits = 0,
              rerun_sessions = 0, dispatches = 0, steals = 0, affinity = 0;
  double work_sum = 0.0, work_n = 0.0, timed_ms = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t round = 0; timed_ms < opts.seconds * 1e3; ++round) {
    for (const auto& service : services) service->cache()->clear();
    const auto window = Clock::now();
    for (const std::size_t c : shuffled_order(specs.size(), opts.seed, round)) {
      std::string fresh_json;
      for (std::size_t pass = 0; pass <= kReruns; ++pass) {
        const bool rerun = pass > 0;
        const std::uint64_t group = rec.new_group();
        const Scope span(rec, rerun ? "campaign.rerun" : "campaign.fresh",
                         group);
        const SessionWall wall0 = SessionWall::now();
        const auto t0 = Clock::now();
        const OrchestrationResult run = coordinator.run(specs[c]);
        const auto t_report = Clock::now();
        static_cast<void>(run.report.to_csv());
        const std::string json = run.report.to_json();
        report_ms.push_back(ms_since(t_report));
        const double latency = ms_since(t0);
        const SessionWall ran = SessionWall::now() - wall0;
        const double busy = ran.total_ms;

        result.count(run.report);
        ++campaigns;
        sessions += run.report.sessions;
        hits += run.report.cache_hits;
        busy_ms.push_back(busy);
        idle_ms.push_back(kInstances * latency - busy);
        for (const ShardProgress& shard : run.shards)
          dispatches += shard.dispatches;
        steals += run.steals;
        affinity += run.affinity_dispatches;
        rec.count("orchestrator.steals", group,
                  static_cast<double>(run.steals));
        if (rerun) {
          rerun_ms.push_back(latency);
          rerun_by_design[kDesigns[c]].push_back(latency);
          rerun_hits += run.report.cache_hits;
          rerun_sessions += run.report.sessions;
          result.check(json == fresh_json,
                       kDesigns[c] + " rerun report equals its first run");
          continue;
        }
        fresh_json = json;
        fresh_ms.push_back(latency);
        fresh_by_design[kDesigns[c]].push_back(latency);
        if (ran.sessions > 0) session_ms.push_back(ran.mean_ms());
        work_sum += run.report.debug_work.sum();
        work_n += static_cast<double>(run.report.debug_work.count());
        if (round == 0) {
          first_json[c] = json;
          first_report[c] = run.report;
        } else {
          result.check(json == first_json[c],
                       kDesigns[c] + " report is byte-identical across rounds");
        }
      }
    }
    timed_ms += ms_since(window);
  }

  print_latency_by_design("fresh", fresh_by_design);
  print_latency_by_design("rerun", rerun_by_design);

  MetricSet& m = result.metrics;
  m.set("setup_s", setup_s, "s");
  m.set("campaigns_per_s", campaigns * 1e3 / timed_ms, "1/s");
  m.set("sessions_per_s", sessions * 1e3 / timed_ms, "1/s");
  m.set("campaign_p50_ms", median(fresh_ms), "ms");
  m.set("rerun_campaign_p50_ms", median(rerun_ms), "ms");
  m.set("session_p50_ms", median(session_ms), "ms");
  m.set("session_p90_ms", quantile(session_ms, 0.9), "ms");
  m.set("debug_work_units", work_n > 0 ? work_sum / work_n : 0.0,
        "units/session");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Output checks, outside the timed window.
  const std::size_t c = shuffled_order(specs.size(), opts.seed, 0xD1).front();
  result.check(run_campaign(specs[c]).to_json() == first_json[c],
               "fleet report of " + kDesigns[c] +
                   " equals a direct run_campaign");
  check_sampled_sessions(specs[c], goldens[c], first_report[c], 2, opts.seed,
                         result);
  static_cast<void>(
      check_eco_locality(goldens[0][0], opts.seed, result, true));
  self_test_checks(goldens[c][0], opts.seed, first_json[c], result);

  if (rec.enabled()) {
    MetricSet& l = result.layers;
    kernel_pass(refs, rec, l, result);
    ReplayStats stats;
    const Scope replay(rec, "replay", rec.new_group());
    static_cast<void>(
        replay_campaign(specs[c], goldens[c], rec, replay.id(), stats));
    stats.write(l, rec);
    const double n = campaigns ? static_cast<double>(campaigns) : 1.0;
    l.set("campaign.report_ms", mean_of(report_ms), "ms");
    l.set("campaign.cache_hit_ratio",
          sessions ? static_cast<double>(hits) / sessions : 0.0, "ratio");
    l.set("orchestrator.dispatches", dispatches / n, "count");
    l.set("orchestrator.steals", steals / n, "count");
    l.set("orchestrator.affinity_dispatches", affinity / n, "count");
    l.set("orchestrator.rerun_hit_ratio",
          rerun_sessions ? static_cast<double>(rerun_hits) / rerun_sessions
                         : 0.0,
          "ratio");
    l.set("orchestrator.instance_busy_ms", mean_of(busy_ms), "ms");
    l.set("orchestrator.idle_ms", mean_of(idle_ms), "ms");
    finish_trace(opts, rec, l, ms_since(start));
  }
  return result;
}

}  // namespace e2e
