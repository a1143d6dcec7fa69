// direct_mix: back-to-back run_campaign calls with one worker, cycling
// through the seven Table 1 designs from 9sym to s9234. No service or fleet
// code runs; the CAD kernels, the tiling engine and the localizer do the
// work.

#include <iostream>
#include <map>

#include "campaign/campaign_engine.hpp"
#include "checks.hpp"
#include "replay.hpp"
#include "synth/packer.hpp"

namespace e2e {

using namespace emutile;

namespace {

const std::vector<std::string> kDesigns = {"9sym",    "styr", "sand", "c499",
                                           "planet1", "c880", "s9234"};
constexpr std::uint64_t kMasterSeedBase = 0xD1EC7000;
/// session_p90_ms needs at least this many sessions in a run.
constexpr std::size_t kMinSessions = 100;

/// One design x the three error kinds x one replica, default 256 patterns.
CampaignSpec direct_spec(std::size_t d, std::uint64_t master_seed) {
  CampaignSpec spec;
  spec.add_catalog_design(kDesigns[d]);
  spec.master_seed = master_seed;
  return spec;
}

}  // namespace

RunResult run_direct_mix(const Options& opts, Recorder& rec) {
  RunResult result;
  std::vector<CampaignSpec> specs;
  std::vector<std::vector<Netlist>> goldens;
  std::vector<DesignRef> refs;
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    specs.push_back(direct_spec(d, kMasterSeedBase + d));
    goldens.push_back({build_campaign_golden(specs.back(), 0)});
    refs.push_back({kDesigns[d], specs.back().design_seed(0)});
    const std::size_t clbs = pack(goldens.back()[0]).num_clbs();
    result.check(clbs_match_table1(kDesigns[d], clbs),
                 kDesigns[d] + " packs to " + std::to_string(clbs) +
                     " CLBs, within 2% of Table 1");
  }
  static_cast<void>(run_campaign(direct_spec(0, kMasterSeedBase + 100)));
  const double setup_s = ms_since(opts.process_start) / 1e3;

  std::vector<double> campaign_ms, rerun_ms, session_ms, report_ms;
  std::map<std::string, std::vector<double>> by_design;
  std::vector<std::string> first_json(kDesigns.size());
  std::vector<CampaignReport> first_report(kDesigns.size());
  std::size_t campaigns = 0, sessions = 0;
  double work_sum = 0.0, work_n = 0.0;
  ReplayStats stats;
  const auto start = Clock::now();
  for (std::uint64_t round = 0;
       ms_since(start) < opts.seconds * 1e3 || sessions < kMinSessions;
       ++round) {
    for (const std::size_t d :
         shuffled_order(kDesigns.size(), opts.seed, round)) {
      const std::uint64_t group = rec.new_group();
      const Scope span(rec, "campaign", group);
      const auto t0 = Clock::now();
      CampaignReport report;
      if (rec.enabled()) {
        report = replay_campaign(specs[d], goldens[d], rec, span.id(), stats,
                                 &session_ms);
      } else {
        auto last = t0;
        CampaignOptions options;
        options.on_progress = [&](const std::string&, std::size_t,
                                  std::size_t) {
          const auto now = Clock::now();
          session_ms.push_back(ms_between(last, now));
          last = now;
        };
        report = run_campaign(specs[d], options);
      }
      const auto t_report = Clock::now();
      static_cast<void>(report.to_csv());
      const std::string json = report.to_json();
      report_ms.push_back(ms_since(t_report));
      const double latency = ms_since(t0);

      campaign_ms.push_back(latency);
      by_design[kDesigns[d]].push_back(latency);
      if (round == 0) {
        first_json[d] = json;
        first_report[d] = report;
      } else {
        rerun_ms.push_back(latency);
        result.check(json == first_json[d],
                     kDesigns[d] + " report is byte-identical across rounds");
      }
      result.count(report);
      ++campaigns;
      sessions += report.sessions;
      work_sum += report.debug_work.sum();
      work_n += static_cast<double>(report.debug_work.count());
      rec.count("campaign.sessions", group,
                static_cast<double>(report.sessions));
    }
  }
  const double timed_ms = ms_since(start);

  print_latency_by_design("campaign", by_design);

  MetricSet& m = result.metrics;
  m.set("setup_s", setup_s, "s");
  m.set("campaigns_per_s", campaigns * 1e3 / timed_ms, "1/s");
  m.set("sessions_per_s", sessions * 1e3 / timed_ms, "1/s");
  m.set("campaign_p50_ms", median(campaign_ms), "ms");
  m.set("rerun_campaign_p50_ms", median(rerun_ms), "ms");
  m.set("session_p50_ms", median(session_ms), "ms");
  m.set("session_p90_ms", quantile(session_ms, 0.9), "ms");
  m.set("debug_work_units", work_n > 0 ? work_sum / work_n : 0.0,
        "units/session");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Output checks, outside the timed window.
  const std::size_t sample_design =
      shuffled_order(kDesigns.size(), opts.seed, 0xC0FFEE).front();
  check_sampled_sessions(specs[sample_design], goldens[sample_design],
                         first_report[sample_design], 3, opts.seed, result);
  if (rec.enabled())
    result.check(run_campaign(specs[sample_design]).to_json() ==
                     first_json[sample_design],
                 "replayed " + kDesigns[sample_design] +
                     " report equals run_campaign's");
  static_cast<void>(check_eco_locality(goldens[0][0], opts.seed, result,
                                       true));
  self_test_checks(goldens[sample_design][0], opts.seed,
                   first_json[sample_design], result);

  if (rec.enabled()) {
    MetricSet& l = result.layers;
    kernel_pass(refs, rec, l, result);
    stats.write(l, rec);
    l.set("campaign.report_ms", mean_of(report_ms), "ms");
    l.set("campaign.cache_hit_ratio", 0.0, "ratio");
    finish_trace(opts, rec, l, ms_since(start));
  }
  return result;
}

}  // namespace e2e
