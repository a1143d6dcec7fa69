// service_mixed: one in-process SessionService (2 workers, default config
// otherwise) behind the reactor ServiceEndpoint on a Unix socket, driven by
// two closed-loop ServiceClients with SUBMIT then WAIT. One client submits
// only fresh campaigns (cache misses and stores); the other only re-submits
// campaigns from a pool run during set-up (all hits).
//
// Each round clears the result cache and re-runs the pool untimed, so the
// fresh campaigns of every round miss the cache again and every round does
// the same work. The pool runs in-process against the service's cache.

#include <filesystem>
#include <map>
#include <iostream>
#include <thread>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "checks.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "synth/packer.hpp"
#include "util/file_io.hpp"

namespace e2e {

using namespace emutile;

namespace {

const std::vector<std::string> kFreshDesigns = {"sand", "styr", "c880"};
const std::vector<std::string> kPoolDesigns = {"styr", "9sym", "c499"};
constexpr std::uint64_t kFreshSeedBase = 0x5E2F0000;
constexpr std::uint64_t kPoolSeedBase = 0x5E2F1000;
/// Re-submissions per round; a multiple of the pool size, so every round
/// re-runs each pool campaign equally often.
constexpr std::size_t kRerunsPerRound = 30;

/// One design x the three error kinds x `replicas`, default 256 patterns.
CampaignSpec small_spec(const std::string& design, std::uint64_t master_seed,
                        int replicas) {
  CampaignSpec spec;
  spec.add_catalog_design(design);
  spec.sessions_per_scenario = replicas;
  spec.master_seed = master_seed;
  return spec;
}

/// One campaign's trip through the service, as the client saw it.
struct Trip {
  std::string design;
  SessionWall ran;  ///< sessions the daemon ran for this campaign
  double submit_ms = 0.0;
  double wait_ms = 0.0;
  double latency_ms = 0.0;  ///< SUBMIT sent to WAIT reply
  double report_ms = 0.0;   ///< to_csv + to_json of the fetched report
  std::string state;
  std::size_t hits = 0;
  std::size_t total = 0;
  CampaignReport report;
  std::string json;  ///< out/<id>/report.json as written by the service
};

Trip submit_and_wait(const ServiceClient& client, SessionService& service,
                     const std::string& spec_text, Recorder& rec,
                     const char* span_name) {
  Trip trip;
  const std::uint64_t group = rec.new_group();
  const Scope span(rec, span_name, group);
  const SessionWall wall0 = SessionWall::now();
  const auto t0 = Clock::now();
  std::string id;
  {
    const Scope s(rec, "service.submit", group, span.id());
    id = client.submit(spec_text);
  }
  const auto t1 = Clock::now();
  {
    const Scope s(rec, "service.wait", group, span.id());
    trip.state = client.wait(id);
  }
  const auto t2 = Clock::now();
  trip.submit_ms = ms_between(t0, t1);
  trip.wait_ms = ms_between(t1, t2);
  trip.latency_ms = ms_between(t0, t2);
  trip.ran = SessionWall::now() - wall0;
  const RemoteCampaignStatus status = client.status(id);
  trip.hits = status.cache_hits;
  trip.total = status.sessions_total;
  const std::filesystem::path dir = service.status(id)->out_dir;
  trip.report = load_campaign_report_file(dir / "report.shard");
  trip.json = read_file(dir / "report.json");
  const auto t3 = Clock::now();
  static_cast<void>(trip.report.to_csv());
  static_cast<void>(trip.report.to_json());
  trip.report_ms = ms_since(t3);
  rec.count("campaign.cache_hits", group, static_cast<double>(trip.hits));
  return trip;
}

/// What one client thread saw; merged into the run result after join.
struct ClientLog {
  std::vector<Trip> trips;
  std::vector<std::string> failures;
};

/// Run the rerun pool in-process, one worker, against the service's own
/// result cache: the daemon then serves every re-submission from the cache.
/// One worker keeps the pool's run time free of scheduling order and of the
/// WAIT grid. Returns each campaign's report.
std::vector<std::string> run_pool(const std::vector<CampaignSpec>& specs,
                                  ResultCache* cache) {
  CampaignOptions options;
  options.cache = cache;
  std::vector<std::string> json;
  for (const CampaignSpec& spec : specs)
    json.push_back(run_campaign(spec, options).to_json());
  return json;
}

std::uint64_t request_count(const MetricsSnapshot& snap) {
  std::uint64_t n = 0;
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("endpoint.requests.", 0) == 0) n += value;
  return n;
}

}  // namespace

RunResult run_service_mixed(const Options& opts, Recorder& rec) {
  RunResult result;
  std::vector<std::string> fresh_text, pool_text;
  std::vector<CampaignSpec> fresh_specs, pool_specs;
  std::vector<DesignRef> refs;
  for (std::size_t k = 0; k < kFreshDesigns.size(); ++k) {
    fresh_specs.push_back(small_spec(kFreshDesigns[k], kFreshSeedBase + k, 2));
    fresh_text.push_back(serialize_campaign_spec(fresh_specs.back()));
  }
  for (std::size_t p = 0; p < kPoolDesigns.size(); ++p) {
    pool_specs.push_back(small_spec(kPoolDesigns[p], kPoolSeedBase + p, 1));
    pool_text.push_back(serialize_campaign_spec(pool_specs.back()));
  }
  std::vector<std::vector<Netlist>> fresh_goldens;
  for (const CampaignSpec& spec : fresh_specs) {
    fresh_goldens.push_back({build_campaign_golden(spec, 0)});
    refs.push_back({spec.designs[0].name, spec.design_seed(0)});
    const std::size_t clbs = pack(fresh_goldens.back()[0]).num_clbs();
    result.check(clbs_match_table1(spec.designs[0].name, clbs),
                 spec.designs[0].name + " packs to " + std::to_string(clbs) +
                     " CLBs, within 2% of Table 1");
  }

  ServiceConfig config;
  config.root = "service";
  SessionService service(config);
  const ServiceEndpoint endpoint(service, "service.sock");
  const ServiceAddress address = ServiceAddress::unix_socket("service.sock");
  const ServiceClient control(address);
  std::uint64_t submits = 0;

  // The rerun pool: first runs, kept for byte comparison.
  const std::vector<std::string> pool_json =
      run_pool(pool_specs, service.cache());
  const double setup_s = ms_since(opts.process_start) / 1e3;

  const std::uint64_t requests_before =
      request_count(parse_metrics_text(control.fetch_metrics()));
  std::vector<std::string> fresh_json(fresh_text.size());
  std::vector<CampaignReport> fresh_report(fresh_text.size());
  std::vector<double> fresh_ms, rerun_ms, session_ms, submit_ms, wait_ms,
      report_ms;
  std::map<std::string, std::vector<double>> fresh_by_design,
      rerun_by_design;
  std::size_t campaigns = 0, sessions = 0, hits = 0;
  double work_sum = 0.0, work_n = 0.0, timed_ms = 0.0;
  const ServiceClient fresh_client(address);
  const ServiceClient rerun_client(address);
  const auto start = Clock::now();
  for (std::uint64_t round = 0; timed_ms < opts.seconds * 1e3; ++round) {
    if (round > 0) {
      service.cache()->clear();
      result.check(run_pool(pool_specs, service.cache()) == pool_json,
                   "re-primed pool reports are byte-identical");
    }
    ClientLog fresh_log, rerun_log;
    const auto window = Clock::now();
    std::thread fresh_thread([&] {
      for (const std::size_t k :
           shuffled_order(fresh_text.size(), opts.seed, 2 * round)) {
        try {
          Trip trip = submit_and_wait(fresh_client, service, fresh_text[k],
                                      rec, "campaign.fresh");
          trip.design = kFreshDesigns[k];
          if (trip.hits != 0)
            fresh_log.failures.push_back("fresh campaign hit the cache");
          if (round == 0) {
            fresh_json[k] = trip.json;
            fresh_report[k] = trip.report;
          } else if (trip.json != fresh_json[k]) {
            fresh_log.failures.push_back(
                "fresh report differs across rounds");
          }
          fresh_log.trips.push_back(std::move(trip));
        } catch (const std::exception& e) {
          fresh_log.failures.push_back(std::string("fresh client: ") +
                                       e.what());
        }
      }
    });
    std::thread rerun_thread([&] {
      const std::vector<std::size_t> order =
          shuffled_order(pool_text.size(), opts.seed, 2 * round + 1);
      for (std::size_t j = 0; j < kRerunsPerRound; ++j) {
        const std::size_t p = order[j % order.size()];
        try {
          Trip trip = submit_and_wait(rerun_client, service, pool_text[p],
                                      rec, "campaign.rerun");
          trip.design = kPoolDesigns[p];
          if (trip.hits != trip.total)
            rerun_log.failures.push_back("rerun missed the cache: " +
                                         std::to_string(trip.hits) + "/" +
                                         std::to_string(trip.total));
          if (trip.json != pool_json[p])
            rerun_log.failures.push_back(
                "rerun report differs from its first run");
          rerun_log.trips.push_back(std::move(trip));
        } catch (const std::exception& e) {
          rerun_log.failures.push_back(std::string("rerun client: ") +
                                       e.what());
        }
      }
    });
    fresh_thread.join();
    rerun_thread.join();
    timed_ms += ms_since(window);
    for (ClientLog* log : {&fresh_log, &rerun_log}) {
      for (const std::string& f : log->failures) result.check(false, f);
      for (const Trip& trip : log->trips) {
        result.check(trip.state == "finished", "campaign finishes");
        result.count(trip.report);
        ++campaigns;
        sessions += trip.report.sessions;
        hits += trip.hits;
        submit_ms.push_back(trip.submit_ms);
        wait_ms.push_back(trip.wait_ms);
        report_ms.push_back(trip.report_ms);
        if (log == &rerun_log) {
          rerun_ms.push_back(trip.latency_ms);
          rerun_by_design[trip.design].push_back(trip.latency_ms);
          continue;
        }
        fresh_ms.push_back(trip.latency_ms);
        fresh_by_design[trip.design].push_back(trip.latency_ms);
        if (trip.ran.sessions > 0) session_ms.push_back(trip.ran.mean_ms());
        work_sum += trip.report.debug_work.sum();
        work_n += static_cast<double>(trip.report.debug_work.count());
      }
    }
    submits += fresh_log.trips.size() + rerun_log.trips.size();
  }
  const double peak_mb = peak_rss_mb();
  print_latency_by_design("fresh", fresh_by_design);
  print_latency_by_design("rerun", rerun_by_design);
  const MetricsSnapshot snap = parse_metrics_text(control.fetch_metrics());

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
  m.set("peak_rss_mb", peak_mb, "MB");

  // Output checks, outside the timed window.
  const auto submit_counter = snap.counters.find("endpoint.requests.SUBMIT");
  result.check(submit_counter != snap.counters.end() &&
                   submit_counter->second == submits,
               "SUBMITs sent (" + std::to_string(submits) +
                   ") equal the daemon's SUBMIT counter");
  const std::size_t k = shuffled_order(fresh_specs.size(), opts.seed, 0xD1).front();
  result.check(run_campaign(fresh_specs[k]).to_json() == fresh_json[k],
               "service report of " + kFreshDesigns[k] +
                   " equals a direct run_campaign");
  check_sampled_sessions(fresh_specs[k], fresh_goldens[k], fresh_report[k], 2,
                         opts.seed, result);
  static_cast<void>(
      check_eco_locality(fresh_goldens[1][0], opts.seed, result, true));
  self_test_checks(fresh_goldens[k][0], opts.seed, fresh_json[k], result);

  if (rec.enabled()) {
    MetricSet& l = result.layers;
    kernel_pass(refs, rec, l, result);
    ReplayStats stats;
    const Scope replay(rec, "replay", rec.new_group());
    static_cast<void>(
        replay_campaign(fresh_specs[k], fresh_goldens[k], rec, replay.id(),
                        stats));
    stats.write(l, rec);
    l.set("campaign.report_ms", mean_of(report_ms), "ms");
    l.set("campaign.cache_hit_ratio",
          sessions ? static_cast<double>(hits) / sessions : 0.0, "ratio");
    l.set("service.submit_ms", median(submit_ms), "ms");
    l.set("service.wait_ms", median(wait_ms), "ms");
    const auto hist_p50_ms = [&](const char* name) {
      const auto it = snap.histograms.find(name);
      return it == snap.histograms.end()
                 ? 0.0
                 : static_cast<double>(it->second.quantile(0.5)) / 1e3;
    };
    l.set("service.queue_wait_ms", hist_p50_ms("scheduler.ticket_wait_us"),
          "ms");
    l.set("service.session_ms", hist_p50_ms("session.wall_us"), "ms");
    l.set("service.requests_per_campaign",
          campaigns ? static_cast<double>(request_count(snap) -
                                          requests_before) /
                          campaigns
                    : 0.0,
          "count");
    finish_trace(opts, rec, l, ms_since(start));
  }
  return result;
}

}  // namespace e2e
