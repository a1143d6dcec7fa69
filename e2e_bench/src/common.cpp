#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace e2e {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::uint64_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  emutile::Rng rng(emutile::split_seed(seed, round));
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

void print_latency_by_design(
    const std::string& what,
    const std::map<std::string, std::vector<double>>& by_design) {
  std::cerr << what << " latency p50 by design (ms):";
  for (const auto& [design, ms] : by_design)
    std::cerr << " " << design << "=" << std::fixed << std::setprecision(1)
              << median(ms) << std::defaultfloat << " (n=" << ms.size() << ")";
  std::cerr << "\n";
}

SessionWall SessionWall::now() {
  const emutile::MetricHistogram& h =
      emutile::MetricsRegistry::global().histogram("session.wall_us");
  return {h.count(), static_cast<double>(h.sum()) / 1e3};
}

// ---- metrics ----------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

std::string MetricSet::to_json() const {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << e.value
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}";
  return os.str();
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed;
    return;
  }
  correct = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

namespace {

/// Every per-layer metric a traced run reports, with its unit.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"synth.golden_ms", "ms"},
    {"synth.pack_ms", "ms"},
    {"arch.rr_build_ms", "ms"},
    {"arch.rr_nodes", "count"},
    {"place.full_ms", "ms"},
    {"place.eco_ms", "ms"},
    {"place.instances_placed", "count"},
    {"route.full_ms", "ms"},
    {"route.full_nodes_expanded", "count"},
    {"route.eco_ms", "ms"},
    {"route.eco_nodes_expanded", "count"},
    {"route.nets_routed", "count"},
    {"sim.cycles_per_s", "1/s"},
    {"core.build_ms", "ms"},
    {"core.rebase_ms", "ms"},
    {"core.apply_change_ms", "ms"},
    {"core.warm_build_ratio", "ratio"},
    {"eco.full_ms", "ms"},
    {"eco.tiled_speedup", "ratio"},
    {"debug.inject_ms", "ms"},
    {"debug.detect_ms", "ms"},
    {"debug.localize_ms", "ms"},
    {"debug.correct_ms", "ms"},
    {"debug.verify_ms", "ms"},
    {"debug.localize_rounds", "count"},
    {"debug.probes_inserted", "count"},
    {"debug.probes_retargeted", "count"},
    {"debug.suspects", "count"},
    {"debug.correct_attempts", "count"},
    {"campaign.report_ms", "ms"},
    {"campaign.cache_hit_ratio", "ratio"},
    {"service.submit_ms", "ms"},
    {"service.wait_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.session_ms", "ms"},
    {"service.requests_per_campaign", "count"},
    {"orchestrator.dispatches", "count"},
    {"orchestrator.steals", "count"},
    {"orchestrator.affinity_dispatches", "count"},
    {"orchestrator.rerun_hit_ratio", "ratio"},
    {"orchestrator.instance_busy_ms", "ms"},
    {"orchestrator.idle_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void fill_missing_layer_metrics(MetricSet& m) {
  for (const auto& [name, unit] : kLayerMetrics)
    if (!m.has(name)) m.set(name, 0.0, unit);
}

// ---- recorder ---------------------------------------------------------------

Recorder::Recorder(bool enabled) : enabled_(enabled) {}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::uint64_t Recorder::new_group() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_group_++;
}

std::uint64_t Recorder::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::uint32_t Recorder::lane_locked() {
  const auto [it, inserted] = lanes_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(lanes_.size()));
  return it->second;
}

void Recorder::add_reserved(std::uint64_t id, std::string_view name,
                            std::uint64_t group, std::uint64_t parent,
                            double start_us, double end_us) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      {std::string(name), id, parent, group, lane_locked(), start_us, end_us});
}

std::uint64_t Recorder::add(std::string_view name, std::uint64_t group,
                            std::uint64_t parent, double start_us,
                            double end_us) {
  if (!enabled_) return 0;
  const std::uint64_t id = reserve();
  add_reserved(id, name, group, parent, start_us, end_us);
  return id;
}

void Recorder::count(std::string_view name, std::uint64_t group,
                     double value) {
  if (!enabled_) return;
  const double ts = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.push_back({std::string(name), group, ts, value});
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Recorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, std::pair<double, std::size_t>>
Recorder::self_times_ms() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : all)
    if (s.parent != 0) child_us[s.parent] += s.dur_us();
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const Span& s : all) {
    auto& [total, n] = out[s.name];
    const auto it = child_us.find(s.id);
    total += (s.dur_us() - (it == child_us.end() ? 0.0 : it->second)) / 1e3;
    ++n;
  }
  return out;
}

void Recorder::write_chrome_json(const std::filesystem::path& path) const {
  std::vector<Span> all = spans();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  std::vector<CountSample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = counts_;
  }
  std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : all) {
    os << (first ? "" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
       << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us()
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << "}}";
    first = false;
  }
  for (const CountSample& c : samples) {
    os << (first ? "" : ",\n") << "{\"name\":\"" << c.name
       << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << c.ts_us
       << ",\"args\":{\"value\":" << c.value << ",\"group\":" << c.group
       << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

double Recorder::span_cost_us() {
  constexpr int kSpans = 20000;
  Recorder scratch(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Scope s(scratch, "calibrate", 1);
  }
  return ms_since(t0) * 1e3 / kSpans;
}

void finish_trace(const Options& opts, const Recorder& rec, MetricSet& m,
                  double traced_ms) {
  const std::filesystem::path path =
      opts.out_dir / ("trace-" + opts.workload + "-" +
                      std::to_string(opts.seed) + ".json");
  rec.write_chrome_json(path);
  const std::size_t spans = rec.span_count();
  const double overhead_ms = static_cast<double>(spans) *
                             Recorder::span_cost_us() / 1e3;
  m.set("trace.spans", static_cast<double>(spans), "count");
  m.set("trace.overhead_pct",
        traced_ms > 0.0 ? 100.0 * overhead_ms / traced_ms : 0.0, "%");
  std::cerr << "trace: " << spans << " spans written to " << path.string()
            << "\nself time by span name (total ms, spans):\n";
  for (const auto& [name, entry] : rec.self_times_ms())
    std::cerr << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(12) << std::fixed << std::setprecision(1)
              << entry.first << std::setw(8) << entry.second << "\n";
  std::cerr << std::defaultfloat;
}

}  // namespace e2e
