#pragma once
/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: run options, the result
/// record every workload fills, order statistics, and the in-memory span
/// recorder behind the traced mode.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/campaign_report.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
[[nodiscard]] inline double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Sessions of a report that count as failed operations: they threw, were
/// cancelled, or had their error detected without being corrected and
/// re-verified clean.
[[nodiscard]] inline std::size_t failed_sessions(
    const emutile::CampaignReport& r) {
  return r.failed + r.cancelled + (r.detected - r.clean);
}

/// The in-process session.wall_us histogram's count and sum: every session
/// a daemon of this process ran records its wall time there. Differences of
/// two readings give the sessions run in between and their exact mean.
struct SessionWall {
  std::uint64_t sessions = 0;
  double total_ms = 0.0;
  [[nodiscard]] static SessionWall now();
  [[nodiscard]] SessionWall operator-(const SessionWall& o) const {
    return {sessions - o.sessions, total_ms - o.total_ms};
  }
  [[nodiscard]] double mean_ms() const {
    return sessions ? total_ms / static_cast<double>(sessions) : 0.0;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir;  ///< where the traced run writes its spans
  Clock::time_point process_start;
};

/// Named metric values in insertion order, each with its unit.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] bool has(const std::string& name) const {
    return index_.count(name) != 0;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Everything one run reports: end-to-end metrics, and per-layer metrics
/// when traced. `check` records a failed output check (the run still
/// finishes, but prints correct=false); it is not thread-safe.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t checks_passed = 0;
  MetricSet metrics;
  MetricSet layers;
  void check(bool ok, const std::string& what);
  void count(const emutile::CampaignReport& r) {
    attempted += r.sessions;
    failed += failed_sessions(r);
  }
};

// ---- span recording (traced mode) ------------------------------------------

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t group = 0;   ///< the campaign or session the span belongs to
  std::uint32_t lane = 0;    ///< recording thread (Perfetto track)
  double start_us = 0.0;
  double end_us = 0.0;
  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

struct CountSample {
  std::string name;
  std::uint64_t group = 0;
  double ts_us = 0.0;
  double value = 0.0;
};

/// Thread-safe in-memory span and counter store. A disabled recorder
/// ignores everything, so the untraced path pays one branch per call site.
class Recorder {
 public:
  explicit Recorder(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::uint64_t new_group();
  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::string_view name, std::uint64_t group,
                    std::uint64_t parent, double start_us, double end_us);
  /// Record a span whose id was reserved earlier with reserve().
  void add_reserved(std::uint64_t id, std::string_view name,
                    std::uint64_t group, std::uint64_t parent,
                    double start_us, double end_us);
  [[nodiscard]] std::uint64_t reserve();
  void count(std::string_view name, std::uint64_t group, double value);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t span_count() const;
  /// Total self time per span name (duration minus the children's), in ms,
  /// and how many spans carried the name.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>>
  self_times_ms() const;
  /// Write Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
  void write_chrome_json(const std::filesystem::path& path) const;
  /// Cost of recording one span on this machine, in microseconds, measured
  /// on a scratch recorder.
  [[nodiscard]] static double span_cost_us();

 private:
  [[nodiscard]] std::uint32_t lane_locked();
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_group_ = 1;
  std::vector<Span> spans_;
  std::vector<CountSample> counts_;
  std::map<std::thread::id, std::uint32_t> lanes_;
};

/// RAII span on a recorder; `id()` parents child spans.
class Scope {
 public:
  Scope(Recorder& rec, std::string_view name, std::uint64_t group,
        std::uint64_t parent = 0)
      : rec_(rec), name_(name), group_(group), parent_(parent),
        id_(rec.reserve()), start_us_(rec.enabled() ? rec.now_us() : 0.0) {}
  ~Scope() {
    if (rec_.enabled())
      rec_.add_reserved(id_, name_, group_, parent_, start_us_, rec_.now_us());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] double start_us() const { return start_us_; }

 private:
  Recorder& rec_;
  std::string name_;
  std::uint64_t group_;
  std::uint64_t parent_;
  std::uint64_t id_;
  double start_us_;
};

// ---- workloads --------------------------------------------------------------

/// A catalog design and the seed its golden netlist is built with.
struct DesignRef {
  std::string name;
  std::uint64_t design_seed = 0;
};

/// Traced-run kernel pass: times pack, RrGraph, Placer::place,
/// Router::route, Simulator::step and one apply_change/full_eco on each
/// design, writing the synth/arch/place/route/sim/eco layer metrics.
void kernel_pass(const std::vector<DesignRef>& designs, Recorder& rec,
                 MetricSet& m, RunResult& result);

/// End of a traced run: writes the spans as Chrome trace-event JSON under
/// opts.out_dir, prints self times per span name to stderr, and records
/// trace.spans and trace.overhead_pct (recording cost as a share of
/// `traced_ms`, the wall time the spans cover).
void finish_trace(const Options& opts, const Recorder& rec, MetricSet& m,
                  double traced_ms);

RunResult run_direct_mix(const Options& opts, Recorder& rec);
RunResult run_service_mixed(const Options& opts, Recorder& rec);
RunResult run_fleet_small(const Options& opts, Recorder& rec);

/// Writes the per-layer metrics every traced run reports but this workload
/// does not exercise, as 0, so each traced run carries the full set.
void fill_missing_layer_metrics(MetricSet& m);

/// Print the median latency per design of one campaign class to stderr.
void print_latency_by_design(
    const std::string& what,
    const std::map<std::string, std::vector<double>>& by_design);

/// Deterministic permutation of [0, n) from a seed and a round number.
[[nodiscard]] std::vector<std::size_t> shuffled_order(std::size_t n,
                                                      std::uint64_t seed,
                                                      std::uint64_t round);

}  // namespace e2e
