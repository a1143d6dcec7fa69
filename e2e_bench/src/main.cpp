/// End-to-end benchmark of the emutile library: one process drives the
/// program through its public functions and times those calls from outside.
///
///   e2e_bench --workload direct_mix|service_mixed|fleet_small --seed N
///             --seconds S --trace 0|1 [--out DIR]
///
/// Paths are relative to the working directory (daemon roots and sockets
/// live there). The last line of stdout is one JSON object with `correct`,
/// `attempted`, `failed` and `metrics` — the end-to-end metrics untraced,
/// the per-layer metrics traced. Progress and diagnostics go to stderr.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/log.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload direct_mix|service_mixed|"
               "fleet_small --seed N --seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  opts.process_start = e2e::Clock::now();
  opts.out_dir = "out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") opts.workload = value;
    else if (arg == "--seed") opts.seed = std::stoull(value);
    else if (arg == "--seconds") opts.seconds = std::stod(value);
    else if (arg == "--trace") opts.trace = value != "0";
    else if (arg == "--out") opts.out_dir = value;
    else usage("unknown argument " + arg);
  }
  if (opts.seconds <= 0) usage("--seconds must be positive");
  emutile::set_log_threshold(emutile::LogLevel::kWarn);

  e2e::Recorder rec(opts.trace);
  e2e::RunResult result;
  if (opts.workload == "direct_mix") result = e2e::run_direct_mix(opts, rec);
  else if (opts.workload == "service_mixed")
    result = e2e::run_service_mixed(opts, rec);
  else if (opts.workload == "fleet_small")
    result = e2e::run_fleet_small(opts, rec);
  else usage("unknown workload '" + opts.workload + "'");

  if (opts.trace) {
    e2e::fill_missing_layer_metrics(result.layers);
    std::cerr << "traced run, end-to-end figures for comparison with an "
                 "untraced run: "
              << result.metrics.to_json() << "\n";
  }
  std::cerr << result.checks_passed << " output checks passed"
            << (result.correct ? "" : ", some FAILED") << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << (opts.trace ? result.layers : result.metrics).to_json() << "}"
            << std::endl;
  return 0;
}
