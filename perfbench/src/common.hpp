// Shared types of the benchmark: run options, the result a
// workload hands back, and host readouts.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seconds-long run with small inputs that still runs every check.
  bool smoke = false;
  /// Directory for the daemon socket, journals and the trace file.
  std::string work_dir;
  /// mimdmap_cli binary, for the serve workload.
  std::string cli;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  Tally tally;
  std::vector<Metric> metrics;
  /// Extra run context (input hash, trace path, validity...), printed
  /// before the result line.
  std::vector<std::pair<std::string, std::string>> context;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Metric names and units, in output order. A traced run reports every
/// per-layer metric: a layer the workload does not cross reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},     {"jobs_per_s", "1/s"}, {"quality_pct_lb", "%"}, {"peak_rss_mb", "MiB"},
      {"ok_pct", "%"},      {"p50_ms", "ms"},      {"hit_p50_ms", "ms"},    {"hit_speedup", "x"},
      {"bulk_p50_ms", "ms"}};
  return specs;
}

inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"cli.manifest.parse_ms", "ms"},
      {"workload.gen_ms", "ms"},
      {"graph.io.parse_ms", "ms"},
      {"topology.make_ms", "ms"},
      {"cluster.make_ms", "ms"},
      {"graph.topology_cache.acquire_ms", "ms"},
      {"graph.topology_cache.hit_pct", "%"},
      {"core.instance.build_ms", "ms"},
      {"core.eval_engine.build_us", "us"},
      {"core.ideal_graph.us_per_job", "us"},
      {"core.critical.us_per_job", "us"},
      {"core.initial_assignment.us_per_job", "us"},
      {"baseline.random_mapping.us_per_job", "us"},
      {"core.refinement.us_per_job", "us"},
      {"core.refinement.ns_per_trial", "ns"},
      {"core.refinement.trials_per_job", "count"},
      {"core.refinement.accept_pct", "%"},
      {"core.refinement.lb_stop_pct", "%"},
      {"service.map_service.queue_p50_ms", "ms"},
      {"service.map_service.queue_p99_ms", "ms"},
      {"service.map_service.job_wall_p50_ms", "ms"},
      {"service.map_service.job_wall_p99_ms", "ms"},
      {"service.map_service.overhead_pct", "%"},
      {"service.map_service.lanes_mean", "count"},
      {"service.thread_pool.chunks", "count"},
      {"service.thread_pool.sequential_chunks", "count"},
      {"service.thread_pool.stolen", "count"},
      {"service.wire.parse_us", "us"},
      {"service.wire.fingerprint_us", "us"},
      {"service.result_cache.hit_pct", "%"},
      {"service.result_cache.lookup_us", "us"},
      {"service.result_cache.evictions", "count"},
      {"service.journal.appends", "count"},
      {"service.journal.fsyncs", "count"},
      {"service.journal.append_us", "us"},
      {"service.journal.bytes_per_job", "B"},
      {"service.server.queue_wait_ms.prio0", "ms"},
      {"service.server.queue_wait_ms.prio1", "ms"},
      {"service.server.request_us", "us"},
      {"service.server.shed", "count"},
      {"gen.late_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.replayed_jobs", "count"}};
  return specs;
}

[[nodiscard]] RunResult run_batch(const RunOptions& options);
[[nodiscard]] RunResult run_serve(const RunOptions& options);

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MiB.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0;
}

inline std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

/// Percentile that must exist: the workloads are sized so every reported
/// percentile has enough tail samples, so a refusal is a benchmark bug.
inline double required_percentile(const std::vector<double>& values, double q,
                                  const char* what) {
  const std::optional<double> v = percentile(values, q);
  if (!v) {
    throw std::runtime_error(std::string("too few samples for ") + what + " (" +
                             std::to_string(values.size()) + ")");
  }
  return *v;
}

/// Space-separated values, for context readouts.
inline std::string join(const std::vector<double>& values) {
  std::string text;
  for (const double v : values) {
    if (!text.empty()) text += ' ';
    text += std::to_string(v);
  }
  return text;
}

/// p99_ms and bulk_p99_ms go to the run context, not the bounded metrics:
/// on a shared host they follow the disk's fsync latency and the
/// neighbours' load, and moved 3-5x between runs minutes apart while the
/// medians held. Reported with their sample counts; "refused" when fewer
/// than ten samples lie beyond the p99.
inline void add_tail_readouts(RunResult& out, const std::vector<double>& main_class,
                              const std::vector<double>& bulk_class) {
  const auto readout = [](const std::vector<double>& v) {
    const std::optional<double> p99 = percentile(v, 0.99);
    return (p99 ? std::to_string(*p99) : std::string("refused")) + " (n=" +
           std::to_string(v.size()) + ")";
  };
  out.context.emplace_back("p99_ms", readout(main_class));
  out.context.emplace_back("bulk_p99_ms", readout(bulk_class));
}

}  // namespace perfbench
