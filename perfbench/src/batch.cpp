// paper_batch and contention_batch: the `mimdmap_cli batch` path driven
// through the library. Set-up makes the calls cmd_batch makes (manifest
// parse, one TopologyCache, one instance per line); the measured phase
// maps the whole manifest with one MapService::map_batch per round at
// nproc lanes, round after round until the run's time is used.
#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/random_mapping.hpp"
#include "cli/manifest.hpp"
#include "cluster/strategies.hpp"
#include "common.hpp"
#include "core/critical.hpp"
#include "core/eval_engine.hpp"
#include "core/ideal_graph.hpp"
#include "core/initial_assignment.hpp"
#include "core/instance.hpp"
#include "core/refinement.hpp"
#include "core/validate.hpp"
#include "gen.hpp"
#include "graph/graph_io.hpp"
#include "graph/topology_cache.hpp"
#include "obs/metrics.hpp"
#include "service/map_service.hpp"
#include "spans.hpp"
#include "topology/factory.hpp"

namespace perfbench {
namespace {

using namespace mimdmap;

/// Jobs of the scheduler's bulk class (MapServiceOptions::bulk_job_tasks).
constexpr NodeId kBulkTasks = 256;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct WorkloadShape {
  BatchKind kind = BatchKind::kPaper;
  int jobs = 0;         // manifest lines
  int replay_jobs = 0;  // jobs the traced run replays stage by stage
};

WorkloadShape shape_for(const RunOptions& options) {
  if (options.workload == "paper_batch") {
    return options.smoke ? WorkloadShape{BatchKind::kPaper, 400, 100}
                         : WorkloadShape{BatchKind::kPaper, 5000, 2000};
  }
  return options.smoke ? WorkloadShape{BatchKind::kContention, 12, 4}
                       : WorkloadShape{BatchKind::kContention, 600, 24};
}

/// Set-up stage times of one set-up, summed over manifest lines.
struct SetupTimes {
  double parse_ms = 0;    // cli::parse_manifest
  double io_ms = 0;       // task_graph_from_text
  double topo_ms = 0;     // make_topology
  double cluster_ms = 0;  // make_clustering
  double acquire_ms = 0;  // TopologyCache::acquire
  double build_ms = 0;    // MappingInstance construction
  double total_s = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// One set-up: instances built against one topology cache, and the MapJob
/// of every manifest line, mirroring cmd_batch's key handling.
struct Built {
  TopologyCache cache;
  std::deque<MappingInstance> instances;
  std::vector<MapJob> jobs;
  SetupTimes times;
};

const std::string& problem_text(const BatchInputs& in, const std::string& name) {
  if (name.rfind("gen:", 0) != 0) throw std::invalid_argument("unknown problem " + name);
  const std::size_t index = std::stoul(name.substr(4));
  if (index >= in.problems.size()) throw std::invalid_argument("unknown problem " + name);
  return in.problems[index];
}

std::unique_ptr<Built> build(const BatchInputs& in, SpanRecorder* spans) {
  auto built = std::make_unique<Built>();
  SetupTimes& t = built->times;
  const auto t0 = Clock::now();
  const int root = spans ? spans->begin("setup", -1, -1) : -1;
  const auto timed = [&](const char* name, std::int64_t job, double& sum, auto&& fn) {
    const int span = spans ? spans->begin(name, root, job) : -1;
    const auto a = Clock::now();
    auto value = fn();
    sum += ms_between(a, Clock::now());
    if (spans) spans->end(span);
    return value;
  };

  const std::vector<cli::ManifestJobSpec> specs =
      timed("cli.manifest.parse", -1, t.parse_ms, [&] { return cli::parse_manifest(in.manifest); });
  for (const cli::ManifestJobSpec& spec : specs) {
    const auto& kv = spec.kv;
    const std::int64_t job_index = static_cast<std::int64_t>(built->jobs.size());
    const auto get = [&](const std::string& key, const std::string& fallback) {
      const auto it = kv.find(key);
      return it == kv.end() ? fallback : it->second;
    };
    TaskGraph problem = timed("graph.io.parse", job_index, t.io_ms, [&] {
      return task_graph_from_text(problem_text(in, kv.at("problem")));
    });
    SystemGraph machine =
        timed("topology.make", job_index, t.topo_ms, [&] { return make_topology(kv.at("spec")); });
    Clustering clustering = timed("cluster.make", job_index, t.cluster_ms, [&] {
      return make_clustering(get("strategy", "block"), problem, machine.node_count(),
                             cli::manifest_seed(kv, "seed", 1, spec.line_no));
    });
    std::shared_ptr<const TopologyTables> tables =
        timed("graph.topology_cache.acquire", job_index, t.acquire_ms,
              [&] { return built->cache.acquire(machine, DistanceModel::kHops); });
    timed("core.instance.build", job_index, t.build_ms, [&] {
      built->instances.emplace_back(std::move(problem), std::move(clustering), std::move(machine),
                                    std::move(tables));
      return 0;
    });

    MapJob job;
    job.instance = &built->instances.back();
    job.name = get("name", "job-" + std::to_string(job_index + 1));
    job.options.refine.eval.serialize_within_processor = cli::manifest_bool(kv, "serialize");
    job.options.refine.eval.link_contention = cli::manifest_bool(kv, "contention");
    job.options.refine.seed =
        cli::manifest_seed(kv, "refine-seed", 0x9e3779b97f4a7c15ULL, spec.line_no);
    job.options.refine.max_trials = static_cast<std::int64_t>(
        cli::manifest_seed(kv, "trials", static_cast<std::uint64_t>(-1), spec.line_no));
    job.random_trials =
        static_cast<std::int64_t>(cli::manifest_seed(kv, "random-trials", 0, spec.line_no));
    job.random_seed = cli::manifest_seed(kv, "random-seed", 99, spec.line_no);
    built->jobs.push_back(std::move(job));
  }
  if (spans) spans->end(root);
  t.total_s = ms_between(t0, Clock::now()) / 1000.0;
  t.hits = built->cache.hits();
  t.misses = built->cache.misses();
  return built;
}

/// Per-round checks on one result: status ok, total >= lower bound, and
/// the same total as the first round (MapService is lane-independent).
bool result_checks(const MapJobResult& r, std::int64_t expected_total) {
  return r.report.total_time() >= r.report.lower_bound &&
         (expected_total < 0 || r.report.total_time() == expected_total);
}

/// Per-layer tail readout: the q-quantile, or the sample maximum when the
/// sample is too small for that quantile to have ten samples beyond it.
double quantile_or_max(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  return percentile(values, q).value_or(*std::max_element(values.begin(), values.end()));
}

double counter_value(const char* name) {
  return static_cast<double>(obs::registry().counter(name).value());
}

struct StageSums {
  double engine_us = 0, ideal_us = 0, critical_us = 0, initial_us = 0, refine_us = 0,
         random_us = 0;
  double trials = 0, improvements = 0, lb_stops = 0, jobs = 0;
  double traced_ms = 0, untraced_ms = 0;
};

/// Replays one job through the public calls map_flat and run_map_job make,
/// in their order, one span per call. Returns the replayed total.
Weight replay_job(const MapJob& job, const std::shared_ptr<ThreadPool>& pool,
                  std::int64_t job_index, SpanRecorder& spans, StageSums& sums,
                  RandomMappingStats& random_out) {
  const MappingInstance& instance = *job.instance;
  MapperOptions options = job.options;
  options.refine.num_threads = 1;
  const int root = spans.begin("job", -1, job_index);
  const auto stage = [&](const char* name, double& sum_us, auto&& fn) {
    const int span = spans.begin(name, root, job_index);
    auto value = fn();
    sum_us += static_cast<double>(spans.end(span)) / 1000.0;
    return value;
  };

  const auto engine = stage("core.eval_engine.build", sums.engine_us, [&] {
    auto e = std::make_unique<EvalEngine>(instance, pool);
    if (instance.shared_tables()) e->adopt_topology(instance.shared_tables());
    return e;
  });
  const IdealSchedule ideal = stage("core.ideal_graph.compute_ideal_schedule", sums.ideal_us,
                                    [&] { return compute_ideal_schedule(instance); });
  const CriticalInfo critical = stage("core.critical.find_critical", sums.critical_us, [&] {
    return find_critical(instance, ideal, options.critical);
  });
  const InitialAssignmentResult initial =
      stage("core.initial_assignment", sums.initial_us, [&] {
        InitialAssignmentResult r = initial_assignment(instance, critical);
        (void)engine->evaluate(r.assignment, options.refine.eval);
        return r;
      });
  const RefineResult refined = stage("core.refinement.refine", sums.refine_us, [&] {
    return refine(*engine, ideal, initial, options.refine);
  });
  if (job.random_trials > 0) {
    random_out = stage("baseline.random_mapping", sums.random_us, [&] {
      return evaluate_random_mappings(*engine, job.random_trials, job.random_seed,
                                      options.refine.eval);
    });
  }
  spans.end(root);
  sums.trials += static_cast<double>(refined.trials_used);
  sums.improvements += static_cast<double>(refined.improvements);
  sums.lb_stops += refined.terminated_early ? 1 : 0;
  sums.jobs += 1;
  return refined.schedule.total_time;
}

void add_setup_metrics(RunResult& out, const SetupTimes& t, double gen_ms) {
  out.add("cli.manifest.parse_ms", t.parse_ms, "ms");
  out.add("workload.gen_ms", gen_ms, "ms");
  out.add("graph.io.parse_ms", t.io_ms, "ms");
  out.add("topology.make_ms", t.topo_ms, "ms");
  out.add("cluster.make_ms", t.cluster_ms, "ms");
  out.add("graph.topology_cache.acquire_ms", t.acquire_ms, "ms");
  const double lookups = static_cast<double>(t.hits + t.misses);
  out.add("graph.topology_cache.hit_pct",
          lookups > 0 ? 100.0 * static_cast<double>(t.hits) / lookups : 0, "%");
  out.add("core.instance.build_ms", t.build_ms, "ms");
}

}  // namespace

RunResult run_batch(const RunOptions& options) {
  const WorkloadShape shape = shape_for(options);
  RunResult out;

  const auto g0 = Clock::now();
  const BatchInputs inputs = make_batch_inputs(shape.kind, options.seed, shape.jobs);
  const double gen_ms = ms_between(g0, Clock::now());
  out.context.emplace_back("input_hash", std::to_string(inputs.hash));
  out.context.emplace_back("jobs_per_round", std::to_string(shape.jobs));

  const int lanes = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  MapServiceOptions service_options;
  service_options.lanes = lanes;
  MapService service(std::move(service_options));

  SpanRecorder spans;
  std::vector<double> setup_s;
  std::unique_ptr<Built> built;
  for (int i = 0; i < kSetups; ++i) {
    built.reset();  // one set-up alive at a time
    built = build(inputs, options.trace && i == 0 ? &spans : nullptr);
    setup_s.push_back(built->times.total_s);
  }

  out.context.emplace_back("setup_samples_s", join(setup_s));

  // Measured phase: rounds of one map_batch over the whole manifest.
  Tally& tally = out.tally;
  std::vector<Weight> expected(built->jobs.size(), -1);
  std::vector<MapJobResult> first_round;
  std::vector<double> rates, wall_all, wall_bulk, wall_repeat;
  std::vector<double> queue_ms;
  double stage_wall_ms = 0, stage_sum_ms = 0, lanes_sum = 0;
  const double chunks0 = counter_value("mimdmap_pool_chunks_total");
  const double seq0 = counter_value("mimdmap_pool_chunks_sequential_total");
  const double stolen0 = counter_value("mimdmap_pool_indices_stolen_total");
  const auto m0 = Clock::now();
  // The traced run needs one round for the orchestration metrics; the
  // untraced run keeps going until its time is used (at least 3 rounds).
  for (int round = 0;; ++round) {
    const double elapsed_s = ms_between(m0, Clock::now()) / 1000.0;
    if (round >= (options.trace ? 1 : 3) && (options.trace || elapsed_s >= options.seconds)) break;
    const auto r0 = Clock::now();
    std::vector<MapJobResult> results = service.map_batch(built->jobs);
    const double round_s = ms_between(r0, Clock::now()) / 1000.0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const MapJobResult& r = results[i];
      const bool checks_ok = !r.ok() || result_checks(r, expected[i]);
      tally.record(r.ok(), checks_ok);
      if (!r.ok()) continue;
      ++ok;
      if (expected[i] < 0) expected[i] = r.report.total_time();
      wall_all.push_back(r.wall_ms);
      if (r.np >= kBulkTasks) wall_bulk.push_back(r.wall_ms);
      if (round > 0) wall_repeat.push_back(r.wall_ms);
      if (round == 0) {
        queue_ms.push_back(r.queue_ms);
        stage_wall_ms += r.wall_ms;
        stage_sum_ms += r.stages.build_ms + r.stages.topo_ms + r.stages.map_ms + r.stages.random_ms;
        lanes_sum += r.lanes;
      }
    }
    rates.push_back(static_cast<double>(ok) / round_s);
    if (round == 0) first_round = std::move(results);
  }
  const double chunks = counter_value("mimdmap_pool_chunks_total") - chunks0;
  const double sequential = counter_value("mimdmap_pool_chunks_sequential_total") - seq0;
  const double stolen = counter_value("mimdmap_pool_indices_stolen_total") - stolen0;

  // Independent re-derivation of the schedule on a deterministic sample.
  const std::size_t stride = std::max<std::size_t>(1, first_round.size() / 64);
  for (std::size_t i = 0; i < first_round.size(); i += stride) {
    const MapJobResult& r = first_round[i];
    if (!r.ok()) continue;
    const std::vector<std::string> violations =
        schedule_violations(*built->jobs[i].instance, r.report.assignment, r.report.schedule,
                            built->jobs[i].options.refine.eval);
    tally.check(violations.empty());
  }

  double quality_sum = 0;
  std::size_t quality_n = 0;
  for (const MapJobResult& r : first_round) {
    if (!r.ok() || r.report.lower_bound <= 0) continue;
    quality_sum += 100.0 * static_cast<double>(r.report.total_time()) /
                   static_cast<double>(r.report.lower_bound);
    ++quality_n;
  }

  if (!options.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("jobs_per_s", median(rates), "1/s");
    out.add("quality_pct_lb", quality_n ? quality_sum / static_cast<double>(quality_n) : 0, "%");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_pct", tally.ok_pct(), "%");
    const double p50 = required_percentile(wall_all, 0.5, "p50_ms");
    const double hit_p50 = required_percentile(wall_repeat, 0.5, "hit_p50_ms");
    out.add("p50_ms", p50, "ms");
    out.add("hit_p50_ms", hit_p50, "ms");
    out.add("hit_speedup", p50 / hit_p50, "x");
    out.add("bulk_p50_ms", required_percentile(wall_bulk, 0.5, "bulk_p50_ms"), "ms");
    add_tail_readouts(out, wall_all, wall_bulk);
    out.context.emplace_back("rounds", std::to_string(rates.size()));
    return out;
  }

  // Traced run: replay a fixed prefix of the manifest stage by stage,
  // alternating with the untraced run_map_job of the same job so the
  // difference is the tracing overhead.
  StageSums sums;
  const std::shared_ptr<ThreadPool>& pool = service.pool();
  const int replay = std::min<int>(shape.replay_jobs, static_cast<int>(built->jobs.size()));
  for (int i = 0; i < replay; ++i) {
    const MapJob& job = built->jobs[static_cast<std::size_t>(i)];
    const MapJobResult& reference = first_round[static_cast<std::size_t>(i)];
    // Alternate which side runs first so warm caches favour neither.
    MapJobResult untraced;
    RandomMappingStats random;
    Weight total = 0;
    for (int side = 0; side < 2; ++side) {
      const auto t0 = Clock::now();
      if ((side == 0) == (i % 2 == 0)) {
        untraced = run_map_job(job, pool, 1, nullptr);
        sums.untraced_ms += ms_between(t0, Clock::now());
      } else {
        total = replay_job(job, pool, i, spans, sums, random);
        sums.traced_ms += ms_between(t0, Clock::now());
      }
    }
    const bool same = reference.ok() && untraced.report.total_time() == reference.report.total_time() &&
                      total == reference.report.total_time() &&
                      random.totals == reference.random.totals;
    tally.check(same);
  }

  const double jobs = std::max(1.0, sums.jobs);
  add_setup_metrics(out, built->times, gen_ms);
  out.add("core.eval_engine.build_us", sums.engine_us / jobs, "us");
  out.add("core.ideal_graph.us_per_job", sums.ideal_us / jobs, "us");
  out.add("core.critical.us_per_job", sums.critical_us / jobs, "us");
  out.add("core.initial_assignment.us_per_job", sums.initial_us / jobs, "us");
  out.add("baseline.random_mapping.us_per_job", sums.random_us / jobs, "us");
  out.add("core.refinement.us_per_job", sums.refine_us / jobs, "us");
  out.add("core.refinement.ns_per_trial",
          sums.trials > 0 ? sums.refine_us * 1000.0 / sums.trials : 0, "ns");
  out.add("core.refinement.trials_per_job", sums.trials / jobs, "count");
  out.add("core.refinement.accept_pct",
          sums.trials > 0 ? 100.0 * sums.improvements / sums.trials : 0, "%");
  out.add("core.refinement.lb_stop_pct", 100.0 * sums.lb_stops / jobs, "%");
  out.add("service.map_service.queue_p50_ms", quantile_or_max(queue_ms, 0.5), "ms");
  out.add("service.map_service.queue_p99_ms", quantile_or_max(queue_ms, 0.99), "ms");
  std::vector<double> first_wall;
  for (const MapJobResult& r : first_round) first_wall.push_back(r.wall_ms);
  out.add("service.map_service.job_wall_p50_ms", quantile_or_max(first_wall, 0.5), "ms");
  out.add("service.map_service.job_wall_p99_ms", quantile_or_max(first_wall, 0.99), "ms");
  out.add("service.map_service.overhead_pct",
          stage_wall_ms > 0 ? 100.0 * (stage_wall_ms - stage_sum_ms) / stage_wall_ms : 0, "%");
  out.add("service.map_service.lanes_mean",
          lanes_sum / static_cast<double>(std::max<std::size_t>(1, first_round.size())), "count");
  out.add("service.thread_pool.chunks", chunks, "count");
  out.add("service.thread_pool.sequential_chunks", sequential, "count");
  out.add("service.thread_pool.stolen", stolen, "count");
  out.add("trace.overhead_pct",
          sums.untraced_ms > 0 ? 100.0 * (sums.traced_ms - sums.untraced_ms) / sums.untraced_ms : 0,
          "%");
  out.add("trace.replayed_jobs", sums.jobs, "count");

  const std::string trace_path = options.work_dir + "/trace-" + options.workload + ".json";
  tally.check(spans.write_chrome(trace_path));
  out.context.emplace_back("trace_file", trace_path);
  out.context.emplace_back("spans", std::to_string(spans.spans().size()));
  return out;
}

}  // namespace perfbench
