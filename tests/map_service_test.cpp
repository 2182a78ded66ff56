// MapService contracts, above all the one the batch API is allowed to
// exist for: per-job results are bit-identical to the sequential
// single-threaded path for any lane count, any concurrency level and any
// submission order (per-job RNG streams are isolated and engine evaluation
// is thread-count-invariant, so the orchestrator must add zero
// nondeterminism).
#include "service/map_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/replication.hpp"
#include "cluster/strategies.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"

namespace mimdmap {
namespace {

/// A small heterogeneous portfolio: different topologies, workload shapes,
/// eval modes and seeds, the mix a batch manifest would carry.
struct Portfolio {
  std::deque<MappingInstance> instances;  // stable addresses
  std::vector<MapJob> jobs;
};

Portfolio make_portfolio() {
  Portfolio p;
  const StructuredWeights sw{{1, 9}, {1, 9}, 1234};

  const auto add = [&](TaskGraph problem, const std::string& topo, const std::string& strategy,
                       std::uint64_t cluster_seed, MapJob job) {
    SystemGraph system = make_topology(topo);
    Clustering clustering =
        make_clustering(strategy, problem, system.node_count(), cluster_seed);
    p.instances.emplace_back(std::move(problem), std::move(clustering), std::move(system));
    job.instance = &p.instances.back();
    job.name = "job-" + std::to_string(p.jobs.size());
    p.jobs.push_back(std::move(job));
  };

  LayeredDagParams layered;
  layered.num_tasks = 60;
  MapJob plain;
  plain.random_trials = 6;
  plain.random_seed = 42;
  add(make_layered_dag(layered, 11), "hypercube-3", "block", 1, plain);

  MapJob serialize;
  serialize.options.refine.eval.serialize_within_processor = true;
  serialize.seed = 777;  // exercises the seed override
  add(make_fft(8, sw), "mesh-2x4", "random", 5, serialize);

  MapJob contention;
  contention.options.refine.eval.link_contention = true;
  contention.random_trials = 4;
  add(make_diamond(5, 5, sw), "star-6", "level", 3, contention);

  ErdosRenyiDagParams erdos;
  erdos.num_tasks = 48;
  erdos.edge_probability = 0.08;
  MapJob budget;
  budget.options.refine.max_trials = 40;
  add(make_erdos_renyi_dag(erdos, 21), "ring-6", "round-robin", 9, budget);

  layered.num_tasks = 90;
  MapJob extended;
  extended.options.critical.propagate_through_intra_cluster = true;
  extended.random_trials = 3;
  add(make_layered_dag(layered, 31), "tree-2x3", "block", 2, extended);

  return p;
}

/// Fields that must be bit-identical across every execution strategy.
void expect_same_result(const MapJobResult& got, const MapJobResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.name, want.name) << what;
  EXPECT_EQ(got.report.total_time(), want.report.total_time()) << what;
  EXPECT_EQ(got.report.assignment, want.report.assignment) << what;
  EXPECT_EQ(got.report.initial_total, want.report.initial_total) << what;
  EXPECT_EQ(got.report.lower_bound, want.report.lower_bound) << what;
  EXPECT_EQ(got.report.reached_lower_bound, want.report.reached_lower_bound) << what;
  EXPECT_EQ(got.report.terminated_early, want.report.terminated_early) << what;
  EXPECT_EQ(got.report.refinement_trials, want.report.refinement_trials) << what;
  EXPECT_EQ(got.report.improvements, want.report.improvements) << what;
  EXPECT_EQ(got.random.totals, want.random.totals) << what;
  EXPECT_EQ(got.random.mean_milli, want.random.mean_milli) << what;
}

TEST(MapServiceTest, BatchIsBitIdenticalToSequentialForAnyLanesAndOrder) {
  Portfolio portfolio = make_portfolio();

  // Reference: the sequential single-threaded path (worker-less pool, one
  // lane, one job at a time).
  const auto sequential_pool = std::make_shared<ThreadPool>(0);
  std::vector<MapJobResult> reference;
  for (const MapJob& job : portfolio.jobs) {
    reference.push_back(run_map_job(job, sequential_pool, 1));
  }

  // 1 lane, 1 runner.
  {
    MapServiceOptions options;
    options.lanes = 1;
    options.max_concurrent_jobs = 1;
    MapService service(options);
    const auto results = service.map_batch(portfolio.jobs);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_same_result(results[i], reference[i], "serial service, job " + std::to_string(i));
    }
  }

  // Max lanes, max concurrency (an explicit 6-worker pool exercises real
  // concurrency even on single-core hosts).
  {
    MapServiceOptions options;
    options.pool = std::make_shared<ThreadPool>(6);
    MapService service(options);
    EXPECT_EQ(service.lane_budget(), 7);
    const auto results = service.map_batch(portfolio.jobs);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_same_result(results[i], reference[i], "wide service, job " + std::to_string(i));
    }
  }

  // Shuffled submission order through the future API.
  {
    MapServiceOptions options;
    options.pool = std::make_shared<ThreadPool>(3);
    MapService service(options);
    std::vector<std::size_t> order(portfolio.jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::reverse(order.begin(), order.end());
    std::swap(order[0], order[order.size() / 2]);
    std::vector<std::future<MapJobResult>> futures(portfolio.jobs.size());
    for (const std::size_t i : order) futures[i] = service.submit(portfolio.jobs[i]);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      expect_same_result(futures[i].get(), reference[i],
                         "shuffled submission, job " + std::to_string(i));
    }
  }
}

TEST(MapServiceTest, TopologyCacheSharesTablesAcrossJobsBitIdentically) {
  // Jobs reusing a machine must share one topology-table build through the
  // service cache (ROADMAP open item) with per-job hits reported, and the
  // cached path must stay bit-identical to the cache-free sequential path.
  LayeredDagParams layered;
  layered.num_tasks = 50;
  std::deque<MappingInstance> instances;
  std::vector<MapJob> jobs;
  for (int i = 0; i < 6; ++i) {
    TaskGraph problem = make_layered_dag(layered, 100 + static_cast<std::uint64_t>(i));
    // Two distinct machines alternate, so both populate the cache once.
    SystemGraph system = make_topology(i % 2 == 0 ? "hypercube-3" : "mesh-2x4");
    Clustering clustering =
        make_clustering("block", problem, system.node_count(), 1);
    instances.emplace_back(std::move(problem), std::move(clustering), std::move(system));
    MapJob job;
    job.instance = &instances.back();
    job.name = "cache-job-" + std::to_string(i);
    job.options.refine.eval.link_contention = true;  // exercises shared routing
    jobs.push_back(job);
  }

  std::vector<MapJobResult> uncached;
  for (const MapJob& job : jobs) uncached.push_back(run_map_job(job));

  MapServiceOptions opts;
  opts.max_concurrent_jobs = 1;  // deterministic hit pattern: first per machine misses
  MapService service(std::move(opts));
  const std::vector<MapJobResult> cached = service.map_batch(jobs);

  ASSERT_EQ(cached.size(), uncached.size());
  int hits = 0;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    expect_same_result(cached[i], uncached[i], "cache job " + std::to_string(i));
    hits += cached[i].topology_cache_hit ? 1 : 0;
  }
  // 6 jobs over 2 machines: each machine builds once and hits thereafter.
  EXPECT_EQ(hits, 4);
  EXPECT_EQ(service.topology_cache().misses(), 2);
  EXPECT_EQ(service.topology_cache().hits(), 4);
  EXPECT_EQ(service.topology_cache().size(), 2u);
  for (const MapJobResult& r : uncached) EXPECT_FALSE(r.topology_cache_hit);
}

TEST(MapServiceTest, InstancesBuiltOnSharedTablesMatchSelfBuiltOnes) {
  // A MappingInstance constructed against TopologyCache tables (the CLI
  // batch manifest path) must evaluate bit-identically to one that builds
  // its own matrices, in every mode.
  LayeredDagParams layered;
  layered.num_tasks = 60;
  TopologyCache cache;
  for (const char* spec : {"hypercube-3", "mesh-2x4"}) {
    TaskGraph problem = make_layered_dag(layered, 7);
    SystemGraph system = make_topology(spec);
    Clustering clustering = make_clustering("block", problem, system.node_count(), 1);
    bool hit = true;
    const auto tables = cache.acquire(system, DistanceModel::kHops, &hit);
    EXPECT_FALSE(hit);
    const MappingInstance shared(problem, clustering, system, tables);
    const MappingInstance own(problem, clustering, system);
    EXPECT_EQ(shared.hops(), own.hops()) << spec;
    ASSERT_TRUE(shared.shared_tables() != nullptr);
    MapJob job;
    job.instance = &shared;
    MapJob ref_job;
    ref_job.instance = &own;
    for (const bool contention : {false, true}) {
      MapJob a = job;
      MapJob b = ref_job;
      a.options.refine.eval.link_contention = contention;
      b.options.refine.eval.link_contention = contention;
      const MapJobResult ra = run_map_job(a);
      const MapJobResult rb = run_map_job(b);
      expect_same_result(ra, rb, std::string(spec) + (contention ? " contention" : " plain"));
    }
  }
  // Second acquire per machine is a hit.
  bool hit = false;
  (void)cache.acquire(make_topology("hypercube-3"), DistanceModel::kHops, &hit);
  EXPECT_TRUE(hit);
}

TEST(MapServiceTest, SubmitDeliversFutureWithDiagnostics) {
  Portfolio portfolio = make_portfolio();
  MapService service;
  std::future<MapJobResult> future = service.submit(portfolio.jobs[0]);
  const MapJobResult result = future.get();
  EXPECT_EQ(result.name, "job-0");
  EXPECT_GE(result.wall_ms, 0.0);
  EXPECT_GE(result.lanes, 1);
  EXPECT_EQ(result.random.totals.size(), 6u);
  EXPECT_GT(result.report.total_time(), 0);
  // The paper's refinement runs on the full kernel, so the delta counters
  // ride along zeroed — present for the local-move refiners.
  EXPECT_EQ(result.report.delta.trials, 0);
  // Per-stage timings are stamped on every job: each stage is bounded by
  // the job wall and the mapper stage actually did work.
  EXPECT_GE(result.stages.topo_ms, 0.0);
  EXPECT_GT(result.stages.engine_ms, 0.0);
  EXPECT_GT(result.stages.map_ms, 0.0);
  EXPECT_GT(result.stages.random_ms, 0.0);
  EXPECT_LE(result.stages.map_ms, result.wall_ms);
  // The stages are disjoint intervals inside the job wall.
  const MapJobResult::StageTimings& st = result.stages;
  EXPECT_LE(st.build_ms + st.topo_ms + st.engine_ms + st.map_ms + st.random_ms, result.wall_ms);
}

TEST(MapServiceTest, SeedFieldOverridesRefineSeed) {
  Portfolio portfolio = make_portfolio();
  MapJob job = portfolio.jobs[0];

  job.seed = 0;  // use options.refine.seed as-is
  job.options.refine.seed = 0xfeedULL;
  const MapJobResult direct = run_map_job(job);
  job.options.refine.seed = portfolio.jobs[0].options.refine.seed;
  job.seed = 0xfeedULL;
  const MapJobResult via_override = run_map_job(job);

  EXPECT_EQ(via_override.report.total_time(), direct.report.total_time());
  EXPECT_EQ(via_override.report.assignment, direct.report.assignment);
  EXPECT_EQ(via_override.report.refinement_trials, direct.report.refinement_trials);
}

TEST(MapServiceTest, NullInstanceIsRejected) {
  MapService service;
  EXPECT_THROW((void)service.submit(MapJob{}), std::invalid_argument);
  EXPECT_THROW((void)run_map_job(MapJob{}), std::invalid_argument);
}

TEST(MapServiceTest, ProgressCallbackSeesEveryJobOnce) {
  Portfolio portfolio = make_portfolio();
  MapServiceOptions options;
  options.pool = std::make_shared<ThreadPool>(3);
  MapService service(options);
  std::vector<std::string> seen;
  std::size_t last_completed = 0;
  const std::size_t total = portfolio.jobs.size();
  const auto results = service.map_batch(portfolio.jobs, [&](const BatchProgress& p) {
    // Callbacks are serialized by the service; completed is monotonic.
    EXPECT_EQ(p.completed, last_completed + 1);
    EXPECT_EQ(p.total, total);
    ASSERT_NE(p.last, nullptr);
    seen.push_back(p.last->name);
    last_completed = p.completed;
  });
  EXPECT_EQ(results.size(), total);
  ASSERT_EQ(seen.size(), total);
  std::vector<std::string> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(MapServiceTest, ThrowingJobIsIsolatedFromItsBatch) {
  // Error-isolation contract (ISSUE 6): a job whose build() or body throws
  // is captured into its own MapJobResult::status — the other N-1 jobs of
  // the batch complete bit-identically to the sequential path, every job
  // (failures included) appears in the progress stream exactly once, and
  // map_batch itself never throws.
  Portfolio portfolio = make_portfolio();
  const auto sequential_pool = std::make_shared<ThreadPool>(0);
  std::vector<MapJobResult> reference;
  for (const MapJob& job : portfolio.jobs) {
    reference.push_back(run_map_job(job, sequential_pool, 1));
  }

  std::vector<MapJob> jobs = portfolio.jobs;
  MapJob crasher;
  crasher.name = "crasher";
  crasher.build = []() -> MappingInstance { throw std::runtime_error("kaboom"); };
  jobs.insert(jobs.begin() + 2, std::move(crasher));
  MapJob invalid;
  invalid.name = "invalid";
  invalid.build = []() -> MappingInstance { throw std::invalid_argument("bad spec"); };
  jobs.push_back(std::move(invalid));

  MapServiceOptions options;
  options.pool = std::make_shared<ThreadPool>(3);
  MapService service(options);
  std::size_t callbacks = 0;
  const auto results = service.map_batch(std::move(jobs), [&](const BatchProgress& p) {
    ++callbacks;
    ASSERT_NE(p.last, nullptr);
  });

  ASSERT_EQ(results.size(), portfolio.jobs.size() + 2);
  EXPECT_EQ(callbacks, results.size());  // failures reach progress too

  EXPECT_EQ(results[2].status, MapStatus::kInternalError);
  EXPECT_EQ(results[2].error, "kaboom");
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results.back().status, MapStatus::kInvalidInput);
  EXPECT_EQ(results.back().error, "bad spec");

  // The survivors: results are in submission order, so skip the crasher's
  // slot and compare the untouched jobs against the sequential reference.
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::size_t slot = i < 2 ? i : i + 1;
    EXPECT_EQ(results[slot].status, MapStatus::kOk);
    expect_same_result(results[slot], reference[i], "survivor " + std::to_string(i));
  }
}

TEST(MapServiceTest, WidthOneAndWideSoaWavesDeliverIdenticalBatches) {
  // The pre-SoA path is the scalar width-1 kernel; every job of a batch
  // forced onto it must be bit-identical to the same batch on wide SoA
  // waves (mixed delta/SoA pipelines included — the serialize/contention
  // jobs run delta-backed baselines next to the SoA-backed refinement).
  Portfolio portfolio = make_portfolio();
  auto with_width = [&](int width) {
    std::vector<MapJob> jobs = portfolio.jobs;
    for (MapJob& job : jobs) job.options.refine.eval_width = width;
    MapServiceOptions options;
    options.pool = std::make_shared<ThreadPool>(3);
    MapService service(options);
    return service.map_batch(std::move(jobs));
  };
  const auto scalar = with_width(1);
  for (const int width : {7, 32}) {
    const auto wide = with_width(width);
    ASSERT_EQ(wide.size(), scalar.size());
    for (std::size_t i = 0; i < wide.size(); ++i) {
      expect_same_result(wide[i], scalar[i],
                         "width=" + std::to_string(width) + ", job " + std::to_string(i));
      EXPECT_EQ(wide[i].report.eval_width, width) << i;
    }
  }
}

TEST(MapServiceTest, DeferredBuildJobsMatchBorrowedInstances) {
  // A job that materializes its instance inside the runner (MapJob::build)
  // must deliver the exact result of the same job borrowing a caller-owned
  // instance, and both must carry the instance summary.
  Portfolio portfolio = make_portfolio();
  MapService service;
  for (std::size_t i = 0; i < portfolio.jobs.size(); ++i) {
    const MapJob& borrowed = portfolio.jobs[i];
    MapJob deferred = borrowed;
    deferred.instance = nullptr;
    const MappingInstance* source = borrowed.instance;
    deferred.build = [source] { return *source; };  // deterministic rebuild
    const MapJobResult a = service.submit(borrowed).get();
    const MapJobResult b = service.submit(std::move(deferred)).get();
    expect_same_result(b, a, "deferred job " + std::to_string(i));
    EXPECT_EQ(a.system_name, source->system().name()) << i;
    EXPECT_EQ(b.system_name, source->system().name()) << i;
    EXPECT_EQ(b.np, source->num_tasks()) << i;
    EXPECT_EQ(b.ns, source->num_processors()) << i;
  }
  MapJob empty;
  EXPECT_THROW((void)service.submit(empty), std::invalid_argument);
  EXPECT_THROW((void)run_map_job(empty), std::invalid_argument);
}

TEST(MapServiceTest, SuitePeakInstanceCountIsBoundedByConcurrency) {
  // Windowed suite building: run_suite submits deferred-build jobs, so the
  // peak number of alive MappingInstances during a 12-row suite must track
  // the runner concurrency (2 here, plus one transient move-construction
  // copy per runner), never the suite size.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ExperimentConfig cfg;
    cfg.topology = seed % 2 == 0 ? "hypercube-3" : "mesh-2x3";
    cfg.workload.num_tasks = 30 + static_cast<NodeId>(seed % 3) * 5;
    cfg.seed = seed;
    cfg.random_trials = 3;
    configs.push_back(cfg);
  }
  MapServiceOptions options;
  options.pool = std::make_shared<ThreadPool>(3);
  options.max_concurrent_jobs = 2;
  MapService service(options);

  const int before = MappingInstance::live_count();
  MappingInstance::reset_peak_live_count();
  const std::vector<ExperimentRow> rows = run_suite(configs, service);
  ASSERT_EQ(rows.size(), configs.size());
  EXPECT_LE(MappingInstance::peak_live_count() - before, 2 * service.max_concurrent_jobs());
  EXPECT_EQ(MappingInstance::live_count(), before);  // nothing leaked

  // The windowed rows still carry the instance metadata and match the
  // serial path.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExperimentRow serial = run_experiment(configs[i], static_cast<int>(i) + 1);
    EXPECT_EQ(rows[i].topology, serial.topology) << i;
    EXPECT_EQ(rows[i].np, serial.np) << i;
    EXPECT_EQ(rows[i].ns, serial.ns) << i;
    EXPECT_EQ(rows[i].ours_total, serial.ours_total) << i;
    EXPECT_EQ(rows[i].random_mean, serial.random_mean) << i;
  }
}

TEST(MapServiceTest, ExperimentRequiresRandomBaseline) {
  // The legacy serial loop threw from evaluate_random_mappings when the
  // baseline was zeroed out; the batched protocol must not silently
  // tabulate random_pct = 0 instead.
  ExperimentConfig cfg;
  cfg.topology = "hypercube-3";
  cfg.workload.num_tasks = 30;
  cfg.random_trials = 0;
  EXPECT_THROW((void)run_experiment(cfg, 1), std::invalid_argument);
}

TEST(MapServiceTest, RunSuiteMatchesSerialRunExperiment) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExperimentConfig cfg;
    cfg.topology = seed % 2 == 0 ? "hypercube-3" : "mesh-2x3";
    cfg.workload.num_tasks = 40 + static_cast<NodeId>(seed) * 5;
    cfg.seed = seed;
    cfg.random_trials = 5;
    configs.push_back(cfg);
  }
  const std::vector<ExperimentRow> batched = run_suite(configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ExperimentRow serial = run_experiment(configs[i], static_cast<int>(i) + 1);
    EXPECT_EQ(batched[i].ours_total, serial.ours_total) << i;
    EXPECT_EQ(batched[i].random_mean, serial.random_mean) << i;
    EXPECT_EQ(batched[i].lower_bound, serial.lower_bound) << i;
    EXPECT_EQ(batched[i].refinement_trials, serial.refinement_trials) << i;
    EXPECT_EQ(batched[i].improvement, serial.improvement) << i;
  }
}

/// Small instance for the scheduler-order tests (cheap to build per job).
MappingInstance tiny_instance(std::uint64_t seed) {
  const StructuredWeights sw{{1, 9}, {1, 9}, seed};
  TaskGraph problem = make_diamond(4, 4, sw);
  SystemGraph system = make_topology("mesh-2x2");
  Clustering clustering = make_clustering("block", problem, system.node_count(), seed);
  return MappingInstance(std::move(problem), std::move(clustering), std::move(system));
}

/// A job that records its execution start into `order` (under `m`), used
/// to observe the urgency queue's pop order through a single runner.
MapJob recording_job(const std::string& name, std::mutex& m,
                     std::vector<std::string>& order, std::uint64_t seed) {
  MapJob job;
  job.name = name;
  job.options.refine.max_trials = 10;
  job.build = [name, &m, &order, seed] {
    {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(name);
    }
    return tiny_instance(seed);
  };
  return job;
}

/// A job that blocks the (single) runner until `release` is satisfied,
/// signalling `started` once it is actually executing — so every job
/// submitted afterwards is key-ordered in the queue, not racing the pop.
MapJob blocker_job(std::promise<void>& started, std::shared_future<void> release) {
  MapJob job;
  job.name = "blocker";
  job.options.refine.max_trials = 10;
  job.build = [&started, release] {
    started.set_value();
    release.wait();
    return tiny_instance(1);
  };
  return job;
}

TEST(MapServiceTest, PrioritySchedulerStaysBitIdenticalUnderShuffledUrgency) {
  // The tentpole determinism claim (DESIGN.md 16.2): priorities, size
  // hints, client ids and submission order steer WHEN a job runs, never
  // WHAT it computes — per-job results stay bit-identical to the
  // sequential single-threaded path.
  Portfolio portfolio = make_portfolio();
  const auto sequential_pool = std::make_shared<ThreadPool>(0);
  std::vector<MapJobResult> reference;
  for (const MapJob& job : portfolio.jobs) {
    reference.push_back(run_map_job(job, sequential_pool, 1));
  }

  MapServiceOptions options;
  options.pool = std::make_shared<ThreadPool>(3);
  options.max_inflight_per_client = 1;  // the cap must not change results
  MapService service(options);

  std::vector<MapJob> jobs = portfolio.jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].priority = static_cast<int>(i % 3) - 1;
    jobs[i].size_hint = i % 2 == 0 ? 8 : 2000;
    jobs[i].client_id = i % 2 + 1;
  }
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::reverse(order.begin(), order.end());
  std::vector<std::future<MapJobResult>> futures(jobs.size());
  for (const std::size_t i : order) futures[i] = service.submit(jobs[i]);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapJobResult result = futures[i].get();
    EXPECT_EQ(result.status, MapStatus::kOk) << i;
    expect_same_result(result, reference[i], "urgent job " + std::to_string(i));
  }
}

TEST(MapServiceTest, UrgencyQueueOrdersPriorityClassThenArrival) {
  // One runner, gated: everything below is queued before the first pop, so
  // the observed start order IS the scheduler's total order. Expected key
  // order (DESIGN.md 16.2): priority first, then the size/deadline urgency
  // class, then arrival; equal keys keep submission order exactly.
  MapServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.lanes = 1;
  options.interactive_deadline_ms = 60'000;  // won't expire under CI load
  MapService service(options);

  std::mutex m;
  std::vector<std::string> order;
  std::promise<void> started;
  std::promise<void> release;
  auto blocker_future = service.submit(blocker_job(started, release.get_future().share()));
  started.get_future().wait();

  const auto submit = [&](const std::string& name, int priority, std::uint64_t size_hint,
                          std::int64_t deadline_ms) {
    MapJob job = recording_job(name, m, order, 7);
    job.priority = priority;
    job.size_hint = size_hint;
    job.deadline_ms = deadline_ms;
    return service.submit(std::move(job));
  };
  std::vector<std::future<MapJobResult>> futures;
  futures.push_back(submit("bulk", 0, 1000, -1));             // class 2, arrives first
  futures.push_back(submit("small", 0, 8, -1));               // class 0 by size
  futures.push_back(submit("tight-deadline", 0, 100, 50'000));  // class 0 by budget
  futures.push_back(submit("urgent", -1, 1000, -1));          // priority beats class
  futures.push_back(submit("normal-a", 0, 100, -1));          // class 1, arrival kept
  futures.push_back(submit("normal-b", 0, 100, -1));

  release.set_value();
  EXPECT_EQ(blocker_future.get().status, MapStatus::kOk);
  for (std::future<MapJobResult>& f : futures) EXPECT_EQ(f.get().status, MapStatus::kOk);

  const std::vector<std::string> want = {"urgent", "small", "tight-deadline",
                                         "normal-a", "normal-b", "bulk"};
  EXPECT_EQ(order, want);

  // The per-priority wait-time lanes saw both priorities. (The completed
  // counter is bumped after the future resolves — settle first.)
  for (int i = 0; i < 500 && service.stats().completed < 7; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.priorities.size(), 2u);
  EXPECT_EQ(stats.priorities[0].priority, -1);
  EXPECT_EQ(stats.priorities[0].started, 1u);
  EXPECT_EQ(stats.priorities[1].priority, 0);
  EXPECT_EQ(stats.priorities[1].started, 6u);
  EXPECT_GE(stats.priorities[1].max_wait_ms, 0.0);
  EXPECT_EQ(stats.completed, 7u);
}

TEST(MapServiceTest, FairQueuingPreventsGreedyClientStarvation) {
  // Client 1 floods three jobs before client 2 submits one; start-time
  // fair queuing must interleave client 2's job right after client 1's
  // first, not behind the whole backlog.
  MapServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.lanes = 1;
  MapService service(options);

  std::mutex m;
  std::vector<std::string> order;
  std::promise<void> started;
  std::promise<void> release;
  auto blocker_future = service.submit(blocker_job(started, release.get_future().share()));
  started.get_future().wait();

  std::vector<std::future<MapJobResult>> futures;
  for (int i = 0; i < 3; ++i) {
    MapJob job = recording_job("greedy-" + std::to_string(i), m, order, 7);
    job.client_id = 1;
    futures.push_back(service.submit(std::move(job)));
  }
  MapJob victim = recording_job("victim", m, order, 7);
  victim.client_id = 2;
  futures.push_back(service.submit(std::move(victim)));

  release.set_value();
  EXPECT_EQ(blocker_future.get().status, MapStatus::kOk);
  for (std::future<MapJobResult>& f : futures) EXPECT_EQ(f.get().status, MapStatus::kOk);

  const std::vector<std::string> want = {"greedy-0", "victim", "greedy-1", "greedy-2"};
  EXPECT_EQ(order, want);
}

TEST(MapServiceTest, InflightCapPassesOverSaturatedClient) {
  // Two runners, client 1 capped at one in-flight job: while its first job
  // occupies runner 1, its urgent second job must be passed over so client
  // 2's job runs on runner 2 — and the passed-over job runs only after the
  // first delivers.
  MapServiceOptions options;
  options.pool = std::make_shared<ThreadPool>(2);
  options.max_concurrent_jobs = 2;
  options.max_inflight_per_client = 1;
  MapService service(options);

  std::mutex m;
  std::vector<std::string> order;
  std::promise<void> started;
  std::promise<void> release;
  MapJob hog = blocker_job(started, release.get_future().share());
  hog.client_id = 1;
  auto hog_future = service.submit(std::move(hog));
  started.get_future().wait();

  MapJob capped = recording_job("capped", m, order, 7);
  capped.client_id = 1;
  capped.priority = -5;  // most urgent in the queue — only the cap holds it
  auto capped_future = service.submit(std::move(capped));

  MapJob other = recording_job("other", m, order, 7);
  other.client_id = 2;
  auto other_future = service.submit(std::move(other));

  // Client 2's job completes while client 1 is still gated.
  EXPECT_EQ(other_future.get().status, MapStatus::kOk);
  {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(order, std::vector<std::string>{"other"});
  }
  // The gauges see the saturated client: one running (capped counts
  // running only) plus one queued.
  const ServiceStats mid = service.stats();
  bool found_client1 = false;
  for (const ServiceStats::ClientGauge& client : mid.clients) {
    if (client.client_id == 1) {
      found_client1 = true;
      EXPECT_EQ(client.inflight, 2);  // 1 running + 1 queued
      EXPECT_EQ(client.submitted, 2u);
    }
  }
  EXPECT_TRUE(found_client1);

  release.set_value();
  EXPECT_EQ(hog_future.get().status, MapStatus::kOk);
  EXPECT_EQ(capped_future.get().status, MapStatus::kOk);
  {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(order, (std::vector<std::string>{"other", "capped"}));
  }

  // forget_client drops the fairness bookkeeping once idle (the serving
  // layer calls this on disconnect). Client slots are released after the
  // futures resolve, so give the runners a beat to retire.
  for (int i = 0; i < 500; ++i) {
    service.forget_client(1);
    service.forget_client(2);
    if (service.stats().clients.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(service.stats().clients.empty());
}

TEST(MapServiceTest, FifoPolicyKeepsStrictArrivalOrder) {
  // The A/B control for the bench: under kFifo, priorities, sizes and
  // clients are all ignored — strict submission order.
  MapServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.lanes = 1;
  options.scheduler = SchedulerPolicy::kFifo;
  MapService service(options);

  std::mutex m;
  std::vector<std::string> order;
  std::promise<void> started;
  std::promise<void> release;
  auto blocker_future = service.submit(blocker_job(started, release.get_future().share()));
  started.get_future().wait();

  std::vector<std::future<MapJobResult>> futures;
  for (int i = 0; i < 4; ++i) {
    MapJob job = recording_job("fifo-" + std::to_string(i), m, order, 7);
    job.priority = -i;          // would reorder under kPriority
    job.size_hint = i % 2 == 0 ? 2000 : 4;
    job.client_id = static_cast<std::uint64_t>(i % 2) + 1;
    futures.push_back(service.submit(std::move(job)));
  }
  release.set_value();
  EXPECT_EQ(blocker_future.get().status, MapStatus::kOk);
  for (std::future<MapJobResult>& f : futures) EXPECT_EQ(f.get().status, MapStatus::kOk);
  const std::vector<std::string> want = {"fifo-0", "fifo-1", "fifo-2", "fifo-3"};
  EXPECT_EQ(order, want);
}

TEST(MapServiceTest, ReplicatedSuiteMatchesSingleRows) {
  ExperimentConfig cfg;
  cfg.topology = "mesh-2x3";
  cfg.workload.num_tasks = 40;
  cfg.seed = 5;
  cfg.random_trials = 5;
  ExperimentConfig other = cfg;
  other.seed = 6;

  const auto rows = run_replicated_suite({cfg, other}, 3);
  ASSERT_EQ(rows.size(), 2u);
  const ReplicatedRow alone = run_replicated(cfg, 1, 3);
  EXPECT_EQ(rows[0].ours_pct.mean, alone.ours_pct.mean);
  EXPECT_EQ(rows[0].random_pct.stddev, alone.random_pct.stddev);
  EXPECT_EQ(rows[0].lower_bound_hits, alone.lower_bound_hits);
  EXPECT_EQ(rows[1].id, 2);
  EXPECT_EQ(rows[1].replicas, 3);
}

}  // namespace
}  // namespace mimdmap
