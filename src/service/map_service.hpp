// MapService: the batch/portfolio mapping orchestrator.
//
// Single-instance mapping got fast (PR 1/2); this is how mapping is
// *consumed* at scale — experiment tables, replication matrices, CLI batch
// manifests, anything that answers a stream of "map this instance" job
// requests. Submitting each job to map_instance() in a serial loop wastes
// the machine; giving every job its own worker pool oversubscribes it.
// MapService does neither:
//
//  * jobs are queued and executed by up to max_concurrent_jobs runner
//    threads (spawned lazily);
//  * every job's EvalEngine is constructed against ONE shared ThreadPool,
//    so all inner parallel chunks shard the same lane budget;
//  * lane sharding: a job starting while J runners are busy gets
//    max(1, lane_budget / J) inner lanes — many small jobs run sequentially
//    side by side (job-level parallelism), while a job running with the
//    queue drained (the tail, or a lone big job) gets the full width
//    (chunk-level parallelism). RefineOptions::num_threads is overridden
//    by this policy;
//  * results come back as futures carrying the full MappingReport (with
//    per-job DeltaStats) plus wall time and the lane budget used, or
//    collected in submission order by map_batch() with a live progress
//    callback.
//
// Determinism: a job's output depends only on (instance, options, seed) —
// per-job RNG streams are isolated, engine evaluation is bit-identical for
// any lane count, and nothing in the service feeds timing back into
// mapping decisions. Hence any submission order, any concurrency level and
// any lane sharding yield bit-identical per-job results
// (tests/map_service_test.cpp enforces this against the sequential path).
//
// Fault tolerance (DESIGN.md section 15): every submitted job reaches
// exactly one terminal MapStatus. Deadlines and cancellation are
// cooperative (core/cancellation.hpp) — a cancelled or expired job stops
// within one evaluation wave and delivers its best incumbent as a degraded
// but valid result; a throwing build()/mapper is captured into
// MapJobResult::status without poisoning the runner, the progress stream
// or any other job; admission is optionally bounded (block or reject);
// cancel(id)/cancel_all() drain queued-not-started jobs immediately and
// signal running ones.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/random_mapping.hpp"
#include "core/cancellation.hpp"
#include "core/mapper.hpp"
#include "service/thread_pool.hpp"

namespace mimdmap {

/// One mapping job request. The instance is borrowed and must stay alive
/// until the job's result has been delivered — or, for batches too big to
/// materialize up front, `build` defers construction into the job itself.
struct MapJob {
  const MappingInstance* instance = nullptr;
  /// Deferred materialization (used when `instance` is null): the runner
  /// invokes this at execution time and destroys the built instance before
  /// the result is delivered, so a batch's peak instance count is bounded
  /// by the number of concurrently-running jobs instead of the batch size
  /// (ROADMAP "windowed suite building"). Must be a pure function of its
  /// captures — it may run on any runner thread, and determinism of the
  /// job result rests on it.
  std::function<MappingInstance()> build;
  MapperOptions options;
  /// Nonzero overrides options.refine.seed — convenience for submitters
  /// that fan one configuration across many seeds.
  std::uint64_t seed = 0;
  /// Label carried through to the result (progress lines, tables).
  std::string name;
  /// When > 0, the job also replays this many random mappings on the same
  /// engine (the paper's evaluation protocol pairs every mapped instance
  /// with a random baseline).
  std::int64_t random_trials = 0;
  std::uint64_t random_seed = 99;
  /// Per-job wall-clock budget, armed when the job is admitted (so queue
  /// wait counts against it). > 0: that many milliseconds; 0: the
  /// service's default_deadline_ms; < 0: explicitly no deadline even when
  /// the service has a default. An expired job delivers its best incumbent
  /// with status kDeadlineExceeded within one evaluation wave.
  std::int64_t deadline_ms = 0;
  /// Optional submitter-owned cancellation token; the service chains its
  /// per-job source under it, so tripping it cancels this job wherever it
  /// is (queued jobs are drained, running ones stop at the next poll).
  CancelToken cancel;
  /// Scheduling priority under SchedulerPolicy::kPriority: lower runs
  /// first, negatives allowed (more urgent than default work). Ignored
  /// under kFifo.
  int priority = 0;
  /// Estimated job size (task count) for the size-aware urgency classes
  /// and the queued-memory shed bound; 0 = unknown (treated as normal).
  std::uint64_t size_hint = 0;
  /// Fairness domain: jobs sharing a nonzero client_id round-robin against
  /// other clients (per-client fair-queuing rank) and count against
  /// MapServiceOptions::max_inflight_per_client. 0 = the anonymous shared
  /// stream (legacy batch path: plain FIFO among themselves, no cap).
  std::uint64_t client_id = 0;
};

struct MapJobResult {
  std::string name;
  MappingReport report;
  /// Filled iff the job requested random_trials > 0.
  RandomMappingStats random;
  double wall_ms = 0.0;
  /// Inner lane budget the sharding policy granted this job.
  int lanes = 1;
  /// True iff the job's topology tables were served from an earlier job's
  /// build in the service's TopologyCache instead of being rebuilt (false
  /// when no cache was in play, or when this job was the first for its
  /// topology). For jobs whose instance was built elsewhere, the hit
  /// amortizes the routing tables the engine adopts; the instance's own
  /// distance matrix was already built by then — full sharing (matrix
  /// included) needs the instance constructed against cache tables, as
  /// the CLI batch manifest does. Service-wide totals live on
  /// MapService::topology_cache().
  bool topology_cache_hit = false;
  /// Instance summary, filled by run_map_job — deferred-build jobs drop
  /// the instance before delivering, so consumers (experiment tables) read
  /// these instead of the instance.
  std::string system_name;
  NodeId np = 0;
  NodeId ns = 0;
  /// The job's one terminal status. kOk: full result. kCancelled /
  /// kDeadlineExceeded: report holds the best incumbent reached before the
  /// signal (or a default report if the job never started). kInvalidInput /
  /// kInternalError: the job threw; `error` says why and the report is
  /// empty. Runner exceptions land here, never on the future.
  MapStatus status = MapStatus::kOk;
  /// Diagnostic message for the error statuses (exception what()).
  std::string error;
  /// Milliseconds the job waited between admission and execution start
  /// (0 for direct run_map_job callers — there is no queue).
  double queue_ms = 0.0;
  /// Per-stage wall breakdown of run_map_job, always filled (a handful of
  /// clock reads per job). Stages not taken (no deferred build, no random
  /// trials) stay 0; wall_ms - sum(stages) is orchestration overhead.
  struct StageTimings {
    double build_ms = 0.0;   ///< deferred-instance materialization
    double topo_ms = 0.0;    ///< topology-table acquire (cache hit or build)
    double engine_ms = 0.0;  ///< EvalEngine construction (+ topology adoption)
    double map_ms = 0.0;     ///< map_instance: schedule + assign + refine
    double random_ms = 0.0;  ///< random-baseline replay
  };
  StageTimings stages;

  [[nodiscard]] bool ok() const noexcept { return status == MapStatus::kOk; }
};

/// What submit() does when the admission queue is full (max_queue > 0).
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure). map_batch
  /// degrades gracefully: once the cap forces a wait, the batch is no
  /// longer enqueued atomically, so the sharding policy may grant the
  /// first jobs wider lanes — results stay bit-identical regardless.
  kBlock,
  /// Throw AdmissionRejectedError from submit()/map_batch() (load
  /// shedding).
  kReject,
};

/// Thrown by submit()/map_batch() under AdmissionPolicy::kReject when the
/// queue is at max_queue (or over the queued-size bound). Retryable: the
/// serving layer answers `overloaded` with a backoff hint instead of
/// failing the job.
class AdmissionRejectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How queued-not-started jobs are ordered (DESIGN.md section 16.2).
enum class SchedulerPolicy {
  /// Urgency-ordered: (priority, urgency class, per-client fair rank,
  /// deadline, arrival). The urgency class is size- and deadline-aware —
  /// small jobs and jobs with tight wall budgets classify as interactive
  /// and pre-empt queued bulk work; the fair rank interleaves clients so a
  /// greedy client cannot starve the rest. Jobs with equal keys keep
  /// arrival order, so equal-priority single-client traffic degrades to
  /// FIFO exactly.
  kPriority,
  /// Strict arrival order (the pre-PR7 queue, kept for A/B benching).
  kFifo,
};

/// Scheduler observability snapshot (MapService::stats()). Counters are
/// cumulative over the service lifetime, gauges are instantaneous.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // terminal results delivered by runners
  std::uint64_t shed = 0;       // admissions rejected (queue/size bounds)
  std::uint64_t cancelled_queued = 0;  // drained before starting
  std::size_t queue_depth = 0;
  std::uint64_t queued_size_hint = 0;  // sum of size hints waiting
  int active = 0;
  struct PriorityLane {
    int priority = 0;
    std::uint64_t started = 0;    // jobs popped at this priority
    double total_wait_ms = 0.0;   // admission -> execution start
    double max_wait_ms = 0.0;
  };
  std::vector<PriorityLane> priorities;  // ascending priority
  struct ClientGauge {
    std::uint64_t client_id = 0;
    int inflight = 0;             // queued + running right now
    std::uint64_t submitted = 0;
  };
  std::vector<ClientGauge> clients;  // ascending client_id, excludes 0
};

struct MapServiceOptions {
  /// Total lane budget sharded across concurrent jobs; 0 means the pool's
  /// lane limit.
  int lanes = 0;
  /// Upper bound on concurrently-executing jobs; 0 means the lane budget.
  int max_concurrent_jobs = 0;
  /// Pool shared by every job's engine; null acquires ThreadPool::shared().
  std::shared_ptr<ThreadPool> pool;
  /// Bound on queued-not-started jobs; 0 means unbounded (no admission
  /// control, `admission` is irrelevant).
  std::size_t max_queue = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Deadline applied to jobs that leave MapJob::deadline_ms == 0;
  /// 0 means none.
  std::int64_t default_deadline_ms = 0;
  SchedulerPolicy scheduler = SchedulerPolicy::kPriority;
  /// Urgency-class thresholds on MapJob::size_hint (task-count estimate):
  /// <= small_job_tasks classifies interactive, >= bulk_job_tasks bulk,
  /// everything else (and unknown 0) normal.
  std::uint64_t small_job_tasks = 64;
  std::uint64_t bulk_job_tasks = 256;
  /// Jobs whose requested wall budget (deadline_ms) is positive and at
  /// most this classify interactive regardless of size — a caller that
  /// can only wait a moment is interactive by definition.
  std::int64_t interactive_deadline_ms = 1000;
  /// Per-client cap on in-flight (queued + running) jobs; a client at the
  /// cap has further queued jobs passed over until one delivers. 0 = no
  /// cap; client_id 0 is never capped.
  int max_inflight_per_client = 0;
  /// Shed bound on the sum of queued size hints (a proxy for the memory
  /// the queue would pin once built); 0 = unbounded. Enforced like
  /// max_queue under the same AdmissionPolicy.
  std::uint64_t max_queued_size_hint = 0;
};

/// Snapshot handed to the map_batch progress callback after each job.
struct BatchProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
  /// The job that just finished (valid for the duration of the callback).
  const MapJobResult* last = nullptr;
};

/// Executes one job synchronously on the calling thread — the shared
/// kernel of MapService runners and of sequential callers
/// (run_experiment, benches) that must stay bit-identical to the batched
/// path. lanes > 0 overrides the job's RefineOptions::num_threads (the
/// service's sharding policy); lanes == 0 leaves the job's own setting in
/// charge. Null pool acquires ThreadPool::shared(). `topo_cache`, when
/// given, shares topology tables (distance matrix + routing) across jobs
/// with structurally identical machines — results are bit-identical with
/// or without it.
///
/// Honors MapJob::cancel and (when > 0) MapJob::deadline_ms — the deadline
/// is armed here, at execution start; the service arms queue-inclusive
/// deadlines itself and hands the job over with deadline_ms consumed.
/// Cancellation/deadline outcomes come back as MapJobResult::status;
/// invalid jobs and runtime failures THROW (the MapService runner is the
/// layer that captures those into status — sequential callers keep plain
/// exception semantics).
[[nodiscard]] MapJobResult run_map_job(const MapJob& job,
                                       const std::shared_ptr<ThreadPool>& pool = nullptr,
                                       int lanes = 0, TopologyCache* topo_cache = nullptr);

class MapService {
 public:
  explicit MapService(MapServiceOptions options = {});
  /// Drains: blocks until every queued and running job has delivered.
  ~MapService();

  MapService(const MapService&) = delete;
  MapService& operator=(const MapService&) = delete;

  /// Identifies a submitted job for cancel(); never reused within a
  /// service.
  using JobId = std::uint64_t;

  /// Enqueues one job; the future always carries a result — job failures
  /// are captured into MapJobResult::status/error, never set as the
  /// future's exception. Throws std::invalid_argument synchronously on a
  /// job with neither instance nor builder (a submitter bug, not a job
  /// outcome), and AdmissionRejectedError when the queue is full under
  /// AdmissionPolicy::kReject; blocks for space under kBlock. `id`, when
  /// given, receives a handle for cancel(). `on_done`, when given, fires
  /// exactly once with the terminal result, before the future resolves,
  /// from the delivering thread (the serving layer streams result frames
  /// from it without a waiter thread per job) — it must not call back
  /// into the service.
  [[nodiscard]] std::future<MapJobResult> submit(
      MapJob job, JobId* id = nullptr,
      std::function<void(const MapJobResult&)> on_done = {});

  /// Submits the whole batch and blocks until done, returning results in
  /// submission order (regardless of completion order). `progress`, when
  /// given, is invoked once per completed job from the completing runner
  /// thread — callbacks are serialized by the service, but must not call
  /// back into it (cancel()/cancel_all() from OTHER threads mid-batch is
  /// fine and the intended SIGINT path: affected jobs come back with
  /// cancelled statuses). Per-job failures come back as statuses in the
  /// results, never as exceptions — every job reaches a terminal status
  /// before this returns (submitted jobs borrow caller-owned instances, so
  /// no runner may outlive this call).
  [[nodiscard]] std::vector<MapJobResult> map_batch(
      std::vector<MapJob> jobs,
      const std::function<void(const BatchProgress&)>& progress = nullptr);

  /// Cancels one job: a queued-not-started job is drained immediately (its
  /// future resolves with status kCancelled before this returns, on_done
  /// included); a running one is signalled and stops at its next poll.
  /// Returns false when the id is unknown or the job already delivered.
  bool cancel(JobId id);

  /// Cancels everything: drains the whole queue (delivering kCancelled
  /// results) and signals every running job. Returns the number of jobs
  /// drained from the queue.
  std::size_t cancel_all();

  /// Total lane budget the sharding policy distributes.
  [[nodiscard]] int lane_budget() const noexcept { return lane_budget_; }
  [[nodiscard]] int max_concurrent_jobs() const noexcept { return max_runners_; }
  [[nodiscard]] const std::shared_ptr<ThreadPool>& pool() const noexcept { return pool_; }
  [[nodiscard]] SchedulerPolicy scheduler() const noexcept { return scheduler_; }

  /// Scheduler observability snapshot: queue depth, shed count,
  /// per-priority wait times, per-client in-flight gauges. Safe to call
  /// from any thread at any time.
  [[nodiscard]] ServiceStats stats() const;

  /// Drops the fairness/cap bookkeeping of a client once its in-flight
  /// count reaches zero (immediately, or deferred to its last delivery).
  /// The serving layer calls this on disconnect so a long-lived daemon's
  /// client table tracks live connections, not history.
  void forget_client(std::uint64_t client_id);

  /// Service-level topology-table cache: jobs sharing a system graph
  /// (manifests and suites reuse a handful of machines) share one
  /// distance-matrix + routing build (ROADMAP "topology-table cache").
  /// Per-job hits are reported in MapJobResult::topology_cache_hit.
  [[nodiscard]] TopologyCache& topology_cache() noexcept { return topo_cache_; }
  [[nodiscard]] const TopologyCache& topology_cache() const noexcept { return topo_cache_; }

 private:
  /// Total order of the urgency queue. Lexicographic: priority, urgency
  /// class (0 interactive / 1 normal / 2 bulk), per-client fair rank,
  /// armed deadline, arrival sequence (unique — ties impossible). Under
  /// kFifo everything but seq is pinned to one value.
  struct SchedKey {
    int priority = 0;
    int klass = 1;
    std::uint64_t fair_rank = 0;
    std::int64_t deadline_ns = 0;
    std::uint64_t seq = 0;

    bool operator<(const SchedKey& o) const noexcept {
      if (priority != o.priority) return priority < o.priority;
      if (klass != o.klass) return klass < o.klass;
      if (fair_rank != o.fair_rank) return fair_rank < o.fair_rank;
      if (deadline_ns != o.deadline_ns) return deadline_ns < o.deadline_ns;
      return seq < o.seq;
    }
  };

  struct QueuedJob {
    MapJob job;
    JobId id = 0;
    std::promise<MapJobResult> promise;
    /// Invoked after the job completes, before the future resolves (so a
    /// batch's last callback always precedes map_batch returning).
    std::function<void(const MapJobResult&)> on_done;
    std::chrono::steady_clock::time_point admitted;
  };

  /// Fairness/cap bookkeeping per client_id (0 = the shared anonymous
  /// stream: ranked like any client but never capped, never forgotten).
  struct ClientState {
    int queued = 0;
    int running = 0;  // the in-flight cap counts these only
    std::uint64_t submitted = 0;
    std::uint64_t next_rank = 0;
    bool forgotten = false;  // erase when queued + running reaches 0
  };

  void runner_main();
  /// Admits one job (waiting or rejecting per the admission policy),
  /// chains its cancel source, arms its deadline, keys it into the
  /// urgency queue and tops up the runner count. `lock` must hold mutex_
  /// and may be released while blocked on queue space.
  std::future<MapJobResult> enqueue_locked(std::unique_lock<std::mutex>& lock, MapJob job,
                                           std::function<void(const MapJobResult&)> on_done,
                                           const char* caller, JobId* id_out);
  /// Picks the most urgent queued job whose client is under the in-flight
  /// cap; end() when nothing is eligible (queue may still be non-empty).
  std::map<SchedKey, QueuedJob>::iterator pop_candidate_locked();
  /// Removes one queued entry, maintaining the id index and size sum.
  QueuedJob extract_locked(std::map<SchedKey, QueuedJob>::iterator it);
  /// Releases a client slot after delivery; erases forgotten clients.
  void release_client_locked(std::uint64_t client_id);
  /// Resolves drained jobs with their token status (on_done first), then
  /// pings the space cv. Call WITHOUT mutex_ held.
  void deliver_cancelled(std::vector<QueuedJob>& drained);

  std::shared_ptr<ThreadPool> pool_;
  TopologyCache topo_cache_;
  int lane_budget_ = 1;
  int max_runners_ = 1;
  std::size_t max_queue_ = 0;
  AdmissionPolicy admission_ = AdmissionPolicy::kBlock;
  std::int64_t default_deadline_ms_ = 0;
  SchedulerPolicy scheduler_ = SchedulerPolicy::kPriority;
  std::uint64_t small_job_tasks_ = 64;
  std::uint64_t bulk_job_tasks_ = 256;
  std::int64_t interactive_deadline_ms_ = 1000;
  int max_inflight_per_client_ = 0;
  std::uint64_t max_queued_size_hint_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  std::map<SchedKey, QueuedJob> queue_;
  /// id -> queue key, for cancel() without a scan.
  std::unordered_map<JobId, SchedKey> queue_index_;
  std::vector<std::thread> runners_;
  /// Cancel channels of every admitted-but-not-delivered job.
  std::unordered_map<JobId, CancelSource> sources_;
  std::map<std::uint64_t, ClientState> clients_;
  JobId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  /// Fair rank of the most recently popped job — the floor newly-arriving
  /// clients start at, so an idle client re-enters level with the head of
  /// the backlog instead of with infinite credit (start-time fair
  /// queuing).
  std::uint64_t rank_floor_ = 0;
  std::uint64_t queued_size_sum_ = 0;
  int active_ = 0;  // runners currently executing a job
  bool shutdown_ = false;
  // Cumulative scheduler counters (stats()).
  std::uint64_t stat_submitted_ = 0;
  std::uint64_t stat_completed_ = 0;
  std::uint64_t stat_shed_ = 0;
  std::uint64_t stat_cancelled_queued_ = 0;
  struct PriorityAgg {
    std::uint64_t started = 0;
    double total_wait_ms = 0.0;
    double max_wait_ms = 0.0;
  };
  std::map<int, PriorityAgg> priority_stats_;
};

}  // namespace mimdmap
