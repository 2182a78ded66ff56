// serve_durable: the real `mimdmap_cli serve` daemon as its own process,
// with a journal (fsync batch) and a result cache, driven over one Unix
// socket connection by an open-loop generator at a fixed rate. Requests
// are timed from the moment they were due, so a stall in the daemon also
// charges the requests queued behind it.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "gen.hpp"
#include "service/journal.hpp"
#include "service/result_cache.hpp"
#include "service/wire.hpp"
#include "spans.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace mimdmap;

/// Offered load and mix. The rate is fixed so jobs_per_s reads the offered
/// rate unless a backlog grows: about half of the lowest capacity measured
/// on a shared 4-core host (a backlog grew at 700 req/s there, while its
/// best moments sustained 2300). A third of the stream is bulk, so even
/// the bulk p99 readout has ten samples beyond it in a 10-second run.
constexpr double kRateHz = 400.0;
constexpr double kHitShare = 0.34;
constexpr double kBulkShare = 0.33;
constexpr int kRepeatSet = 1024;
constexpr int kSetups = 3;
constexpr std::uint64_t kCacheBytes = 64ull << 20;
/// A run whose generator sends later than this at p99 did not offer the
/// load it claims: it is reported invalid. Requests are timed from their
/// due time, so smaller lateness is charged to the latencies; on a shared
/// 4-core host the p99 lateness ranged 0.14-18 ms, all from CPU
/// contention, while the medians it could move stayed put.
constexpr double kLateBoundMs = 50.0;

/// The generator keeps one core to itself so it sends on time; the
/// daemon gets the rest.
int daemon_lanes() {
  return static_cast<int>(std::max(2u, std::thread::hardware_concurrency()) - 1);
}

/// The daemon process: spawned on construction, drained and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& socket, const std::string& journal) {
    std::vector<std::string> args = {cli,           "serve",          "--socket", socket,
                                     "--journal",   journal,          "--journal-fsync",
                                     "batch",       "--cache-bytes",  std::to_string(kCacheBytes),
                                     "--quiet",     "--lanes",        std::to_string(daemon_lanes())};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + cli + ": " + std::strerror(rc));
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps.
  /// Returns true when the daemon exited 0 on its own.
  bool stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

/// What the client saw for one request id.
struct Record {
  ServeClass klass = ServeClass::kSmall;
  const std::string* body = nullptr;
  Clock::time_point done{};
  bool accepted = false;
  bool rejected = false;  // overloaded or error frame
  int terminals = 0;
  bool ok = false;
  bool cached = false;
  std::int64_t total = 0;
  std::int64_t lower_bound = 0;
};

/// One connection: a reader thread parses every frame and timestamps it.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) break;
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > deadline) throw std::runtime_error("daemon never listened");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    reader_ = std::thread([this] { read_loop(); });
  }
  ~Connection() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers a request id; call before sending it, so no frame about it
  /// can arrive unregistered.
  void expect(const std::string& id, Record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[id] = record;
  }

  bool send(const std::string& line) {
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits until every registered id has an answer, or the deadline.
  bool wait_answered(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [this] { return answered_ == records_.size() || closed_; }) &&
           answered_ == records_.size();
  }

  /// Sends `op` and waits for the next frame of event `event`.
  std::map<std::string, std::string> request(const std::string& op, const std::string& event) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t seen = others_.size();
    lock.unlock();
    if (!send(op + "\n")) throw std::runtime_error("daemon connection lost");
    lock.lock();
    const auto found = [&] {
      for (std::size_t i = seen; i < others_.size(); ++i) {
        if (others_[i].at("event") == event) return true;
      }
      return closed_;
    };
    if (!cv_.wait_for(lock, std::chrono::seconds(20), found)) {
      throw std::runtime_error("no " + event + " frame");
    }
    for (std::size_t i = seen; i < others_.size(); ++i) {
      if (others_[i].at("event") == event) return others_[i];
    }
    throw std::runtime_error("daemon closed before " + event);
  }

  std::unordered_map<std::string, Record> records() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }
  [[nodiscard]] std::uint64_t stray_frames() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stray_;
  }

 private:
  void read_loop() {
    serve::FrameReader reader(1u << 26);
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      const auto now = Clock::now();
      for (const serve::FrameReader::Line& line : reader.feed(buf, static_cast<std::size_t>(n))) {
        try {
          handle(line, now);
        } catch (const std::exception&) {  // a malformed frame must not end the reader
          const std::lock_guard<std::mutex> lock(mutex_);
          ++stray_;
        }
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  void handle(const serve::FrameReader::Line& line, Clock::time_point now) {
    if (!line.ok()) throw std::invalid_argument("bad frame");
    std::map<std::string, std::string> kv = serve::parse_response(line.text);
    const std::string& event = kv["event"];
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto id_it = kv.find("id");
    const bool job_frame = event == "accepted" || event == "result" || event == "overloaded" ||
                           (event == "error" && id_it != kv.end());
    if (!job_frame) {
      others_.push_back(std::move(kv));
      cv_.notify_all();
      return;
    }
    const auto rec_it = id_it == kv.end() ? records_.end() : records_.find(id_it->second);
    if (rec_it == records_.end()) {
      ++stray_;
      return;
    }
    Record& rec = rec_it->second;
    const bool was_answered = rec.terminals > 0 || rec.rejected;
    if (event == "accepted") {
      rec.accepted = true;
    } else if (event == "result") {
      ++rec.terminals;
      if (rec.terminals == 1) {
        rec.done = now;
        rec.ok = kv["status"] == "ok";
        rec.cached = kv.count("cached") && kv["cached"] == "1";
        rec.total = rec.ok ? std::stoll(kv["total"]) : 0;
        rec.lower_bound = rec.ok ? std::stoll(kv["lower-bound"]) : 0;
      }
    } else {
      rec.rejected = true;
      rec.done = now;
    }
    if (!was_answered && (rec.terminals > 0 || rec.rejected)) {
      ++answered_;
      cv_.notify_all();
    }
  }

  int fd_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Record> records_;
  std::vector<std::map<std::string, std::string>> others_;
  std::size_t answered_ = 0;
  std::uint64_t stray_ = 0;
  bool closed_ = false;
  std::thread reader_;  // last: joined before the state above goes away
};

/// An empty directory at `path` (a journal must not replay an old run).
std::string fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

double stat_number(const std::map<std::string, std::string>& stats, const std::string& key) {
  const auto it = stats.find(key);
  if (it == stats.end()) return 0;
  return std::stod(serve::unescape(it->second));
}

/// Value of one series in the daemon's op=metrics exposition.
double exposition_value(const std::string& exposition, const std::string& series) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() && line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return 0;
}

/// Average of an op=stats "avg/max" wait field.
double wait_avg(const std::map<std::string, std::string>& stats, const std::string& key) {
  const auto it = stats.find(key);
  if (it == stats.end()) return 0;
  const std::string value = serve::unescape(it->second);
  return std::stod(value.substr(0, value.find('/')));
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  RunResult out;
  Tally& tally = out.tally;
  ServeMix mix;
  mix.requests = static_cast<int>(kRateHz * options.seconds);
  mix.repeat_set = options.smoke ? 32 : kRepeatSet;
  mix.hit_share = kHitShare;
  mix.bulk_share = kBulkShare;
  const ServeStream stream = make_serve_stream(mix, options.seed);
  out.context.emplace_back("input_hash", std::to_string(stream.hash));
  out.context.emplace_back("rate_hz", std::to_string(kRateHz));
  out.context.emplace_back("requests", std::to_string(stream.measured.size()));

  const std::string socket = options.work_dir + "/serve.sock";
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> conn;
  std::map<std::string, std::int64_t> first_total;  // body -> first ok total
  std::string journal_dir;
  for (int k = 0; k < kSetups; ++k) {
    conn.reset();
    if (daemon) tally.check(daemon->stop());
    ::unlink(socket.c_str());
    journal_dir = fresh_dir(options.work_dir + "/journal-" + std::to_string(k));
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(options.cli, socket, journal_dir);
    conn = std::make_unique<Connection>(socket);
    for (const ServeRequest& r : stream.warmup) {
      conn->expect(r.id, Record{r.klass, &r.body});
    }
    std::string burst;
    for (const ServeRequest& r : stream.warmup) burst += r.line();
    if (!conn->send(burst)) throw std::runtime_error("warm-up send failed");
    if (!conn->wait_answered(Clock::now() + std::chrono::seconds(60))) {
      throw std::runtime_error("warm-up not answered");
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (const auto& [id, rec] : conn->records()) {
      const bool ok = rec.ok && rec.terminals == 1 && rec.total >= rec.lower_bound;
      tally.check(ok);
      if (ok && k == 0) first_total.emplace(*rec.body, rec.total);
      if (ok && k > 0) tally.check(first_total[*rec.body] == rec.total);
    }
  }

  out.context.emplace_back("setup_samples_s", join(setup_s));

  // Measured phase: one open-loop sender at a fixed rate.
  for (const ServeRequest& r : stream.measured) {
    conn->expect(r.id, Record{r.klass, &r.body});
  }
  SpanRecorder send_spans;
  std::vector<double> late_ms;
  late_ms.reserve(stream.measured.size());
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRateHz));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(stream.measured.size());
  for (std::size_t i = 0; i < stream.measured.size(); ++i) {
    due[i] = start + interval * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(due[i]);
    const ServeRequest& r = stream.measured[i];
    const auto sent = Clock::now();
    if (options.trace && i % 2 == 0) send_spans.add("gen.send", due[i], sent, -1, static_cast<std::int64_t>(i));
    late_ms.push_back(ms_between(due[i], sent));
    if (!conn->send(r.line())) break;
  }
  const bool answered = conn->wait_answered(Clock::now() + std::chrono::seconds(30));
  tally.check(answered);

  const std::map<std::string, std::string> stats = conn->request("op=stats", "stats");
  const std::map<std::string, std::string> metrics_frame = conn->request("op=metrics", "metrics");
  const std::string exposition = serve::unescape(metrics_frame.count("data") ? metrics_frame.at("data") : "");
  const double daemon_rss = peak_rss_mb(std::to_string(daemon->pid()));
  const std::uint64_t stray = conn->stray_frames();
  const auto records = conn->records();
  conn.reset();
  tally.check(daemon->stop());
  tally.check(stray == 0);

  // Accounting and checks over the measured stream.
  std::vector<double> small_ms, hit_ms, bulk_ms, traced_small, untraced_small;
  double quality_sum = 0;
  std::size_t quality_n = 0, ok_n = 0;
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < stream.measured.size(); ++i) {
    const ServeRequest& r = stream.measured[i];
    const Record& rec = records.at(r.id);
    const bool ended_ok = rec.accepted && rec.ok && rec.terminals == 1;
    bool checks_ok = !rec.accepted || rec.terminals == 1;
    if (rec.ok) checks_ok = checks_ok && rec.total >= rec.lower_bound;
    if (rec.cached) {
      const auto it = first_total.find(r.body);
      checks_ok = checks_ok && it != first_total.end() && it->second == rec.total;
    }
    tally.record(ended_ok, checks_ok);
    if (!ended_ok) continue;
    ++ok_n;
    last_done = std::max(last_done, rec.done);
    quality_sum += 100.0 * static_cast<double>(rec.total) / static_cast<double>(rec.lower_bound);
    ++quality_n;
    const double latency = ms_between(due[i], rec.done);
    if (rec.cached) {
      hit_ms.push_back(latency);
    } else if (r.klass == ServeClass::kBulk) {
      bulk_ms.push_back(latency);
    } else if (r.klass == ServeClass::kSmall) {
      small_ms.push_back(latency);
      (i % 2 == 0 ? traced_small : untraced_small).push_back(latency);
    }
  }
  const double late_p99 = percentile(late_ms, 0.99).value_or(
      late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end()));
  const bool valid = late_p99 <= kLateBoundMs;
  out.context.emplace_back("gen_late_p99_ms", std::to_string(late_p99));
  out.context.emplace_back("valid", valid ? "true" : "false");
  out.context.emplace_back("samples_small_hit_bulk", std::to_string(small_ms.size()) + "/" +
                                                         std::to_string(hit_ms.size()) + "/" +
                                                         std::to_string(bulk_ms.size()));
  if (!valid) {
    throw std::runtime_error("invalid run: generator p99 lateness " + std::to_string(late_p99) +
                             " ms exceeds " + std::to_string(kLateBoundMs) + " ms");
  }
  if (!options.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("jobs_per_s", static_cast<double>(ok_n) / (ms_between(start, last_done) / 1000.0), "1/s");
    out.add("quality_pct_lb", quality_n ? quality_sum / static_cast<double>(quality_n) : 0, "%");
    out.add("peak_rss_mb", daemon_rss, "MiB");
    out.add("ok_pct", tally.ok_pct(), "%");
    const double p50 = required_percentile(small_ms, 0.5, "p50_ms");
    const double hit_p50 = required_percentile(hit_ms, 0.5, "hit_p50_ms");
    out.add("p50_ms", p50, "ms");
    out.add("hit_p50_ms", hit_p50, "ms");
    out.add("hit_speedup", p50 / hit_p50, "x");
    out.add("bulk_p50_ms", required_percentile(bulk_ms, 0.5, "bulk_p50_ms"), "ms");
    add_tail_readouts(out, small_ms, bulk_ms);
    return out;
  }

  // Traced run: per-layer readouts. Wire parse and fingerprint are timed
  // in-process on the workload's own lines; cache lookups and journal
  // appends are replayed in-process on the same request sequence, under
  // the daemon's cache budget and fsync policy.
  std::vector<const ServeRequest*> sequence;
  for (const ServeRequest& r : stream.warmup) sequence.push_back(&r);
  for (const ServeRequest& r : stream.measured) sequence.push_back(&r);
  double parse_ns = 0, fingerprint_ns = 0, lookup_ns = 0, append_ns = 0;
  std::vector<serve::WireRequest> parsed;
  parsed.reserve(sequence.size());
  for (const ServeRequest* r : sequence) {
    const std::string line = "op=submit " + r->line().substr(0, r->line().size() - 1);
    const auto a = Clock::now();
    parsed.push_back(serve::parse_request(line));
    parse_ns += ms_between(a, Clock::now()) * 1e6;
  }
  std::vector<std::string> fingerprints;
  for (const serve::WireRequest& w : parsed) {
    const auto a = Clock::now();
    fingerprints.push_back(serve::request_fingerprint(w.kv));
    fingerprint_ns += ms_between(a, Clock::now()) * 1e6;
  }
  serve::ResultCache cache(kCacheBytes);
  for (const std::string& fp : fingerprints) {
    const auto a = Clock::now();
    const bool hit = cache.lookup(fp).has_value();
    lookup_ns += ms_between(a, Clock::now()) * 1e6;
    if (!hit) cache.insert(fp, serve::CachedResult{"ok", 1, 1, 0, 0, 1});
  }
  const std::string replay_dir = fresh_dir(options.work_dir + "/journal-replay");
  std::uint64_t appends = 0;
  {
    serve::Journal journal(replay_dir, serve::FsyncPolicy::kBatch, false);
    std::uint64_t jid = 0;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      serve::JournalEntry accepted;
      accepted.jid = ++jid;
      accepted.id = sequence[i]->id;
      accepted.fingerprint = fingerprints[i];
      accepted.request = sequence[i]->line();
      serve::JournalEntry result = accepted;
      result.kind = serve::JournalEntry::Kind::kResult;
      result.status = "ok";
      for (const serve::JournalEntry* e : {&accepted, &result}) {
        const std::string payload = serve::encode_entry(*e);
        const auto a = Clock::now();
        journal.append(payload);
        append_ns += ms_between(a, Clock::now()) * 1e6;
        ++appends;
      }
    }
    const auto a = Clock::now();
    journal.flush();
    append_ns += ms_between(a, Clock::now()) * 1e6;
  }

  const double n = static_cast<double>(std::max<std::size_t>(1, sequence.size()));
  const double cache_hits = stat_number(stats, "cache-hits");
  const double cache_lookups = cache_hits + stat_number(stats, "cache-misses");
  const double accepted = stat_number(stats, "accepted");
  out.add("service.wire.parse_us", parse_ns / n / 1000.0, "us");
  out.add("service.wire.fingerprint_us", fingerprint_ns / n / 1000.0, "us");
  out.add("service.result_cache.hit_pct", cache_lookups > 0 ? 100.0 * cache_hits / cache_lookups : 0,
          "%");
  out.add("service.result_cache.lookup_us", lookup_ns / n / 1000.0, "us");
  out.add("service.result_cache.evictions", stat_number(stats, "cache-evictions"), "count");
  out.add("service.journal.appends", stat_number(stats, "journal-appends"), "count");
  out.add("service.journal.fsyncs", exposition_value(exposition, "mimdmap_journal_fsyncs_total"),
          "count");
  out.add("service.journal.append_us",
          append_ns / static_cast<double>(std::max<std::uint64_t>(1, appends)) / 1000.0, "us");
  out.add("service.journal.bytes_per_job",
          accepted > 0 ? stat_number(stats, "journal-bytes") / accepted : 0, "B");
  out.add("service.server.queue_wait_ms.prio0", wait_avg(stats, "prio0-wait-ms"), "ms");
  out.add("service.server.queue_wait_ms.prio1", wait_avg(stats, "prio1-wait-ms"), "ms");
  out.add("service.server.request_us",
          exposition_value(exposition, "mimdmap_wire_request_us{op=\"submit\",quantile=\"0.5\"}"),
          "us");
  out.add("service.server.shed", stat_number(stats, "shed"), "count");
  out.add("gen.late_p99_ms", late_p99, "ms");
  const double traced_p50 = traced_small.empty() ? 0 : median(traced_small);
  const double untraced_p50 = untraced_small.empty() ? 0 : median(untraced_small);
  out.add("trace.overhead_pct",
          untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0, "%");

  const std::string trace_path = options.work_dir + "/trace-" + options.workload + ".json";
  for (std::size_t i = 0; i < stream.measured.size(); i += 2) {
    const Record& rec = records.at(stream.measured[i].id);
    if (rec.terminals > 0) send_spans.add("serve.request", due[i], rec.done, -1, static_cast<std::int64_t>(i));
  }
  tally.check(send_spans.write_chrome(trace_path));
  out.context.emplace_back("trace_file", trace_path);
  return out;
}

}  // namespace perfbench
