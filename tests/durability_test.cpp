// End-to-end tests of the serve durability story (DESIGN.md section 19):
// a MapServer pointed at a journal directory replays accepted-but-
// unfinished requests through the normal scheduler (results marked
// replayed=1 and journaled), warm-loads the fingerprint result cache from
// journaled ok results, and a replayed job produces the same mapping as a
// fresh run of the identical request — the determinism the idempotent
// retry contract stands on.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/journal.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace mimdmap::serve {
namespace {

constexpr const char* kJob = "gen=diamond gen-a=3 gen-b=3 spec=mesh-2x2 seed=5";
constexpr const char* kOtherJob = "gen=diamond gen-a=4 gen-b=3 spec=mesh-2x2 seed=6";

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "mimdmap_durability_" + tag + "_" +
                          std::to_string(::getpid());
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    char name[32];
    std::snprintf(name, sizeof name, "wal-%06llu.log",
                  static_cast<unsigned long long>(seq));
    (void)::unlink((dir + "/" + name).c_str());
  }
  (void)::rmdir(dir.c_str());
  return dir;
}

/// Minimal blocking frame client over one socketpair end (30 s poll cap).
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
      ASSERT_GT(n, 0) << "client write failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<std::map<std::string, std::string>> next_frame() {
    while (lines_.empty()) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 30000);
      if (rc <= 0) {
        ADD_FAILURE() << "client timed out waiting for a frame";
        return std::nullopt;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) return std::nullopt;
      if (n < 0) {
        ADD_FAILURE() << "client read failed: " << std::strerror(errno);
        return std::nullopt;
      }
      for (const FrameReader::Line& line : reader_.feed(buf, static_cast<std::size_t>(n))) {
        if (line.ok() && !line.text.empty()) lines_.push_back(line.text);
      }
    }
    const std::string text = lines_.front();
    lines_.pop_front();
    return parse_response(text);
  }

  std::map<std::string, std::string> expect_event(const std::string& event) {
    const auto frame = next_frame();
    if (!frame.has_value()) {
      ADD_FAILURE() << "expected event=" << event << ", got EOF/timeout";
      return {};
    }
    EXPECT_EQ(frame->at("event"), event);
    return *frame;
  }

 private:
  int fd_;
  FrameReader reader_{64 * 1024};
  std::deque<std::string> lines_;
};

class PipeHarness {
 public:
  explicit PipeHarness(ServerOptions options = {}) : server_(std::move(options)) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server_fd_ = sv[0];
    client_fd_ = sv[1];
    thread_ = std::thread([this] { server_.serve_fd(server_fd_, server_fd_); });
    client_ = std::make_unique<TestClient>(client_fd_);
  }

  ~PipeHarness() {
    server_.request_drain(DrainMode::kCancel);
    server_.wait();
    if (thread_.joinable()) thread_.join();
    if (client_fd_ >= 0) ::close(client_fd_);
    ::close(server_fd_);
  }

  MapServer& server() { return server_; }
  TestClient& client() { return *client_; }

 private:
  MapServer server_;
  int server_fd_ = -1;
  int client_fd_ = -1;
  std::thread thread_;
  std::unique_ptr<TestClient> client_;
};

/// Polls until the server has issued `want` terminal frames (replay runs
/// on the scheduler, asynchronously to the constructor's return).
ServerStats settled_stats(MapServer& server, std::uint64_t want_terminals) {
  for (int i = 0; i < 500; ++i) {
    const ServerStats stats = server.stats();
    if (stats.terminal_frames >= want_terminals) return stats;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server.stats();
}

/// Writes one accepted record (and optionally its terminal) for `line`.
void craft_accepted(Journal& journal, std::uint64_t jid, const std::string& tag,
                    const std::string& line) {
  JournalEntry acc;
  acc.kind = JournalEntry::Kind::kAccepted;
  acc.jid = jid;
  acc.id = tag;
  acc.fingerprint = request_fingerprint(parse_request(line).kv);
  acc.client = 1;
  acc.request = line;
  journal.append(encode_entry(acc));
}

void craft_result(Journal& journal, std::uint64_t jid, const std::string& tag,
                  const std::string& fingerprint, std::int64_t total) {
  JournalEntry res;
  res.kind = JournalEntry::Kind::kResult;
  res.jid = jid;
  res.id = tag;
  res.fingerprint = fingerprint;
  res.status = "ok";
  res.total = total;
  res.lower_bound = total / 2;
  res.pct = 0;
  res.trials = 11;
  res.lanes = 1;
  journal.append(encode_entry(res));
}

/// Decoded result records of a journal directory, in append order.
std::vector<JournalEntry> journaled_results(const std::string& dir) {
  Journal journal(dir, FsyncPolicy::kNone, false);
  std::vector<JournalEntry> results;
  for (const std::string& payload : journal.recovered()) {
    const auto entry = decode_entry(payload);
    if (entry && entry->kind == JournalEntry::Kind::kResult) results.push_back(*entry);
  }
  return results;
}

TEST(DurabilityTest, RecoveryReplaysUnfinishedAcceptedJobs) {
  const std::string dir = temp_dir("replay");
  const std::string fp_done = request_fingerprint(parse_request(kOtherJob).kv);
  {
    // The crashed daemon's log: jid 1 finished cleanly, jid 2 and 3 were
    // accepted (promised!) but never got their terminal record.
    Journal journal(dir, FsyncPolicy::kAlways, false);
    craft_accepted(journal, 1, "done", kOtherJob);
    craft_result(journal, 1, "done", fp_done, 444);
    craft_accepted(journal, 2, "alpha", kJob);
    craft_accepted(journal, 3, "beta", kJob);
  }

  ServerOptions options;
  options.journal_dir = dir;
  {
    PipeHarness h(std::move(options));
    const ServerStats stats = settled_stats(h.server(), 2);
    EXPECT_EQ(stats.replayed, 2u);
    EXPECT_EQ(stats.accepted, 2u);  // only the replays; jid 1 was terminal
    EXPECT_EQ(stats.terminal_frames, 2u);
    // The daemon still serves normally after recovery.
    h.client().send_line("op=ping");
    h.client().expect_event("pong");
  }

  // Both promises are now closed in the journal itself: replayed result
  // records for jid 2 and 3, status ok, produced by the real scheduler.
  const std::vector<JournalEntry> results = journaled_results(dir);
  ASSERT_EQ(results.size(), 3u);
  for (const JournalEntry& r : results) {
    if (r.jid == 1) continue;
    EXPECT_TRUE(r.jid == 2 || r.jid == 3);
    EXPECT_TRUE(r.replayed);
    EXPECT_EQ(r.status, "ok");
    EXPECT_GT(r.total, 0);
    // The terminal frame keeps the original client tag.
    EXPECT_TRUE(r.id == "alpha" || r.id == "beta") << r.id;
  }
}

TEST(DurabilityTest, ReplayedJobMatchesFreshRunBitForBit) {
  // Fresh run of the request on a plain (journal-less) server.
  std::int64_t fresh_total = -1;
  std::int64_t fresh_trials = -1;
  {
    PipeHarness plain;
    plain.client().send_line(std::string("id=ref ") + kJob);
    plain.client().expect_event("accepted");
    const auto result = plain.client().expect_event("result");
    fresh_total = std::stoll(result.at("total"));
    fresh_trials = std::stoll(result.at("trials"));
    EXPECT_GT(fresh_total, 0);
  }

  // Same request recovered from a journal: identical seed, identical
  // mapping — the deterministic-replay contract.
  const std::string dir = temp_dir("determinism");
  {
    Journal journal(dir, FsyncPolicy::kAlways, false);
    craft_accepted(journal, 1, "alpha", kJob);
  }
  ServerOptions options;
  options.journal_dir = dir;
  {
    PipeHarness h(std::move(options));
    const ServerStats stats = settled_stats(h.server(), 1);
    EXPECT_EQ(stats.replayed, 1u);
  }
  const std::vector<JournalEntry> results = journaled_results(dir);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].total, fresh_total);
  EXPECT_EQ(results[0].trials, fresh_trials);
  EXPECT_EQ(results[0].status, "ok");
}

TEST(DurabilityTest, CacheWarmLoadsFromJournalAndServesWithoutRunning) {
  const std::string dir = temp_dir("warmcache");
  const std::string fp = request_fingerprint(parse_request(kJob).kv);
  {
    // A completed job in the log. total=777 is deliberately NOT what the
    // engine would compute: if the repeat below shows 777, it provably
    // came from the warm-loaded cache, not a re-run.
    Journal journal(dir, FsyncPolicy::kAlways, false);
    craft_accepted(journal, 1, "orig", kJob);
    craft_result(journal, 1, "orig", fp, 777);
  }

  ServerOptions options;
  options.journal_dir = dir;
  options.cache_bytes = 1u << 20;
  PipeHarness h(std::move(options));

  h.client().send_line(std::string("id=repeat ") + kJob);
  const auto accepted = h.client().expect_event("accepted");
  EXPECT_EQ(accepted.at("fingerprint"), fp);
  const auto result = h.client().expect_event("result");
  EXPECT_EQ(result.at("id"), "repeat");
  EXPECT_EQ(result.at("cached"), "1");
  EXPECT_EQ(std::stoll(result.at("total")), 777);
  // The scheduler never saw the job.
  EXPECT_EQ(h.server().service().stats().submitted, 0u);
}

TEST(DurabilityTest, ReplayHitsWarmCacheInsteadOfRerunning) {
  const std::string dir = temp_dir("replaycache");
  const std::string fp = request_fingerprint(parse_request(kJob).kv);
  {
    // jid 1 completed; jid 2 is the SAME request, accepted but unfinished.
    // With the cache on, recovery must redeem jid 2 from the warm cache —
    // cached=1 replayed=1 — without re-running the mapper.
    Journal journal(dir, FsyncPolicy::kAlways, false);
    craft_accepted(journal, 1, "orig", kJob);
    craft_result(journal, 1, "orig", fp, 777);
    craft_accepted(journal, 2, "again", kJob);
  }

  ServerOptions options;
  options.journal_dir = dir;
  options.cache_bytes = 1u << 20;
  PipeHarness h(std::move(options));
  // The cache redemption happens synchronously in the constructor, so no
  // settling needed; assert directly.
  const ServerStats stats = h.server().stats();
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.cached_results, 1u);
  EXPECT_EQ(stats.terminal_frames, 1u);
  EXPECT_EQ(h.server().service().stats().submitted, 0u);

  const std::vector<JournalEntry> results = journaled_results(dir);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].jid, 2u);
  EXPECT_TRUE(results[1].cached);
  EXPECT_TRUE(results[1].replayed);
  EXPECT_EQ(results[1].total, 777);
}

TEST(DurabilityTest, UnparsableJournaledRequestClosesWithInternalError) {
  const std::string dir = temp_dir("unparsable");
  {
    Journal journal(dir, FsyncPolicy::kAlways, false);
    JournalEntry acc;
    acc.kind = JournalEntry::Kind::kAccepted;
    acc.jid = 1;
    acc.id = "broken";
    acc.fingerprint = "deadbeefdeadbeef";
    acc.client = 1;
    acc.request = "gen=diamond but-this-key-does-not-exist=1";
    journal.append(encode_entry(acc));
  }
  ServerOptions options;
  options.journal_dir = dir;
  {
    PipeHarness h(std::move(options));
    const ServerStats stats = h.server().stats();
    // The promise is closed (one terminal), just not with a success.
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.terminal_frames, 1u);
    EXPECT_EQ(stats.replayed, 1u);
  }
  const std::vector<JournalEntry> results = journaled_results(dir);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "internal_error");
  EXPECT_TRUE(results[0].replayed);
}

TEST(DurabilityTest, ServeFdAfterDrainSaysByeAndReturns) {
  // A connection that registers after drain has taken its snapshot of the
  // live connections must still be told goodbye and released; serving it
  // would leave its reader polling forever.
  MapServer server{ServerOptions{}};
  server.request_drain(DrainMode::kCancel);
  server.wait();
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const auto t0 = std::chrono::steady_clock::now();
  server.serve_fd(sv[0], sv[0]);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  TestClient client(sv[1]);
  const auto bye = client.expect_event("bye");
  EXPECT_EQ(bye.at("accepted"), "0");
  EXPECT_EQ(bye.at("results"), "0");
  EXPECT_EQ(server.stats().connections_opened, 0u);
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace
}  // namespace mimdmap::serve
