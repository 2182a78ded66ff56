// Unit tests of the benchmark's own helpers: the stats (median,
// percentile, the ten-samples-beyond refusal, failure accounting) and
// deterministic input generation. Plain checks, no framework; exits 1
// when any expectation failed.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gen.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "FAILED: " << what << "\n";
  ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_median() {
  expect(near(perfbench::median({3, 1, 2}), 2), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
  expect(near(perfbench::median({7}), 7), "single median");
  bool threw = false;
  try {
    (void)perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty median throws");
}

void test_percentile() {
  // 1..1001: p99 sits at rank 990 (value 991), ten samples beyond it.
  const auto p99 = perfbench::percentile(iota(1001), 0.99);
  expect(p99.has_value() && near(*p99, 991), "p99 of 1..1001 is 991");
  const auto p50 = perfbench::percentile(iota(101), 0.5);
  expect(p50.has_value() && near(*p50, 51), "p50 of 1..101 is 51");
  // Interpolation between closest ranks.
  const auto q = perfbench::percentile(iota(41), 0.5);
  expect(q.has_value() && near(*q, 21), "p50 of 1..41");
  const auto interp = perfbench::percentile(iota(22), 0.5);
  expect(interp.has_value() && near(*interp, 11.5), "interpolated p50 of 1..22");
}

void test_refusal() {
  // Beyond = samples strictly above the interpolation position of q.
  expect(perfbench::samples_beyond(1001, 0.99) == 10, "1001 samples leave 10 beyond p99");
  expect(perfbench::samples_beyond(902, 0.99) == 10, "902 samples leave 10 beyond p99");
  expect(perfbench::samples_beyond(901, 0.99) == 9, "901 samples leave 9 beyond p99");
  expect(!perfbench::percentile(iota(901), 0.99).has_value(), "p99 refused below 10 beyond");
  expect(perfbench::percentile(iota(902), 0.99).has_value(), "p99 reported at 10 beyond");
  expect(!perfbench::percentile(iota(19), 0.5).has_value(), "p50 refused with 9 beyond");
  expect(perfbench::percentile(iota(20), 0.5).has_value(), "p50 reported with 10 beyond");
  expect(!perfbench::percentile({}, 0.5).has_value(), "empty sample refused");
}

void test_tally() {
  perfbench::Tally t;
  t.record(true);
  t.record(false);        // ended non-ok (shed, error, lost...)
  t.record(true, false);  // ok but failed a check
  t.record(false, false); // both: still one failure
  expect(t.attempted() == 4, "four attempted");
  expect(t.failed() == 3, "three failed, each counted once");
  expect(!t.correct(), "a failed check marks the run incorrect");
  expect(near(t.ok_pct(), 25), "ok_pct is the ok share");

  perfbench::Tally clean;
  clean.record(true);
  clean.record(false);  // a shed request fails the operation, not the run
  expect(clean.correct() && clean.failed() == 1, "non-ok outcomes alone keep the run correct");
  clean.check(true);
  expect(clean.correct() && clean.failed() == 1, "a passed check changes nothing");
  clean.check(false);  // e.g. a sampled schedule re-derivation found a violation
  expect(!clean.correct() && clean.failed() == 2, "a failed check counts and fails the run");
  clean.check(false);
  expect(clean.failed() == 2, "failures never exceed attempts");
}

void test_generation() {
  using perfbench::BatchKind;
  for (const BatchKind kind : {BatchKind::kPaper, BatchKind::kContention}) {
    const perfbench::BatchInputs a = perfbench::make_batch_inputs(kind, 42, 20);
    const perfbench::BatchInputs b = perfbench::make_batch_inputs(kind, 42, 20);
    const perfbench::BatchInputs c = perfbench::make_batch_inputs(kind, 43, 20);
    expect(a.manifest == b.manifest && a.problems == b.problems, "same seed, same batch bytes");
    expect(a.hash == b.hash, "same seed, same batch hash");
    expect(a.hash != c.hash && a.manifest != c.manifest, "other seed, other batch");
    expect(a.problems.size() == 20, "one problem per job");
  }
  const perfbench::BatchInputs paper = perfbench::make_batch_inputs(BatchKind::kPaper, 7, 200);
  for (const std::string& problem : paper.problems) {
    const int np = std::stoi(problem.substr(std::string("taskgraph ").size()));
    expect(np >= 30 && np <= 300, "paper np in [30, 300]");
  }

  perfbench::ServeMix mix;
  mix.requests = 300;
  mix.repeat_set = 16;
  mix.hit_share = 0.3;
  mix.bulk_share = 0.2;
  const perfbench::ServeStream a = perfbench::make_serve_stream(mix, 5);
  const perfbench::ServeStream b = perfbench::make_serve_stream(mix, 5);
  const perfbench::ServeStream c = perfbench::make_serve_stream(mix, 6);
  bool same = a.measured.size() == b.measured.size() && a.warmup.size() == b.warmup.size();
  for (std::size_t i = 0; same && i < a.measured.size(); ++i) {
    same = a.measured[i].line() == b.measured[i].line();
  }
  expect(same && a.hash == b.hash, "same seed, same request stream");
  expect(a.hash != c.hash, "other seed, other request stream");
  int hits = 0, bulk = 0;
  for (const perfbench::ServeRequest& r : a.measured) {
    if (r.klass == perfbench::ServeClass::kHit) {
      ++hits;
      bool primed = false;
      for (const perfbench::ServeRequest& w : a.warmup) primed = primed || w.body == r.body;
      expect(primed, "every hit repeats a primed body");
    }
    if (r.klass == perfbench::ServeClass::kBulk) ++bulk;
  }
  expect(hits == 90 && bulk == 60, "class counts follow the mix");

  // The generator is the benchmark's own: pin its first values so a change
  // to it (which would change every workload's inputs) is deliberate.
  perfbench::SplitMix rng(1);
  expect(rng.next() == 0x910a2dec89025cc1ULL, "splitmix64 reference value");
  expect(perfbench::fnv1a64("a") == 0xaf63dc4c8601ec8cULL, "fnv1a64 reference value");
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_refusal();
  test_tally();
  test_generation();
  if (failures > 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench_test: all checks passed\n";
  return EXIT_SUCCESS;
}
