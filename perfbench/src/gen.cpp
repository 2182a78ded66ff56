#include "gen.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

namespace perfbench {

std::uint64_t fnv1a64(std::string_view text, std::uint64_t h) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SplitMix::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t SplitMix::uniform(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double SplitMix::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

}  // namespace

std::string layered_dag_text(SplitMix& rng, int np, int layers) {
  layers = std::clamp(layers, 1, np);
  std::vector<int> layer_of(static_cast<std::size_t>(np));
  for (int v = 0; v < np; ++v) {
    layer_of[v] = v < layers ? v : static_cast<int>(rng.uniform(0, layers - 1));
  }
  std::sort(layer_of.begin(), layer_of.end());
  std::vector<std::vector<int>> bucket(static_cast<std::size_t>(layers));
  for (int v = 0; v < np; ++v) bucket[layer_of[v]].push_back(v);

  std::string text = "taskgraph " + std::to_string(np) + "\n";
  for (int v = 0; v < np; ++v) {
    text += "node " + std::to_string(v) + " " + std::to_string(rng.uniform(1, 10)) + "\n";
  }
  std::unordered_set<std::uint64_t> present;
  std::vector<int> in_degree(static_cast<std::size_t>(np), 0);
  const auto add_edge = [&](int from, int to) {
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint32_t>(to);
    if (!present.insert(key).second) return;
    ++in_degree[to];
    text += "edge " + std::to_string(from) + " " + std::to_string(to) + " " +
            std::to_string(rng.uniform(1, 10)) + "\n";
  };
  for (int v = 0; v < np; ++v) {
    const int lv = layer_of[v];
    if (lv + 1 >= layers) continue;
    const std::int64_t want = rng.uniform(0, 4);
    for (std::int64_t k = 0; k < want; ++k) {
      int target = lv + 1;
      while (target + 1 < layers && rng.uniform01() < 0.15) ++target;
      const std::vector<int>& candidates = bucket[target];
      add_edge(v, candidates[rng.uniform(0, static_cast<std::int64_t>(candidates.size()) - 1)]);
    }
  }
  for (int v = 0; v < np; ++v) {
    const int lv = layer_of[v];
    if (lv == 0 || in_degree[v] > 0) continue;
    const std::vector<int>& candidates = bucket[lv - 1];
    add_edge(candidates[rng.uniform(0, static_cast<std::int64_t>(candidates.size()) - 1)], v);
  }
  return text;
}

BatchInputs make_batch_inputs(BatchKind kind, std::uint64_t seed, int jobs) {
  static const std::vector<std::string> kPaperSpecs = {
      "hypercube-3",    "hypercube-4",     "mesh-3x3",        "mesh-4x4",
      "random-8-10-13", "random-12-10-15", "random-16-8-17"};
  static const std::vector<std::string> kContentionSpecs = {
      "mesh-6x6", "mesh-8x8", "torus-6x6", "torus-8x8", "hypercube-5", "hypercube-6"};
  const bool paper = kind == BatchKind::kPaper;
  const std::vector<std::string>& specs = paper ? kPaperSpecs : kContentionSpecs;

  SplitMix rng(seed ^ (paper ? 0x7061706572ULL : 0x636f6e74656eULL));
  // Sizes and machines are stratified (evenly spread, then shuffled), so
  // two seeds differ in graph structure and order, not in their mix: the
  // per-run means then vary little from seed to seed.
  const int np_lo = paper ? 30 : 600;
  const int np_hi = paper ? 300 : 2000;
  std::vector<int> sizes(static_cast<std::size_t>(jobs));
  std::vector<std::size_t> machines(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    sizes[i] = np_lo + static_cast<int>(static_cast<std::int64_t>(i) * (np_hi - np_lo + 1) / jobs);
    machines[i] = static_cast<std::size_t>(i) % specs.size();
  }
  shuffle(sizes, rng);
  shuffle(machines, rng);
  BatchInputs in;
  for (int i = 0; i < jobs; ++i) {
    const int np = sizes[i];
    const int layers = paper ? static_cast<int>(rng.uniform(4, 12))
                             : static_cast<int>(rng.uniform(10, 30));
    in.problems.push_back(layered_dag_text(rng, np, layers));
    std::string line = "name=j" + std::to_string(i) + " problem=gen:" + std::to_string(i) +
                       " spec=" + specs[machines[i]] +
                       " strategy=block refine-seed=" + std::to_string(rng.next() >> 1) +
                       " random-trials=10 random-seed=" + std::to_string(rng.next() >> 1);
    if (!paper) line += " contention serialize trials=256";
    in.manifest += line + "\n";
  }
  in.hash = fnv1a64(in.manifest);
  for (const std::string& problem : in.problems) in.hash = fnv1a64(problem, in.hash);
  return in;
}

namespace {

std::string small_body(SplitMix& rng, std::uint64_t gen_seed) {
  static const std::vector<std::string> kSpecs = {"mesh-2x2", "hypercube-2", "mesh-2x3",
                                                  "hypercube-3"};
  return "gen=layered gen-a=" + std::to_string(rng.uniform(32, 60)) +
         " gen-b=" + std::to_string(rng.uniform(4, 8)) + " gen-seed=" + std::to_string(gen_seed) +
         " spec=" + kSpecs[rng.uniform(0, static_cast<std::int64_t>(kSpecs.size()) - 1)] +
         " seed=" + std::to_string(rng.uniform(1, 1000000));
}

}  // namespace

ServeStream make_serve_stream(const ServeMix& mix, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x7365727665ULL);
  // gen-seed ranges per role keep every unique body distinct from every
  // primed one, for any seed.
  const std::uint64_t base = (seed % 1000000) * 10000000;
  ServeStream stream;
  for (int i = 0; i < mix.repeat_set; ++i) {
    stream.warmup.push_back(
        {ServeClass::kHit, "w" + std::to_string(i), small_body(rng, base + 1 + i)});
  }

  const int hits = static_cast<int>(mix.requests * mix.hit_share);
  const int bulk = static_cast<int>(mix.requests * mix.bulk_share);
  std::vector<ServeClass> order(static_cast<std::size_t>(mix.requests), ServeClass::kSmall);
  std::fill_n(order.begin(), hits, ServeClass::kHit);
  std::fill_n(order.begin() + hits, bulk, ServeClass::kBulk);
  shuffle(order, rng);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ServeRequest req;
    req.klass = order[i];
    req.id = "m" + std::to_string(i);
    const std::uint64_t unique_seed = base + 5000000 + i;
    switch (req.klass) {
      case ServeClass::kSmall:
        req.body = small_body(rng, unique_seed);
        break;
      case ServeClass::kHit:
        req.body = stream.warmup[rng.uniform(0, mix.repeat_set - 1)].body;
        break;
      case ServeClass::kBulk:
        // ~2000 tasks with a bounded trial budget: a few ms of compute.
        req.body = "gen=layered gen-a=2000 gen-b=20 gen-seed=" + std::to_string(unique_seed) +
                   " spec=hypercube-3 seed=11 trials=64 priority=1";
        break;
    }
    stream.measured.push_back(std::move(req));
  }
  stream.hash = 0xcbf29ce484222325ULL;
  for (const ServeRequest& r : stream.warmup) stream.hash = fnv1a64(r.line(), stream.hash);
  for (const ServeRequest& r : stream.measured) stream.hash = fnv1a64(r.line(), stream.hash);
  return stream;
}

}  // namespace perfbench
