// Deterministic workload generation. Every input the program sees — batch
// manifests, the task graphs they name and the serve request stream — is
// produced here from the workload seed alone, by the benchmark's own
// generator (not the program's), so the same seed yields byte-identical
// inputs at every commit of the program.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// FNV-1a 64-bit, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text,
                                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept;

/// splitmix64 stream: small, fast and fully specified, so generated inputs
/// never depend on a library's RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) noexcept : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform integer in [lo, hi], lo <= hi.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept;
  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

 private:
  std::uint64_t state_;
};

/// Text-format task graph (graph/graph_io.hpp): a layered random DAG with
/// `np` tasks in `layers` layers, node and edge weights in [1, 10], about
/// two out-edges per task, 15% of edges skipping ahead a layer, and every
/// task past layer 0 given a predecessor.
[[nodiscard]] std::string layered_dag_text(SplitMix& rng, int np, int layers);

/// A batch manifest plus the task graphs its `problem=` keys name. Problem
/// names are `gen:<index>` into `problems`.
struct BatchInputs {
  std::string manifest;
  std::vector<std::string> problems;
  std::uint64_t hash = 0;
};

enum class BatchKind { kPaper, kContention };

/// paper: np 30-300, block clustering, hypercube-3/4, mesh-3x3/4x4 and
/// random machines, plain cost model, paper trial budget, 10-trial random
/// baseline. contention: np 600-2000 on 36-64-processor mesh, torus and
/// hypercube machines with contention + serialize and 256 trials.
[[nodiscard]] BatchInputs make_batch_inputs(BatchKind kind, std::uint64_t seed, int jobs);

/// Request classes of the serve workload.
enum class ServeClass : int { kSmall = 0, kHit = 1, kBulk = 2 };

struct ServeRequest {
  ServeClass klass = ServeClass::kSmall;
  std::string id;
  /// Request keys without id=: identical bodies are the same request.
  std::string body;
  [[nodiscard]] std::string line() const { return "id=" + id + " " + body + "\n"; }
};

struct ServeStream {
  /// Sent during set-up and answered before measuring: primes the result
  /// cache with every body the hit class repeats.
  std::vector<ServeRequest> warmup;
  /// The open-loop stream, in send order.
  std::vector<ServeRequest> measured;
  std::uint64_t hash = 0;
};

struct ServeMix {
  int requests = 0;       // measured stream length
  int repeat_set = 0;     // distinct bodies primed during warm-up
  double hit_share = 0;   // share of measured requests repeating a primed body
  double bulk_share = 0;  // share of measured requests in the bulk class
};

[[nodiscard]] ServeStream make_serve_stream(const ServeMix& mix, std::uint64_t seed);

}  // namespace perfbench
