// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <paper_batch|contention_batch|serve_durable>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work <dir> [--cli <mimdmap_cli>] [--smoke]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// run context. Exit code 0 only for a correct run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gen.hpp"
#include "spans.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Host-speed readout for the run context: the median time of a fixed,
/// benchmark-owned job (generating and hashing one 8000-task graph text).
/// It does not touch the program, so when it moves between runs the host
/// moved, not the code.
double host_reference_ms() {
  std::vector<double> times;
  static volatile std::uint64_t sink = 0;  // keeps the work observable
  for (int i = 0; i < 5; ++i) {
    const auto t0 = perfbench::Clock::now();
    perfbench::SplitMix rng(12345);
    sink = sink ^ perfbench::fnv1a64(perfbench::layered_dag_text(rng, 8000, 40));
    times.push_back(perfbench::ms_between(t0, perfbench::Clock::now()));
  }
  return perfbench::median(times);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_batch|contention_batch|serve_durable> "
               "--seed <n> --seconds <s> --trace <0|1> --work <dir> [--cli <path>] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() == "1";
      else if (arg == "--work") options.work_dir = value();
      else if (arg == "--cli") options.cli = value();
      else if (arg == "--smoke") options.smoke = true;
      else return usage("unknown argument " + arg);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  const bool batch =
      options.workload == "paper_batch" || options.workload == "contention_batch";
  if (!batch && options.workload != "serve_durable") {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (options.work_dir.empty()) return usage("--work is required");
  if (!batch && options.cli.empty()) return usage("serve_durable needs --cli");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  const std::string load_start = perfbench::load_average();
  const double ref_start = host_reference_ms();
  perfbench::RunResult result;
  try {
    result = batch ? perfbench::run_batch(options) : perfbench::run_serve(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream context;
  context << "{\"context\":{\"workload\":" << json_string(options.workload)
          << ",\"seed\":" << options.seed << ",\"seconds\":" << json_number(options.seconds)
          << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"smoke\":" << (options.smoke ? 1 : 0)
          << ",\"nproc\":" << std::thread::hardware_concurrency()
          << ",\"load_start\":" << json_string(load_start)
          << ",\"load_end\":" << json_string(perfbench::load_average())
          << ",\"host_ref_ms_start\":" << json_number(ref_start)
          << ",\"host_ref_ms_end\":" << json_number(host_reference_ms())
          << ",\"build_type\":" << json_string(MIMDMAP_BUILD_TYPE)
          << ",\"commit\":" << json_string(MIMDMAP_COMMIT);
  for (const auto& [key, value] : result.context) {
    context << "," << json_string(key) << ":" << json_string(value);
  }
  context << "}}";
  std::cout << context.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\":" << (result.tally.correct() ? "true" : "false")
       << ",\"attempted\":" << result.tally.attempted() << ",\"failed\":" << result.tally.failed()
       << ",\"metrics\":{";
  // Exactly the declared metrics, in declared order: a per-layer metric
  // the workload does not measure reads 0, anything undeclared is a bug.
  const auto& specs =
      options.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  for (const perfbench::Metric& m : result.metrics) {
    const bool declared = std::any_of(specs.begin(), specs.end(), [&](const auto& spec) {
      return m.name == spec.name && m.unit == spec.unit;
    });
    if (!declared || !std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " [" << m.unit << "] = " << m.value
                << " is undeclared or not finite\n";
      return 1;
    }
  }
  bool first = true;
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                                 [&](const perfbench::Metric& m) { return m.name == spec.name; });
    if (it == result.metrics.end() && !options.trace) {
      std::cerr << "perfbench: end-to-end metric " << spec.name << " missing\n";
      return 1;
    }
    const double value = it == result.metrics.end() ? 0.0 : it->value;
    line << (first ? "" : ",") << json_string(spec.name) << ":{\"value\":" << json_number(value)
         << ",\"unit\":" << json_string(spec.unit) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  if (!result.tally.correct()) {
    std::cerr << "perfbench: correctness checks failed\n";
    return 1;
  }
  return result.tally.attempted() > 0 ? 0 : 1;
}
