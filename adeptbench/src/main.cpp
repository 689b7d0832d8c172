/// \file main.cpp
/// \brief The adept benchmark driver: runs one named workload for a
/// fixed time with a seed from the command line, checks its outputs, and
/// prints one JSON result object as the last line of standard output.
///
///   adeptbench --workload <plan-cold|serve-open|churn|dist-fleet>
///              --seed <n> --seconds <s> --trace <0|1>
///              [--results-dir <dir>] [--revision <rev>] [--adept <path>]
///
/// With --trace 0 the result carries every end-to-end metric; with
/// --trace 1 every per-layer metric (see ../README.md). A per-run record
/// (seed, workload, host, compiler, build type, revision, metrics,
/// checks) is written to <results-dir>/<workload>-seed<n>-trace<t>.json.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace adeptbench;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const RunResult& result, bool trace) {
  const auto& catalog = trace ? layer_catalog() : e2e_catalog();
  const auto& values = trace ? result.layer : result.e2e;
  std::string out = "{";
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(value) +
           ", \"unit\": " + quoted(unit) + "}";
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--results-dir") {
      args.results_dir = value;
    } else if (key == "--revision") {
      args.revision = value;
    } else if (key == "--adept") {
      args.adept_cli = value;
    } else {
      std::cerr << "unknown option " << key << '\n';
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::cerr << "options take one value each\n";
    return false;
  }
  return have_workload && have_seed && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.adept_cli = ADEPTBENCH_ADEPT_CLI;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: adeptbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1>\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << '\n';
    return 2;
  }

  RunResult result;
  try {
    if (args.workload == "plan-cold") {
      result = run_plan_cold(args);
    } else if (args.workload == "serve-open") {
      result = run_serve_open(args);
    } else if (args.workload == "churn") {
      result = run_churn(args);
    } else if (args.workload == "dist-fleet") {
      result = run_dist_fleet(args);
    } else {
      std::cerr << "unknown workload " << args.workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  const std::uint64_t failed = result.failed;
  for (const std::string& failure : result.failures)
    std::cout << "CHECK FAILED: " << failure << '\n';

  // The per-run record.
  ::mkdir(args.results_dir.c_str(), 0755);
  const std::string path = args.results_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  {
    std::ofstream out(path);
    out << "{\n  \"workload\": " << quoted(args.workload)
        << ",\n  \"seed\": " << args.seed
        << ",\n  \"seconds\": " << number(args.seconds)
        << ",\n  \"trace\": " << (args.trace ? 1 : 0)
        << ",\n  \"host_cores\": " << host_cores()
        << ",\n  \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
        << ",\n  \"build_type\": " << quoted(ADEPTBENCH_BUILD_TYPE)
        << ",\n  \"revision\": " << quoted(args.revision)
        << ",\n  \"correct\": " << (result.correct ? "true" : "false")
        << ",\n  \"attempted\": " << result.accounting.attempted
        << ",\n  \"failed\": " << failed
        << ",\n  \"accounting\": {\"ok\": " << result.accounting.ok
        << ", \"errors\": " << result.accounting.errors
        << ", \"refused\": " << result.accounting.refused
        << ", \"late\": " << result.accounting.late << "}"
        << ",\n  \"metrics\": " << metrics_json(result, args.trace)
        << ",\n  \"info\": {";
    for (std::size_t i = 0; i < result.info.size(); ++i)
      out << (i ? ", " : "") << quoted(result.info[i].first) << ": "
          << quoted(result.info[i].second);
    out << "},\n  \"check_failures\": [";
    for (std::size_t i = 0; i < result.failures.size(); ++i)
      out << (i ? ", " : "") << quoted(result.failures[i]);
    out << "]\n}\n";
  }
  std::cout << "result record: " << path << '\n';

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.accounting.attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(result, args.trace) << "}"
            << std::endl;
  return result.correct ? 0 : 1;
}
