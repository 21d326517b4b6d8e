// perfbench: the benchmark's measuring process.  perfbench/run.py builds
// and drives it; one invocation runs one thing:
//
//   perfbench --mode run   --workload W --seed S --seconds T --out r.json
//   perfbench --mode setup --workload W --seed S --out r.json
//   perfbench --mode probe --workload W --seed S --out r.json
//
// `run` measures workload W for T seconds, `setup` only times its set-up,
// `probe` times the layer probes.  --spans PATH records the benchmark's own
// spans and writes them to PATH at exit.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return 2;
    }
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--mode") {
      args.mode = val;
    } else if (key == "--out") {
      args.out = val;
    } else if (key == "--spans") {
      args.spans = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.out.empty()) {
    std::fprintf(stderr, "usage: perfbench --mode run|setup|probe --workload W "
                         "--seed S --seconds T --out PATH [--spans PATH]\n");
    return 2;
  }
  try {
    return args.mode == "probe" ? perfbench::run_probes(args)
                                : perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
