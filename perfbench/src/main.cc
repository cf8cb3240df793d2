// dapsp_perfbench: runs one benchmark workload and prints one JSON object
// with its metrics, host context and correctness verdict. perfbench/run.py
// builds this binary, runs it and formats the result.
//
//   dapsp_perfbench --workload <apsp_rand1024|churn_rand512|serve_rand2048>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--trace-out <file.jsonl>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dapsp_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      o.seconds = std::stoi(val);
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = val;
    } else if (arg == "--trace-out") {
      o.trace_out = val;
    } else {
      usage();
    }
  }
  if (o.workload.empty() || o.seconds < 1) usage();
  return o;
}

// A fixed CPU-bound loop; its wall time shows how fast the host ran.
double calibrate_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 40'000'000; ++i) {
    x = derive_seed(x, i);
  }
  const std::int64_t t1 = now_ns();
  if (x == 42) std::fputc(' ', stderr);  // keeps the loop
  return ms_between(t0, t1);
}

// Per-layer self time per traced op: every span whose root span is an "op"
// adds its self time to its layer.
void add_self_times(Report& rep) {
  double self_ns[kLayerCount] = {};
  std::uint64_t ops = 0;
  for (const Tracer& t : rep.tracers) {
    const std::vector<Span>& spans = t.spans();
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::size_t root = i;
      while (spans[root].parent >= 0) root = static_cast<std::size_t>(spans[root].parent);
      if (std::strcmp(spans[root].name, "op") != 0) continue;
      if (root == i) ++ops;
      self_ns[static_cast<int>(spans[i].layer)] += static_cast<double>(self[i]);
    }
  }
  for (int l = 0; l < kLayerCount; ++l) {
    if (self_ns[l] == 0.0) continue;  // the layer is idle on this workload
    rep.add_layer(std::string(to_string(static_cast<Layer>(l))) + ".self_ms_per_op",
                  ops ? self_ns[l] / 1e6 / static_cast<double>(ops) : 0.0, "ms", ops);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf("\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%llu,\"note\":\"%s\"}",
                i ? "," : "", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), json_escape(m.note).c_str());
  }
  std::printf("}");
}

int run(const Options& opt) {
  const double calib_start = calibrate_ms();
  Report rep;
  try {
    if (opt.workload == "apsp_rand1024") {
      rep = run_apsp(opt);
    } else if (opt.workload == "churn_rand512") {
      rep = run_churn(opt);
    } else if (opt.workload == "serve_rand2048") {
      rep = run_serve(opt);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload aborted: %s\n", e.what());
    return 1;
  }
  const double calib_end = calibrate_ms();

  rep.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  rep.add_e2e("failed_ratio",
              rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                            : 1.0,
              "ratio", rep.attempted);
  rep.add_layer("bench.calib_ms", (calib_start + calib_end) / 2.0, "ms", 2,
                "fixed CPU loop, mean of run start and end");
  if (opt.trace) {
    std::size_t overfull = 0;
    for (const Tracer& t : rep.tracers) overfull += overfull_parents(t.spans());
    if (overfull > 0) {
      rep.errors.push_back(std::to_string(overfull) +
                           " spans whose children outlast them");
    }
    add_self_times(rep);
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      for (std::size_t i = 0; i < rep.tracers.size(); ++i) {
        write_jsonl(out, rep.tracers[i], static_cast<int>(i));
      }
      if (!out) rep.errors.push_back("cannot write " + opt.trace_out);
    }
  }

  const bool correct = rep.failed == 0 && rep.errors.empty() && rep.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,", correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf("\"context\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
              "\"hardware_threads\":%u,\"workload_threads\":%u,\"build_type\":\"%s\","
              "\"calib_ms_start\":%.6g,\"calib_ms_end\":%.6g},",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, std::thread::hardware_concurrency(), rep.threads,
              PERFBENCH_BUILD_TYPE, calib_start, calib_end);
  std::printf("\"errors\":[");
  for (std::size_t i = 0; i < rep.errors.size() && i < 8; ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(rep.errors[i]).c_str());
  }
  std::printf("],");
  print_metrics("end_to_end", rep.e2e);
  std::printf(",");
  print_metrics("per_layer", rep.layer);
  std::printf("}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
