// pathbench: the end-to-end PathLog benchmark program.
//
//   pathbench --workload company-query|kinship-closure|durable-updates
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 measures the workload for S seconds and prints the
// end-to-end metrics; --trace 1 runs a fixed op window twice, untraced
// then traced, and prints the per-layer metrics. Human-readable lines
// come first; the last line is one JSON object. Exit 0 only when every
// answer checked out.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

namespace pathbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Workload {
  const char* name;
  void (*run)(const Plan&, Run*);
  size_t window;  ///< ops (or graphs, or cycles) in a traced pass
  /// Repetitions whose median a timed run reports; cheap set-ups and
  /// recoveries repeat more, so their medians settle.
  int setup_reps;
  int recovery_reps;
};

const Workload kWorkloads[] = {
    {"company-query", RunCompanyQuery, 2000, 9, 9},
    {"kinship-closure", RunKinshipClosure, 4, 1, 9},
    {"durable-updates", RunDurableUpdates, 2, 9, 9},
};

// Query families whose mean traced latency is reported per family. A
// family a workload does not draw reports 0.
const char* const kFamilies[] = {
    "e1_1_path",   "e1_1_conj",  "e1_4_path",  "e1_4_conj",
    "e2_3_nested", "e2_man",     "bound_target", "point_eval",
    "point_holds", "view_eval",  "address",    "grandkids",
    "desc_of",     "tc_ancestors", "desc_holds",
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, x);
  return m;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<Metric> EndToEnd(const Run& run) {
  double query_p = 0;
  double update_p = 0;
  const double query_tail = Tail(run.query_ms, &query_p);
  const double update_tail = Tail(run.update_ms, &update_p);
  printf("note query_tail_ms is p%g of %zu reads\n", query_p,
         run.query_ms.size());
  printf("note update_tail_ms is p%g of %zu batches\n", update_p,
         run.update_ms.size());
  printf("note samples: setup %zu, materialize %zu, recovery %zu\n",
         run.setup_s.size(), run.materialize_s.size(), run.recovery_s.size());
  // Printed, not gated: a maximum over a handful of second-long runs
  // moves with the machine's noise more than any bound allows.
  printf("metric materialize_max_s = %.6g s\n", Max(run.materialize_s));
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"query_p50_ms", Median(run.query_ms), "ms"},
      {"query_tail_ms", query_tail, "ms"},
      {"queries_per_s",
       Ratio(static_cast<double>(run.query_ms.size()),
             Sum(run.query_ms) / 1000.0),
       "1/s"},
      {"materialize_p50_s", Median(run.materialize_s), "s"},
      {"derived_facts_per_s", Median(run.derived_facts_per_s), "1/s"},
      {"update_p50_ms", Median(run.update_ms), "ms"},
      {"update_tail_ms", update_tail, "ms"},
      {"recovery_s", Median(run.recovery_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Run& untraced, const Run& traced,
                             double* min_coverage) {
  auto layer = [&](Layer l) { return traced.layer_ms[l]; };
  auto count = [&](const std::string& name) {
    auto it = traced.counts.find(name);
    return it == traced.counts.end() ? 0.0 : it->second;
  };
  const double reads = count("query.reads");
  const double wal_bytes = count("pathlog_wal_append_bytes_total");
  std::vector<Metric> m = {
      {"bench.gen_ms", layer(kGen), "ms"},
      {"parser.parse_ms", layer(kParser), "ms"},
      {"parser.bytes_per_s",
       Ratio(count("parser.bytes"), layer(kParser) / 1000.0), "B/s"},
      {"store.load_program_ms", layer(kStore), "ms"},
      {"store.recover_ms", layer(kRecover), "ms"},
      {"store.facts", count("store.facts"), "count"},
      {"store.objects", count("store.objects"), "count"},
      {"store.bytes_per_fact",
       Ratio(count("store.bytes"), count("store.facts")), "B"},
      {"store.wal.append_bytes", wal_bytes, "B"},
      {"store.wal.fsyncs", count("pathlog_wal_fsyncs_total"), "count"},
      {"store.wal.bytes_per_user_byte",
       Ratio(wal_bytes + count("store.wal.snapshot_bytes"),
             count("store.user_bytes")),
       "ratio"},
      {"store.wal.checkpoint_ms", layer(kWal), "ms"},
      {"store.wal.checkpoints", count("pathlog_checkpoints_total"), "count"},
      {"eval.engine.materialize_ms", layer(kEngine), "ms"},
      {"eval.engine.iterations", count("eval.engine.iterations"), "count"},
      {"eval.engine.rule_evaluations", count("eval.engine.rule_evaluations"),
       "count"},
      {"eval.engine.delta_passes", count("eval.engine.delta_passes"), "count"},
      {"eval.engine.derivations", count("eval.engine.derivations"), "count"},
      {"eval.engine.facts_added", count("eval.engine.facts_added"), "count"},
      {"eval.engine.useful_ratio",
       Ratio(count("eval.engine.facts_added"),
             count("eval.engine.derivations")),
       "ratio"},
      {"eval.ref_eval.inverted_probes",
       Ratio(count("eval.ref_eval.inverted_probes"), reads), "count"},
      {"eval.ref_eval.extent_scans",
       Ratio(count("eval.ref_eval.extent_scans"), reads), "count"},
      {"eval.ref_eval.universe_scans",
       Ratio(count("eval.ref_eval.universe_scans"), reads), "count"},
      {"query.planner.plan_us",
       Ratio(layer(kPlanner) * 1000.0, count("query.planner.calls")),
       "us"},
      {"query.database.exec_ms", Ratio(layer(kDatabase), reads), "ms"},
      {"query.database.rows_per_query", Ratio(count("query.rows"), reads),
       "count"},
  };
  for (const char* family : kFamilies) {
    auto it = traced.family_ms.find(family);
    const double ms = it == traced.family_ms.end()
                          ? 0.0
                          : it->second.first /
                                static_cast<double>(it->second.second);
    m.push_back({std::string("query.family.") + family + "_ms", ms, "ms"});
  }
  m.push_back({"active.fire_ms", layer(kActive), "ms"});
  m.push_back({"active.firings", count("active.firings"), "count"});
  m.push_back({"active.rounds", count("active.rounds"), "count"});
  // Tracing overhead over the loop's ops; setup and recovery are left
  // out because the first pass also pays the process's cold start.
  double traced_ms = 0;
  double untraced_ms = 0;
  for (const auto& [op, lw] : traced.coverage) {
    if (op == "setup" || op == "recovery") continue;
    traced_ms += lw.second;
    auto it = untraced.coverage.find(op);
    if (it != untraced.coverage.end()) untraced_ms += it->second.second;
  }
  m.push_back({"obs.trace_overhead_pct",
               (Ratio(traced_ms, untraced_ms) - 1.0) * 100.0, "%"});
  *min_coverage = 100.0;
  for (const auto& [op, lw] : traced.coverage) {
    const double pct = Ratio(lw.first, lw.second) * 100.0;
    printf("coverage %s %.2f%% of %.3f ms\n", op.c_str(), pct, lw.second);
    *min_coverage = std::min(*min_coverage, pct);
  }
  m.push_back({"obs.coverage_min_pct", *min_coverage, "%"});
  // Every count the traced window produced, for the determinism test.
  for (const auto& [name, value] : traced.counts) {
    printf("count %s %.17g\n", name.c_str(), value);
  }
  return m;
}

void PrintJson(bool correct, const Run& run, const std::vector<Metric>& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char value[64];
    snprintf(value, sizeof value, "%.17g", m[i].value);
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
}

int Usage() {
  fprintf(stderr,
          "usage: pathbench --workload NAME --seed N --seconds S "
          "--trace 0|1 --workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string workdir;
  Plan plan;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      plan.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      plan.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || workdir.empty() || plan.seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (std::string(PATHBENCH_BUILD_TYPE) != "Release") {
    fprintf(stderr, "pathbench: refusing to report from a %s build\n",
            PATHBENCH_BUILD_TYPE);
    return 3;
  }
  std::filesystem::create_directories(workdir);
  plan.workdir = workdir;
  plan.setup_reps = w->setup_reps;
  plan.recovery_reps = w->recovery_reps;
  printf("workload %s seed %llu build %s\n", w->name,
         static_cast<unsigned long long>(plan.seed), PATHBENCH_BUILD_TYPE);

  Run run;
  std::vector<Metric> metrics;
  bool correct = true;
  if (trace == 0) {
    w->run(plan, &run);
    metrics = EndToEnd(run);
  } else {
    // The same window twice: untraced, then traced. Counts come from the
    // traced pass; the wall-time ratio is the tracing overhead.
    plan.setup_reps = 1;
    plan.recovery_reps = 1;
    plan.window = w->window;
    Run untraced;
    w->run(plan, &untraced);
    plan.traced = true;
    w->run(plan, &run);
    run.attempted += untraced.attempted;
    run.failed += untraced.failed;
    run.failures.insert(run.failures.end(), untraced.failures.begin(),
                        untraced.failures.end());
    double min_coverage = 0;
    metrics = PerLayer(untraced, run, &min_coverage);
    if (min_coverage < 95.0) {
      printf("FAIL layer times cover only %.2f%% of an operation\n",
             min_coverage);
      correct = false;
    }
  }
  for (const std::string& f : run.failures) printf("FAIL %s\n", f.c_str());
  for (const Metric& m : metrics) {
    printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      run.attempted > 0 ? static_cast<double>(run.failed) /
                              static_cast<double>(run.attempted)
                        : 1.0;
  printf("metric error_rate = %.6g ratio (%llu of %llu operations)\n",
         error_rate, static_cast<unsigned long long>(run.failed),
         static_cast<unsigned long long>(run.attempted));
  correct = correct && run.failed == 0 && run.attempted > 0;
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  PrintJson(correct, run, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pathbench

int main(int argc, char** argv) { return pathbench::Main(argc, argv); }
