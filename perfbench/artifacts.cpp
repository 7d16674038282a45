// Workload `artifacts`: regenerate all 16 paper tables and figures
// in-process through the bench registry, the way a reader of the paper
// does, and check every CSV and metrics file against recorded digests.
//
// Every entry that accepts `threads=` runs at threads=nproc; the digests
// were recorded at threads=1 (--record), so a match also proves the
// parallel output equals the serial one.  There is no randomness here:
// the seed changes nothing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/systems.hpp"
#include "bench_entry.hpp"
#include "common.hpp"
#include "core/error.hpp"
#include "kernels/pointer_chase.hpp"
#include "micro/microbench.hpp"
#include "micro/paper_reference.hpp"
#include "micro/table_results.hpp"
#include "obs/metrics.hpp"
#include "sim/cache_model.hpp"

namespace perfbench {
namespace {

/// The three entries whose option lists reject `threads=`.
bool accepts_threads(const std::string& name) {
  return name != "table2_microbench" && name != "table4_refspecs" &&
         name != "roofline_analysis";
}

/// One regeneration: the outputs land in `dir` as <entry>.csv and
/// <entry>.metrics.csv.
struct Job {
  const pvcbench::BenchEntry* entry = nullptr;
  std::vector<std::string> args;
};

std::vector<Job> jobs_for(const std::string& dir, int threads) {
  std::vector<Job> jobs;
  for (const pvcbench::BenchEntry& entry : pvcbench::bench_entries()) {
    Job job{&entry, {"csv=" + dir + "/" + entry.name + ".csv",
                     "metrics=" + dir + "/" + entry.name + ".metrics.csv"}};
    if (accepts_threads(entry.name)) {
      job.args.push_back("threads=" + std::to_string(threads));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Recorded digests, one "<file> <digest>" line each.
std::map<std::string, std::string> load_expected(const std::string& path) {
  std::map<std::string, std::string> expected;
  std::istringstream in(read_file(path));
  std::string file;
  std::string hex;
  while (in >> file >> hex) {
    expected[file] = hex;
  }
  return expected;
}

/// Runs every job once under its own metrics registry and returns the
/// per-entry wall-clock in ms; a non-zero exit or an exception fails the
/// entry.
std::vector<double> regenerate(const std::vector<Job>& jobs, Report& report,
                               Tracer* tracer) {
  std::vector<double> entry_ms;
  for (const Job& job : jobs) {
    const std::string name = job.entry->name;
    Tracer::Scope span(tracer, "bench." + name);
    int rc = -1;
    std::string error;
    {
      QuietStdout quiet;
      pvc::obs::Registry registry;
      pvc::obs::ScopedRegistry scope(registry);
      try {
        rc = pvcbench::run_bench_entry(*job.entry, job.args);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    entry_ms.push_back(span.elapsed() * 1e3);
    report.check(rc == 0, name + " exited with " + std::to_string(rc) + " " +
                              error);
  }
  return entry_ms;
}

/// Digests of every output file in `dir`, keyed like the expected file.
std::map<std::string, std::string> digests(const std::vector<Job>& jobs,
                                           const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const Job& job : jobs) {
    for (const std::string suffix : {".csv", ".metrics.csv"}) {
      const std::string file = std::string(job.entry->name) + suffix;
      const std::string path = dir + "/" + file;
      out[file] = std::filesystem::exists(path) ? digest(read_file(path))
                                                : "missing";
    }
  }
  return out;
}

void check_digests(const std::vector<Job>& jobs, const std::string& dir,
                   const std::map<std::string, std::string>& expected,
                   Report& report) {
  for (const auto& [file, hex] : digests(jobs, dir)) {
    const auto it = expected.find(file);
    report.check(it != expected.end() && it->second == hex,
                 file + " digest " + hex + " != recorded " +
                     (it == expected.end() ? "(none)" : it->second));
  }
}

/// |model/paper - 1| in percent for every published cell.
void add_error(std::vector<double>& errors, double model, double paper) {
  if (paper > 0.0) {
    errors.push_back(std::abs(model / paper - 1.0) * 100.0);
  }
}

void add_table2(std::vector<double>& errors,
                const pvc::micro::Table2Reference& m,
                const pvc::micro::Table2Reference& p) {
  using T = pvc::micro::ScopeTriple;
  for (const T pvc::micro::Table2Reference::*row :
       {&pvc::micro::Table2Reference::fp64_peak,
        &pvc::micro::Table2Reference::fp32_peak,
        &pvc::micro::Table2Reference::stream_bw,
        &pvc::micro::Table2Reference::pcie_h2d,
        &pvc::micro::Table2Reference::pcie_d2h,
        &pvc::micro::Table2Reference::pcie_bidir,
        &pvc::micro::Table2Reference::dgemm,
        &pvc::micro::Table2Reference::sgemm,
        &pvc::micro::Table2Reference::hgemm,
        &pvc::micro::Table2Reference::bf16gemm,
        &pvc::micro::Table2Reference::tf32gemm,
        &pvc::micro::Table2Reference::i8gemm,
        &pvc::micro::Table2Reference::fft_1d,
        &pvc::micro::Table2Reference::fft_2d}) {
    add_error(errors, (m.*row).one_stack, (p.*row).one_stack);
    add_error(errors, (m.*row).one_card, (p.*row).one_card);
    add_error(errors, (m.*row).full_node, (p.*row).full_node);
  }
}

void add_table3(std::vector<double>& errors,
                const pvc::micro::Table3Reference& m,
                const pvc::micro::Table3Reference& p) {
  add_error(errors, m.local_uni_one_pair, p.local_uni_one_pair);
  add_error(errors, m.local_bidir_one_pair, p.local_bidir_one_pair);
  add_error(errors, m.local_uni_all_pairs, p.local_uni_all_pairs);
  add_error(errors, m.local_bidir_all_pairs, p.local_bidir_all_pairs);
  using O = std::optional<double> pvc::micro::Table3Reference::*;
  for (const O field : {&pvc::micro::Table3Reference::remote_uni_one_pair,
                        &pvc::micro::Table3Reference::remote_bidir_one_pair,
                        &pvc::micro::Table3Reference::remote_uni_all_pairs,
                        &pvc::micro::Table3Reference::remote_bidir_all_pairs}) {
    if ((m.*field) && (p.*field)) {
      add_error(errors, *(m.*field), *(p.*field));
    }
  }
}

/// Table VI cells from the regenerated CSV (system,app,scope,model,paper;
/// unpublished cells are not numbers and are skipped).
void add_table6(std::vector<double>& errors, const std::string& csv_path) {
  std::istringstream in(read_file(csv_path));
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) {
      cells.push_back(cell);
    }
    if (cells.size() < 5) {
      continue;
    }
    char* end_model = nullptr;
    char* end_paper = nullptr;
    const double model = std::strtod(cells[3].c_str(), &end_model);
    const double paper = std::strtod(cells[4].c_str(), &end_paper);
    if (end_model != cells[3].c_str() && end_paper != cells[4].c_str()) {
      add_error(errors, model, paper);
    }
  }
}

/// The traced run's per-layer calls: kernels + cache model, micro, and
/// the model-vs-paper error.
void trace_layers(const Options& options, Report& report, Tracer* tracer,
                  double pass_ms) {
  double slowest_chase_ms = 0.0;
  double chase_ms_total = 0.0;
  pvc::obs::Registry registry;
  {
    pvc::obs::ScopedRegistry scope(registry);
    for (const pvc::arch::NodeSpec& node : pvc::arch::all_systems()) {
      // fig1's per-system task (micro::measure_latency_curve), called
      // layer by layer so the span covers only chase_simulated.
      pvc::sim::CacheHierarchy hierarchy(
          node.card.subdevice.caches, node.card.subdevice.hbm.latency_cycles);
      const auto footprints = pvc::micro::default_latency_footprints(node);
      Tracer::Scope span(tracer, "kernels.chase_simulated." + node.system_name);
      for (const double footprint : footprints) {
        pvc::kernels::ChaseConfig config;
        config.footprint_bytes = static_cast<std::size_t>(footprint);
        config.coalesced = true;
        const std::size_t nodes = config.footprint_bytes / 64;
        config.steps = std::min<std::uint64_t>(20000, nodes * 4);
        config.warmup_steps = std::min<std::uint64_t>(nodes, 8u << 20);
        const auto run = pvc::kernels::chase_simulated(hierarchy, config);
        report.check(run.avg_latency_cycles > 0.0,
                     "chase_simulated latency on " + node.system_name);
      }
      const double ms = span.elapsed() * 1e3;
      report.set("kernels.chase_simulated." + node.system_name + ".ms", ms,
                 "ms");
      slowest_chase_ms = std::max(slowest_chase_ms, ms);
      chase_ms_total += ms;
    }
  }
  const double accesses =
      registry.snapshot().value("cache.accesses");
  report.set("sim.cache_model.accesses", accesses, "count");
  report.set("sim.cache_model.ns_per_access",
             accesses > 0.0 ? chase_ms_total * 1e6 / accesses : 0.0, "ns");
  // Base: the artifacts pass at threads=nproc; the slowest system is
  // fig1's critical path when its four tasks run in parallel.
  report.set("kernels.chase_simulated.share", slowest_chase_ms / pass_ms,
             "ratio");

  std::vector<double> errors;
  {
    Tracer::Scope span(tracer, "micro.compute_table2");
    add_table2(errors, pvc::micro::compute_table2(pvc::arch::aurora()),
               pvc::micro::table2_aurora());
    add_table2(errors, pvc::micro::compute_table2(pvc::arch::dawn()),
               pvc::micro::table2_dawn());
    report.set("micro.compute_table2.ms", span.elapsed() * 1e3, "ms");
  }
  {
    Tracer::Scope span(tracer, "micro.compute_table3");
    add_table3(errors, pvc::micro::compute_table3(pvc::arch::aurora(), true),
               pvc::micro::table3_aurora());
    add_table3(errors, pvc::micro::compute_table3(pvc::arch::dawn(), false),
               pvc::micro::table3_dawn());
    report.set("micro.compute_table3.ms", span.elapsed() * 1e3, "ms");
  }
  {
    // table2_microbench's three-footprint latency spot check.
    Tracer::Scope span(tracer, "micro.latency_spot");
    const auto curve = pvc::micro::measure_latency_curve(
        pvc::arch::aurora(), true,
        {64.0 * 1024.0, 16.0 * 1024.0 * 1024.0, 512.0 * 1024.0 * 1024.0});
    report.check(curve.size() == 3, "latency spot check");
    report.set("micro.latency_spot.ms", span.elapsed() * 1e3, "ms");
  }
  add_table6(errors, options.work_dir + "/table6_foms.csv");
  report.check(errors.size() > 40, "paper cells found: " +
                                       std::to_string(errors.size()));
  report.set("micro.paper_err_pct", median(errors), "%");
}

}  // namespace

void run_artifacts(const Options& options, Report& report, Tracer* tracer) {
  const std::string& dir = options.work_dir;

  // Set-up: the output directory, the recorded digests, the job list
  // and the four system specs.
  std::map<std::string, std::string> expected;
  std::vector<Job> jobs;
  std::size_t systems = 0;
  const double setup_s = median_setup_s([&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    expected = load_expected(options.expected_path);
    jobs = jobs_for(dir, options.nproc);
    systems = pvc::arch::all_systems().size();
  });
  report.check(systems == 4, "four systems");

  if (tracer == nullptr) {
    // At least three passes, so the median is not a single sample.
    std::vector<double> pass_ms;
    std::vector<double> cpu_ms;
    const auto start = Clock::now();
    while (pass_ms.size() < 3 || seconds_since(start) < options.seconds) {
      const auto pass_start = Clock::now();
      const double cpu_start = cpu_seconds(0);
      regenerate(jobs, report, nullptr);
      cpu_ms.push_back((cpu_seconds(0) - cpu_start) * 1e3);
      pass_ms.push_back(seconds_since(pass_start) * 1e3);
      check_digests(jobs, dir, expected, report);
    }
    report.set("setup_s", setup_s, "s");
    report.set("op_p50_ms", median(pass_ms), "ms");
    report.set("cpu_ms_per_op", median(cpu_ms), "ms");
    report.set("peak_rss_mb", proc_status(0, "VmHWM") / 1024.0, "MiB");
    return;
  }

  // Traced run: a warm-up pass (the first pass of a process runs slower
  // than the rest), one untraced pass for the overhead base, one traced
  // pass for the per-entry spans, then the reference and layer calls.
  regenerate(jobs, report, nullptr);
  check_digests(jobs, dir, expected, report);
  const auto untraced_start = Clock::now();
  regenerate(jobs, report, nullptr);
  const double untraced_ms = seconds_since(untraced_start) * 1e3;
  check_digests(jobs, dir, expected, report);

  std::vector<double> entry_ms;
  double traced_ms = 0.0;
  {
    Tracer::Scope root(tracer, "artifacts");
    entry_ms = regenerate(jobs, report, tracer);
    traced_ms = root.elapsed() * 1e3;
  }
  check_digests(jobs, dir, expected, report);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.set(std::string("bench.") + jobs[i].entry->name + ".ms",
               entry_ms[i], "ms");
  }
  const auto layers = tracer->layer_self_seconds(tracer->last_root("artifacts"));
  const double driver_s = layers.count("driver") ? layers.at("driver") : 0.0;
  report_accounting(1.0 - driver_s * 1e3 / traced_ms, report);
  report.set("trace.overhead_ms", traced_ms - untraced_ms, "ms");

  // fig1 at threads=1: the base of its parallel speedup.
  const auto fig1 = std::find_if(jobs.begin(), jobs.end(), [](const Job& j) {
    return std::string(j.entry->name) == "fig1_latency";
  });
  pvc::ensure(fig1 != jobs.end(), "fig1_latency is not registered");
  Job serial = *fig1;
  serial.args.back() = "threads=1";
  const double t1_ms = regenerate({serial}, report, tracer).front();
  const double tn_ms = entry_ms[static_cast<std::size_t>(fig1 - jobs.begin())];
  report.set("bench.fig1_latency.speedup", t1_ms / tn_ms, "x");
  check_digests({serial}, dir, expected, report);

  trace_layers(options, report, tracer, traced_ms);
}

/// Writes the digests of one threads=1 regeneration (the recorded
/// expectation every later run is checked against).
void record_artifacts(const Options& options, const std::string& path) {
  Report report;
  const auto jobs = jobs_for(options.work_dir, 1);
  regenerate(jobs, report, nullptr);
  pvc::ensure(report.failed == 0, "an entry failed while recording");
  std::ofstream out(path);
  for (const auto& [file, hex] : digests(jobs, options.work_dir)) {
    out << file << " " << hex << "\n";
  }
}

}  // namespace perfbench
