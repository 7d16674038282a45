// Workload `cluster_des`: a fixed mix of cluster-scale discrete-event
// scenarios on comm::ClusterComm at shards=nproc, the path where the
// sim engine, flow network and sharded engine, comm/cluster and fault
// do nearly all their work.
//
// The mix puts both sides of the sharding choice in one workload:
//  * alltoall72   72-rank cross-node all-to-all: one connected
//                 component, so the sharded engine takes the spatial path;
//  * halo768      768-rank 24-field row halo: decomposes into per-row
//                 components, the component path;
//  * checkpoint768  768-rank checkpoint_write (per-node islands);
//  * ft_halo      768-rank fault-tolerant halo under a seeded nodedown
//                 with recovery:shrink.
// Message sizes, the checkpoint size and the fault node/time come from
// the seed.  Every result is checked against the shards=0 serial
// oracle and the shards=1 run, each run once per invocation on the same
// inputs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "obs/metrics.hpp"
#include "sim/fabric.hpp"

namespace perfbench {
namespace {

using Message = pvc::comm::ClusterComm::Message;

constexpr double kKiB = 1024.0;
constexpr int kCluster768 = 768;  // 64 Aurora nodes x 12 sub-devices

const char* const kScenarios[] = {"comm.cluster.alltoall72",
                                  "comm.cluster.halo768",
                                  "comm.cluster.checkpoint768",
                                  "fault.ft_halo"};
constexpr std::size_t kScenarioCount = 4;

/// The seeded inputs of one invocation.
struct Inputs {
  std::vector<Message> alltoall;
  std::vector<Message> halo;
  double checkpoint_bytes = 0.0;
  double ft_halo_bytes = 0.0;
  std::string chaos;
};

Inputs make_inputs(std::uint64_t seed) {
  pvc::Rng rng(seed);
  // Sizes jitter in steps of 1/8 so the drains stay multi-level.
  const auto jitter = [&rng] {
    return 1.0 + static_cast<double>(rng.uniform_index(8)) / 8.0;
  };
  Inputs in;
  constexpr int kRanks72 = 72;
  constexpr int kPerNode = 12;
  for (int s = 0; s < kRanks72; ++s) {
    for (int d = 0; d < kRanks72; ++d) {
      // Same-node pairs would split off per-node islands; skipping them
      // keeps the all-to-all one component.
      if (s / kPerNode != d / kPerNode) {
        in.alltoall.push_back({s, d, 64.0 * kKiB * jitter()});
      }
    }
  }
  constexpr int kFields = 24;
  constexpr int kRowRanks = 8 * kPerNode;  // 8 nodes per grid row
  for (int f = 0; f < kFields; ++f) {
    const double bytes = 256.0 * kKiB * jitter();
    for (int r = 0; r < kCluster768; ++r) {
      const int row = r / kRowRanks;
      const int pos = r % kRowRanks;
      in.halo.push_back({r, row * kRowRanks + (pos + kPerNode) % kRowRanks,
                         bytes});
      in.halo.push_back(
          {r, row * kRowRanks + (pos - kPerNode + kRowRanks) % kRowRanks,
           bytes});
    }
  }
  in.checkpoint_bytes = 4.0 * 1024.0 * kKiB * jitter();
  in.ft_halo_bytes = 256.0 * kKiB * jitter();
  const auto node = rng.uniform_index(64);
  const auto at_us = 1 + rng.uniform_index(3);
  in.chaos = "seed:" + std::to_string(seed % 100000) + ";nodedown:node=" +
             std::to_string(node) + ",at=" + std::to_string(at_us) +
             "us;recovery:shrink";
  return in;
}

/// The four clusters one pass consumes (each scenario advances its
/// cluster's simulated clock and fault state, so a pass needs fresh ones).
struct Clusters {
  std::unique_ptr<pvc::comm::ClusterComm> alltoall;
  std::unique_ptr<pvc::comm::ClusterComm> halo;
  std::unique_ptr<pvc::comm::ClusterComm> checkpoint;
  std::unique_ptr<pvc::comm::ClusterComm> ft;
  std::unique_ptr<pvc::fault::Injector> injector;
};

Clusters build(const Inputs& in, int shards) {
  const auto node = pvc::arch::aurora();
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  Clusters c;
  c.alltoall = std::make_unique<pvc::comm::ClusterComm>(node, fabric, 72);
  c.halo = std::make_unique<pvc::comm::ClusterComm>(node, fabric, kCluster768);
  c.checkpoint =
      std::make_unique<pvc::comm::ClusterComm>(node, fabric, kCluster768);
  c.ft = std::make_unique<pvc::comm::ClusterComm>(node, fabric, kCluster768);
  for (auto* cluster : {c.alltoall.get(), c.halo.get(), c.checkpoint.get(),
                        c.ft.get()}) {
    cluster->set_shards(shards);
  }
  c.injector = std::make_unique<pvc::fault::Injector>(
      pvc::fault::FaultPlan::parse(in.chaos));
  c.injector->arm(*c.ft);
  return c;
}

/// One scenario's result: its simulated times, and the exact-match
/// rest (failure and round counts plus the metric counters).
struct Outcome {
  std::vector<double> times;  ///< finish then completions, or elapsed
  std::string counts;         ///< every counter and count
  std::string engine_counts;  ///< those the serial engine keeps alike
};

/// What one pass produced, per scenario.
struct Pass {
  double seconds[kScenarioCount] = {};
  double cpu_seconds = 0.0;  ///< CPU time of every thread over the pass
  Outcome outcome[kScenarioCount];
  pvc::obs::Snapshot metrics[kScenarioCount];
  int recoveries = 0;
};

/// Counters as "name=count;" text.  With `engine_invariant`, leaves out
/// the two the serial and sharded engines count differently by
/// construction: shard.* exists only when sharded, and
/// net.contention_events counts rate re-solves, which the sharded engine
/// runs per component instead of over the whole flow set.
std::string counters(const pvc::obs::Snapshot& snapshot, bool engine_invariant) {
  std::string out;
  for (const auto& s : snapshot.samples) {
    if (s.type != pvc::obs::MetricType::Counter ||
        (engine_invariant && (s.name.rfind("shard.", 0) == 0 ||
                              s.name == "net.contention_events"))) {
      continue;
    }
    out += s.name + "=" + std::to_string(s.count) + ";";
  }
  return out;
}

Pass run_pass(Clusters& c, const Inputs& in, Tracer* tracer) {
  Pass pass;
  const double cpu_start = perfbench::cpu_seconds(0);
  for (std::size_t i = 0; i < kScenarioCount; ++i) {
    pvc::obs::Registry registry;
    pvc::obs::ScopedRegistry scope(registry);
    Outcome& out = pass.outcome[i];
    std::string meta;
    {
      Tracer::Scope span(tracer, kScenarios[i]);
      if (i < 2) {
        auto r = (i == 0 ? c.alltoall : c.halo)
                     ->exchange(i == 0 ? in.alltoall : in.halo);
        out.times = std::move(r.completion_s);
        out.times.push_back(r.finish);
        meta = std::to_string(r.failures);
      } else if (i == 2) {
        out.times.push_back(c.checkpoint->checkpoint_write(in.checkpoint_bytes));
      } else {
        const auto r = pvc::fault::ft_halo_exchange(
            *c.ft, in.ft_halo_bytes, pvc::fault::RecoveryPolicy::Shrink);
        pass.recoveries = r.recoveries;
        out.times.push_back(r.elapsed_s);
        meta = std::to_string(r.rounds_run) + "/" + std::to_string(r.failures) +
               "/" + std::to_string(r.recoveries) + "/" +
               std::to_string(r.participants.size());
      }
      pass.seconds[i] = span.elapsed();
    }
    pass.metrics[i] = registry.snapshot();
    out.counts = meta + "|" + counters(pass.metrics[i], false);
    out.engine_counts = meta + "|" + counters(pass.metrics[i], true);
  }
  pass.cpu_seconds = perfbench::cpu_seconds(0) - cpu_start;
  return pass;
}

double pass_seconds(const Pass& p) {
  double total = 0.0;
  for (const double s : p.seconds) {
    total += s;
  }
  return total;
}

/// Bit-for-bit equality of two time vectors.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Equality within 1e-12 relative: the sharded engine agrees with the
/// serial oracle to solver tolerance, not bit for bit.
bool same_within_tolerance(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::abs(a[k] - b[k]) > 1e-12 * std::max(std::abs(a[k]), std::abs(b[k]))) {
      return false;
    }
  }
  return true;
}

/// The sharded engine promises bit-identical results at every width, and
/// results equal to the serial engine's to solver tolerance with the same
/// engine-invariant counters.
void check_pass(const Pass& pass, const Pass& width1, const Pass& serial,
                Report& report) {
  for (std::size_t i = 0; i < kScenarioCount; ++i) {
    const Outcome& got = pass.outcome[i];
    report.check(same_bits(got.times, width1.outcome[i].times) &&
                     got.counts == width1.outcome[i].counts,
                 std::string(kScenarios[i]) + " differs from shards=1: " +
                     got.counts + " vs " + width1.outcome[i].counts);
    report.check(same_within_tolerance(got.times, serial.outcome[i].times) &&
                     got.engine_counts == serial.outcome[i].engine_counts,
                 std::string(kScenarios[i]) + " differs from the serial oracle: " +
                     got.engine_counts + " vs " + serial.outcome[i].engine_counts);
  }
}

double total(const Pass& pass, const std::string& name) {
  double sum = 0.0;
  for (const auto& snapshot : pass.metrics) {
    sum += static_cast<double>(snapshot.count(name));
  }
  return sum;
}

}  // namespace

void run_cluster_des(const Options& options, Report& report, Tracer* tracer) {
  // Set-up: generate the inputs and build the clusters.
  Inputs in;
  Clusters clusters;
  const double setup_s = median_setup_s([&] {
    in = make_inputs(options.seed);
    clusters = build(in, options.nproc);
  });

  std::vector<Pass> passes;
  bool fresh = true;  // the set-up's clusters are still unused
  const auto measure = [&](double seconds, std::size_t min_passes,
                           Tracer* t) {
    const auto start = Clock::now();
    std::vector<Pass> out;
    while (out.size() < min_passes || seconds_since(start) < seconds) {
      if (!fresh) {
        clusters = build(in, options.nproc);
      }
      fresh = false;
      Tracer::Scope root(t, "cluster_des");
      out.push_back(run_pass(clusters, in, t));
    }
    return out;
  };

  // The references every pass is checked against, run once on the same
  // inputs after the measured passes: the serial engine and width 1.
  Pass serial;
  Pass width1;
  const auto run_references = [&] {
    for (const int shards : {0, 1}) {
      Clusters ref = build(in, shards);
      (shards == 0 ? serial : width1) = run_pass(ref, in, nullptr);
    }
  };

  if (tracer == nullptr) {
    passes = measure(options.seconds, 3, nullptr);
    run_references();
  } else {
    // Untraced passes for the overhead base, then traced ones.
    const std::vector<Pass> untraced = measure(0.0, 3, nullptr);
    passes = untraced;
    ThreadPeak threads(0);
    const std::vector<Pass> traced = measure(0.0, 3, tracer);
    report.set("proc.threads_peak", threads.stop(), "count");
    passes.insert(passes.end(), traced.begin(), traced.end());
    run_references();

    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    for (const Pass& p : untraced) {
      untraced_ms.push_back(pass_seconds(p) * 1e3);
    }
    for (const Pass& p : traced) {
      traced_ms.push_back(pass_seconds(p) * 1e3);
    }
    report.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms),
               "ms");
    const auto layers =
        tracer->layer_self_seconds(tracer->last_root("cluster_des"));
    const double driver_s = layers.count("driver") ? layers.at("driver") : 0.0;
    report_accounting(1.0 - driver_s * 1e3 / traced_ms.back(), report);

    const char* const names[] = {"alltoall72", "halo768", "checkpoint768"};
    std::vector<double> scenario_ms[kScenarioCount];
    for (const Pass& p : traced) {
      for (std::size_t i = 0; i < kScenarioCount; ++i) {
        scenario_ms[i].push_back(p.seconds[i] * 1e3);
      }
    }
    for (std::size_t i = 0; i < kScenarioCount; ++i) {
      report.set(std::string(kScenarios[i]) + ".ms", median(scenario_ms[i]),
                 "ms");
    }
    // Bases: the serial engine (shards=0) and the sharded engine at
    // width 1; a ratio above 1 means the shards=nproc run is slower.
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string base = std::string("sim.shard.") + names[i];
      report.set(base + ".vs_serial",
                 median(scenario_ms[i]) / (serial.seconds[i] * 1e3), "ratio");
      report.set(base + ".vs_width1",
                 median(scenario_ms[i]) / (width1.seconds[i] * 1e3), "ratio");
    }
    int bit_mismatches = 0;
    for (std::size_t i = 0; i < kScenarioCount; ++i) {
      bit_mismatches +=
          same_bits(traced.back().outcome[i].times, serial.outcome[i].times) ? 0 : 1;
    }
    report.set("sim.shard.serial_bit_mismatches", bit_mismatches, "count");
    const Pass& last = traced.back();
    const double flows = total(last, "net.flows_completed");
    report.set("net.flows_completed", flows, "count");
    report.set("fabric.messages", total(last, "fabric.messages"), "count");
    report.set("shard.windows", total(last, "shard.windows"), "count");
    report.set("shard.spatial.parallel_solves",
               total(last, "shard.spatial.parallel_solves"), "count");
    report.set("sim.ns_per_flow",
               flows > 0.0 ? pass_seconds(last) * 1e9 / flows : 0.0, "ns");
    report.set("fault.recoveries", last.recoveries, "count");
  }

  std::vector<double> pass_ms;
  std::vector<double> cpu_ms;
  for (const Pass& p : passes) {
    check_pass(p, width1, serial, report);
    report.check(p.recoveries >= 1, "the seeded nodedown forced no recovery");
    pass_ms.push_back(pass_seconds(p) * 1e3);
    cpu_ms.push_back(p.cpu_seconds * 1e3);
  }
  if (tracer == nullptr) {
    report.set("setup_s", setup_s, "s");
    report.set("op_p50_ms", median(pass_ms), "ms");
    report.set("cpu_ms_per_op", median(cpu_ms), "ms");
    report.set("peak_rss_mb", proc_status(0, "VmHWM") / 1024.0, "MiB");
  }
}

}  // namespace perfbench
