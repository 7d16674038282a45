#pragma once
// Shared plumbing of the benchmark driver (README.md in this directory):
// the run options, the result being assembled, statistics, digests,
// /proc probes and the in-memory span tracer of the traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options (`--workload --seed --seconds --trace`) plus
/// the locations the build baked in.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
  std::string work_dir;       ///< per-run scratch directory (removed at exit)
  std::string expected_path;  ///< recorded artifact digests
};

/// What one run measured: the metrics printed on the result line plus
/// the operation tally behind `attempted`/`failed`.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; a false `ok` is a failure, reported on stderr.
  void check(bool ok, const std::string& what);
};

/// Runs `set_up` at least 5 and at most 200 times, until 0.1 s is spent,
/// and returns the median seconds of one call.  Set-up work is short, so
/// a single call's time is mostly noise; the state of the last call is
/// what the workload then uses.
template <typename F>
[[nodiscard]] double median_setup_s(F&& set_up);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: q = min(0.99, 1 - 10/n).  Below 20 samples that percentile would
/// not be above the median, so the maximum is the tail.
[[nodiscard]] double tail(std::vector<double> values);

/// 64-bit FNV-1a of `bytes`, as 16 lowercase hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

/// Reads a whole file; throws pvc::Error when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// A field of /proc/<pid>/status ("VmHWM", "Threads"), as a number in
/// the file's unit (kB for memory); pid 0 reads this process.
[[nodiscard]] double proc_status(int pid, const std::string& field);

/// User plus system CPU seconds a process has used so far, all its
/// threads (exited ones too); pid 0 is this process.
[[nodiscard]] double cpu_seconds(int pid);

/// Samples the thread count of a process every millisecond on a
/// background thread until stop(); peak() is the largest count seen.
class ThreadPeak {
 public:
  explicit ThreadPeak(int pid);
  ~ThreadPeak();
  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;

  /// Stops sampling and returns the peak.  For this process the
  /// sampler's own thread is not counted.
  double stop();

 private:
  int pid_;
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0.0};
  std::thread sampler_;
};

/// Points stdout at /dev/null for its lifetime, so the bench tables the
/// entries print never interleave with the driver's result line.
class QuietStdout {
 public:
  QuietStdout();
  ~QuietStdout();
  QuietStdout(const QuietStdout&) = delete;
  QuietStdout& operator=(const QuietStdout&) = delete;

 private:
  int saved_ = -1;
};

/// Spans of the traced run, recorded on the driver's main thread around
/// its calls into the program's modules and kept in memory until the
/// end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span began.
    [[nodiscard]] double elapsed() const { return seconds_since(start_); }

   private:
    Tracer* tracer_;
    int index_ = -1;
    Clock::time_point start_;
  };

  /// Self time of every span under the root span `root`: its duration
  /// minus the part its direct children cover, summed per layer (the
  /// span name up to the first '.').  The root's own self time is
  /// reported under "driver".
  [[nodiscard]] std::map<std::string, double> layer_self_seconds(
      int root) const;

  /// Index of the last root span called `name`, or -1.
  [[nodiscard]] int last_root(const std::string& name) const;

  /// Writes the spans as Chrome/Perfetto trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

template <typename F>
double median_setup_s(F&& set_up) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 5 || (total < 0.1 && seconds.size() < 200)) {
    const auto start = Clock::now();
    set_up();
    seconds.push_back(seconds_since(start));
    total += seconds.back();
  }
  return median(std::move(seconds));
}

/// The three workloads.  Each fills `report` with every end-to-end
/// metric (untraced run) or every per-layer metric it measures (traced
/// run, `tracer` non-null).
void run_artifacts(const Options& options, Report& report, Tracer* tracer);
void run_cluster_des(const Options& options, Report& report, Tracer* tracer);
void run_serve_mix(const Options& options, Report& report, Tracer* tracer);

/// Reports the share of the traced end-to-end time the per-layer self
/// times account for; below kAccountedFloor the gap is called out on
/// stderr.
constexpr double kAccountedFloor = 0.95;
void report_accounting(double accounted, Report& report);

/// Writes the digests of one threads=1 artifacts regeneration to `path`
/// (the expectation later runs are checked against).
void record_artifacts(const Options& options, const std::string& path);

}  // namespace perfbench
