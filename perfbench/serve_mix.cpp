// Workload `serve_mix`: the pvcbench_serve daemon under a seeded
// open-loop Poisson load over its Unix socket.
//
// The daemon runs with its default workers and queue, a cache_dir disk
// tier and a memory budget smaller than the hot set, so cache reads,
// writes, evictions and disk hits happen side by side.  The load comes
// from this process through at most nproc (capped at 4) connections:
//  * 65% warm repeats of a fixed hot set (Zipf-skewed);
//  * 30% cold requests with fresh keys: real option variations
//    (system=, chaos= seeds, sim_ranks=) and the request seed, over the
//    benches that compute in about 10 ms or less (see kColdBenches; fig1
//    and table2 belong to the artifacts workload);
//  * 5% malformed requests that must come back as a typed
//    invalid_argument.
// The untraced run holds the nominal rate for its whole length and
// reports the daemon's own latency and CPU time per request; the traced
// run holds it for half and climbs a ladder of rates with the rest.
// Latency counts from each request's due time, so a stalled daemon
// charges the wait to every request queued behind it.  The generator
// waits for a free connection; its own lateness (wake-up after the due
// time with a connection free) is reported, and a run where it fell
// behind is invalid rather than slow.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_entry.hpp"
#include "common.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/capture.hpp"
#include "serve/request.hpp"

namespace perfbench {
namespace {

/// Request classes come in blocks of 20 in seeded order: 13 hot, 6 cold
/// and 1 malformed, so every rung carries the same mix and a short rung
/// does not draw an unlucky run of costly cold requests.
constexpr int kBlock = 20;
constexpr int kHotPerBlock = 13;
constexpr int kColdPerBlock = 6;
constexpr double kNominalRps = 500.0;
constexpr double kLadderStart = 2000.0;  // the first rung above nominal
constexpr double kCoarseStep = 1.5;      // rung to rung until one misses,
constexpr double kFineStep = 1.1;        // then finer from the last that met
constexpr double kRungSeconds = 1.0;
constexpr int kAttempts = 3;  // rungs at one rate before it counts as missed
constexpr double kP99LimitMs = 50.0;
constexpr double kLagLimitMs = 10.0;  // generator lateness that voids a run
/// Memory tier budget: under half of the hot set's ~157 KiB of bodies.
constexpr std::size_t kCacheBytes = 72 * 1024;

/// The benches of the cold set: those that compute in about 10 ms or
/// less.  ablation_model (about 90 ms) is left out with fig1 and table2:
/// one of its requests holds one of the daemon's two workers for a tenth
/// of a ladder rung, and with it in the mix the highest passing rate of
/// one seed differed from another's by 4x.
const char* const kColdBenches[] = {
    "table3_p2p",        "table4_refspecs",   "table6_foms",
    "fig2_aurora_vs_dawn", "fig3_vs_h100",    "fig4_vs_mi250",
    "sweep_msgsize",     "roofline_analysis", "power_report",
    "scaling_sweep",     "chaos_degradation", "scaling_multinode"};

const char* const kSystems[] = {"aurora", "dawn", "jlse-h100", "jlse-mi250"};

/// The fixed hot set: cheap requests with real option variations.
std::vector<std::string> hot_set() {
  std::vector<std::string> hot;
  for (const char* bench : kColdBenches) {
    hot.push_back(std::string("{\"bench\":\"") + bench + "\"}");
  }
  for (const char* system : kSystems) {
    hot.push_back(std::string("{\"bench\":\"sweep_msgsize\",\"config\":"
                              "{\"system\":\"") + system + "\"}}");
  }
  for (const char* ranks : {"96", "192", "384"}) {
    hot.push_back(std::string("{\"bench\":\"scaling_multinode\",\"config\":"
                              "{\"sim_ranks\":\"") + ranks + "\"}}");
  }
  for (int seed = 1; seed <= 5; ++seed) {
    hot.push_back("{\"bench\":\"table6_foms\",\"seed\":" +
                  std::to_string(seed) + "}");
  }
  return hot;
}

/// The `pick`-th cold request for `bench`, with a key no earlier request
/// of this run used.  Option variations cycle with `pick`, so every seed
/// carries the same mix of costs.
std::string cold_request(pvc::Rng& rng, const std::string& bench,
                         std::size_t pick, std::uint64_t unique) {
  std::string config;
  if (bench == "sweep_msgsize") {
    config = std::string("\"system\":\"") +
             kSystems[pick % std::size(kSystems)] + "\"";
  } else if (bench == "scaling_multinode") {
    // sim_ranks 96..768 in steps of 48 on both PVC systems: a spread of
    // costs from about 2 to 17 ms, so the tail percentile falls inside a
    // continuum rather than on the edge between two costs.
    constexpr std::size_t kSteps = 15;
    config = "\"sim_ranks\":\"" + std::to_string(96 + 48 * (pick % kSteps)) +
             "\",\"system\":\"" +
             ((pick / kSteps) % 2 == 0 ? "aurora" : "dawn") + "\"";
  } else if (bench == "chaos_degradation") {
    config = "\"chaos\":\"seed:" + std::to_string(rng.uniform_index(1000000)) +
             ";drop:0.02;retries:max=8,backoff=5us\"";
  }
  return "{\"bench\":\"" + bench + "\"" +
         (config.empty() ? "" : ",\"config\":{" + config + "}") +
         ",\"seed\":" + std::to_string(unique) + "}";
}

/// Seeded shuffle (Fisher-Yates on the benchmark's own generator).
template <typename T>
void shuffle(std::vector<T>& items, pvc::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

/// Requests the service must refuse with invalid_argument.
const char* const kMalformed[] = {
    R"({"bench":"table4_refspecs","config":{"csv":"out.csv"}})",
    R"({"bench":"table4_refspecs","bogus":1})",
    R"({"bench":"table4_refspecs","seed":-1})",
    R"({"bench":"table4_refspecs","config":{"a=b":"1"}})",
    R"({"bench":)"};

enum class Kind { Hot, Cold, Malformed };

struct Request {
  double due_s = 0.0;  ///< offset from the start of its rung
  Kind kind = Kind::Hot;
  std::string line;
};

/// Poisson arrivals at `rate` for `seconds`; classes in shuffled blocks,
/// cold benches cycling through shuffled rounds of the cold set.
std::vector<Request> schedule(pvc::Rng& rng, double rate, double seconds,
                              const std::vector<std::string>& hot,
                              std::uint64_t& unique) {
  // Zipf(1) weights over the hot set.
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(total);
  }
  std::vector<Kind> block;
  std::vector<std::string> cold_round;
  std::map<std::string, std::size_t> cold_picks;
  std::vector<Request> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) {
      return out;
    }
    if (block.empty()) {
      block.assign(kHotPerBlock, Kind::Hot);
      block.insert(block.end(), kColdPerBlock, Kind::Cold);
      block.insert(block.end(), kBlock - kHotPerBlock - kColdPerBlock,
                   Kind::Malformed);
      shuffle(block, rng);
    }
    Request r;
    r.due_s = t;
    r.kind = block.back();
    block.pop_back();
    if (r.kind == Kind::Hot) {
      const double pick = rng.uniform() * total;
      r.line = hot[static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), pick) - cdf.begin())];
    } else if (r.kind == Kind::Cold) {
      if (cold_round.empty()) {
        cold_round.assign(std::begin(kColdBenches), std::end(kColdBenches));
        shuffle(cold_round, rng);
      }
      const std::string& bench = cold_round.back();
      r.line = cold_request(rng, bench, cold_picks[bench]++, unique++);
      cold_round.pop_back();
    } else {
      r.line = kMalformed[rng.uniform_index(std::size(kMalformed))];
    }
    out.push_back(std::move(r));
  }
}

/// One response as the client saw it.
struct Response {
  bool answered = false;  ///< a full header and body arrived in time
  bool ok = false;
  bool cache_hit = false;
  bool disk_hit = false;
  std::string code;
  std::string key;
  double server_us = 0.0;  ///< the header's latency_us
  std::string body;
};

std::string header_field(const std::string& header, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t pos = header.find(tag);
  if (pos == std::string::npos) {
    return "";
  }
  std::size_t begin = pos + tag.size();
  if (header[begin] == '"') {
    ++begin;
    return header.substr(begin, header.find('"', begin) - begin);
  }
  return header.substr(begin, header.find_first_of(",}", begin) - begin);
}

/// Sends one request line on a fresh connection (the protocol carries
/// one request per connection) and reads the header and body.
Response send_request(const std::string& socket_path, const std::string& line) {
  Response r;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return r;
  }
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(),
              std::min(socket_path.size() + 1, sizeof addr.sun_path - 1));
  std::string in;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    char buf[16384];
    std::size_t want = std::string::npos;
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        break;
      }
      in.append(buf, static_cast<std::size_t>(n));
      const std::size_t eol = in.find('\n');
      if (want == std::string::npos && eol != std::string::npos) {
        want = eol + 1 + std::stoull("0" + header_field(in.substr(0, eol),
                                                         "body_bytes"));
      }
      if (want != std::string::npos && in.size() >= want) {
        break;
      }
    }
    if (want != std::string::npos && in.size() == want) {
      const std::string header = in.substr(0, in.find('\n'));
      r.answered = true;
      r.ok = header_field(header, "ok") == "true";
      r.cache_hit = header_field(header, "cache_hit") == "true";
      r.disk_hit = header_field(header, "disk_hit") == "true";
      r.code = header_field(header, "code");
      r.key = header_field(header, "key");
      r.server_us = std::strtod(header_field(header, "latency_us").c_str(),
                                nullptr);
      r.body = in.substr(header.size() + 1);
    }
  }
  ::close(fd);
  return r;
}

/// The daemon process: started in its own directory with a relative
/// socket path (AF_UNIX paths are short), stopped with SIGTERM.
class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& log) {
    std::filesystem::create_directories(dir);
    socket_ = std::filesystem::relative(dir + "/d.sock").string();
    pvc::ensure(socket_.size() < sizeof(sockaddr_un{}.sun_path),
                "socket path too long for AF_UNIX: " + socket_);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      if (::chdir(dir.c_str()) != 0) {
        ::_exit(127);
      }
      const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (out >= 0) {
        ::dup2(out, STDOUT_FILENO);
        ::dup2(out, STDERR_FILENO);
      }
      const std::string bytes = "cache_bytes=" + std::to_string(kCacheBytes);
      char* const argv[] = {const_cast<char*>(PERFBENCH_SERVE_BIN),
                            const_cast<char*>("serve"),
                            const_cast<char*>("socket=d.sock"),
                            const_cast<char*>("cache_dir=cache"),
                            const_cast<char*>(bytes.c_str()), nullptr};
      ::execv(PERFBENCH_SERVE_BIN, argv);
      ::_exit(127);
    }
    pvc::ensure(pid_ > 0, "fork failed");
    // Ready when a connection succeeds.
    const auto start = Clock::now();
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
      const bool up = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof addr) == 0;
      ::close(fd);
      if (up) {
        return;
      }
      int status = 0;
      pvc::ensure(::waitpid(pid_, &status, WNOHANG) == 0,
                  "pvcbench_serve exited during start-up (see " + log + ")");
      pvc::ensure(seconds_since(start) < 30.0, "pvcbench_serve never listened");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// SIGTERM, then SIGKILL if it has not exited within 10 s.
  void stop() {
    if (pid_ <= 0) {
      return;
    }
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  std::string socket_;
};

/// Every body seen per key, so a hit, a disk hit and the first miss of
/// one key must agree byte for byte.
class Bodies {
 public:
  /// False when `body` differs from the body first seen for `key`.
  bool agree(const std::string& key, const std::string& body) {
    const std::string hex = digest(body);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = digests_.emplace(key, hex);
    return inserted || it->second == hex;
  }
  [[nodiscard]] std::optional<std::string> find(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = digests_.find(key);
    return it == digests_.end() ? std::nullopt
                                : std::optional<std::string>(it->second);
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> digests_;
};

/// One request's record.
struct Sample {
  Kind kind = Kind::Hot;
  double due_s = 0.0;  ///< offset from the start of the rung
  std::string line;
  double latency_ms = 0.0;    ///< reply time minus due time
  double send_lag_ms = 0.0;   ///< generator lateness with a connection free
  double transport_us = 0.0;  ///< client time from send minus server time
  Response response;
  bool passed = false;
};

/// Checks one response against the expectations of its class.
bool verify(Sample& s, Bodies& bodies, std::string& why) {
  const Response& r = s.response;
  if (!r.answered) {
    why = "no complete response (timeout or closed connection)";
    return false;
  }
  if (s.kind == Kind::Malformed) {
    why = "malformed request answered ok=" + std::string(r.ok ? "true" : "false") +
          " code=" + r.code;
    return !r.ok && r.code == "invalid_argument";
  }
  if (!r.ok) {
    why = "request failed with code " + r.code;
    return false;
  }
  why = "body differs from the first body of key " + r.key;
  return bodies.agree(r.key, r.body);
}

/// One rung of the ladder: its schedule replayed through `connections`
/// client threads.
struct Rung {
  double rate = 0.0;
  std::vector<Sample> samples;
  double daemon_threads_peak = 0.0;
};

/// `sample_threads` polls the daemon's thread count every millisecond;
/// only the traced run does, since reading /proc/<pid>/status contends
/// with the daemon's thread creation.
Rung run_rung(const Daemon& daemon, std::vector<Request> requests, double rate,
              int connections, bool sample_threads, Bodies& bodies,
              Report& report) {
  Rung rung;
  rung.rate = rate;
  rung.samples.resize(requests.size());
  std::atomic<std::size_t> next{0};
  std::optional<ThreadPeak> daemon_threads;
  if (sample_threads) {
    daemon_threads.emplace(daemon.pid());
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&start](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) {
          return;
        }
        const auto picked = Clock::now();
        const auto due = at(requests[i].due_s);
        // Sleep to just short of the due time, then spin: waking from a
        // sleep is late by tens to hundreds of microseconds, which would
        // be charged to the daemon.
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        const auto sent = Clock::now();
        Sample& s = rung.samples[i];
        s.kind = requests[i].kind;
        s.due_s = requests[i].due_s;
        s.line = std::move(requests[i].line);
        s.response = send_request(daemon.socket(), s.line);
        const auto done = Clock::now();
        const auto ms = [](Clock::duration d) {
          return std::chrono::duration<double, std::milli>(d).count();
        };
        s.latency_ms = ms(done - due);
        s.send_lag_ms = ms(sent - std::max(due, picked));
        s.transport_us = ms(done - sent) * 1e3 - s.response.server_us;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  rung.daemon_threads_peak = daemon_threads ? daemon_threads->stop() : 0.0;
  for (Sample& s : rung.samples) {
    std::string why;
    s.passed = verify(s, bodies, why);
    report.check(s.passed, why + " for " + s.line);
  }
  return rung;
}

std::vector<double> latencies(const Rung& rung) {
  std::vector<double> out;
  for (const Sample& s : rung.samples) {
    out.push_back(s.latency_ms);
  }
  return out;
}

/// A rung meets the limit when nothing failed, its tail latency is under
/// kP99LimitMs and the backlog did not grow: the last third of the
/// requests waited no longer than twice the first third plus 5 ms.
bool meets_limit(const Rung& rung) {
  const std::vector<double> all = latencies(rung);
  const std::size_t third = all.size() / 3;
  const std::vector<double> first(all.begin(), all.begin() + third);
  const std::vector<double> last(all.end() - third, all.end());
  const bool all_passed =
      std::all_of(rung.samples.begin(), rung.samples.end(),
                  [](const Sample& s) { return s.passed; });
  const bool met = all.size() >= 30 && all_passed && tail(all) <= kP99LimitMs &&
                   median(last) <= 2.0 * median(first) + 5.0;
  std::fprintf(stderr,
               "perfbench: rung %.0f req/s: %zu requests, p50 %.3f ms, "
               "tail %.1f ms, first/last third p50 %.3f/%.3f ms -> %s\n",
               rung.rate, all.size(), median(all), tail(all), median(first),
               median(last), met ? "meets the limit" : "misses the limit");
  return met;
}

double generator_lag_ms(const Rung& rung) {
  std::vector<double> lag;
  for (const Sample& s : rung.samples) {
    lag.push_back(s.send_lag_ms);
  }
  return tail(lag);
}

/// The ladder: one-second rungs from kLadderStart in kCoarseStep steps
/// until a rate misses the limit, then kFineStep steps up from the last
/// rate that met it.  A rate misses when its rung misses kAttempts times
/// in a row: a miss can be a stall of the shared host, a sustained
/// overload misses every time.  Returns the achieved rate of the highest
/// rung that met the limit (0 when none did) within `budget_s`.
double max_rate(const Daemon& daemon, pvc::Rng& rng,
                const std::vector<std::string>& hot, std::uint64_t& unique,
                int connections, double budget_s, Bodies& bodies,
                Report& report) {
  const auto start = Clock::now();
  const auto time_left = [&] {
    return seconds_since(start) + kRungSeconds <= budget_s;
  };
  double best = 0.0;
  const auto meets = [&](double rate) {
    for (int attempt = 0; attempt < kAttempts && time_left(); ++attempt) {
      const Rung rung =
          run_rung(daemon, schedule(rng, rate, kRungSeconds, hot, unique), rate,
                   connections, false, bodies, report);
      if (meets_limit(rung)) {
        best = static_cast<double>(rung.samples.size()) / kRungSeconds;
        return true;
      }
    }
    return false;
  };
  double met = kNominalRps;
  double missed = 0.0;
  for (double rate = kLadderStart; missed == 0.0 && time_left();
       rate *= kCoarseStep) {
    (meets(rate) ? met : missed) = rate;
  }
  for (double rate = met * kFineStep; rate < missed && time_left();
       rate *= kFineStep) {
    if (!meets(rate)) {
      break;
    }
  }
  if (missed == 0.0) {
    std::fprintf(stderr, "perfbench: the ladder ran out of time before a rate "
                         "missed the limit\n");
  }
  return best;
}

/// Starts a daemon in a fresh directory and prefills the hot set.
std::unique_ptr<Daemon> start_daemon(const std::string& dir,
                                     const std::vector<std::string>& hot,
                                     Bodies& bodies, Report& report) {
  std::filesystem::remove_all(dir);
  auto daemon = std::make_unique<Daemon>(dir, dir + ".log");
  for (const std::string& line : hot) {
    Sample s;
    s.line = line;
    s.response = send_request(daemon->socket(), line);
    std::string why;
    report.check(verify(s, bodies, why), why + " while prefilling " + line);
  }
  return daemon;
}

/// `pvcbench_serve once` for `line`; its body must equal the daemon's.
void check_once(const Options& options, const std::string& line,
                const std::string& key, Bodies& bodies, Report& report) {
  const std::string out = options.work_dir + "/once.body";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
    }
    const std::string request = "request=" + line;
    const std::string out_arg = "out=" + out;
    char* const argv[] = {const_cast<char*>(PERFBENCH_SERVE_BIN),
                          const_cast<char*>("once"),
                          const_cast<char*>(request.c_str()),
                          const_cast<char*>(out_arg.c_str()), nullptr};
    ::execv(PERFBENCH_SERVE_BIN, argv);
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  const bool exited_ok = pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const auto recorded = bodies.find(key);
  report.check(exited_ok && recorded && std::filesystem::exists(out) &&
                   digest(read_file(out)) == *recorded,
               "pvcbench_serve once body differs for " + line);
}

/// Per-operation microseconds of `op` over `reps` calls, median of 5.
template <typename Op>
double per_op_us(int reps, Op&& op) {
  std::vector<double> runs;
  for (int k = 0; k < 5; ++k) {
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      op(i);
    }
    runs.push_back(seconds_since(start) * 1e6 / reps);
  }
  return median(runs);
}

/// The traced run's in-process calls into the serve module and the
/// bench entries of the cold set.
std::map<std::string, double> trace_serve_layers(
    const Options& options, const std::vector<std::string>& hot,
    Report& report, Tracer* tracer) {
  std::vector<pvc::serve::SweepRequest> parsed;
  {
    Tracer::Scope span(tracer, "serve.parse_request");
    report.set("serve.parse_request.us", per_op_us(200, [&](int i) {
                 const auto& line = hot[static_cast<std::size_t>(i) % hot.size()];
                 if (parsed.size() < hot.size()) {
                   parsed.push_back(pvc::serve::parse_request(line));
                 } else {
                   (void)pvc::serve::parse_request(line);
                 }
               }),
               "us");
  }
  std::vector<std::string> keys;
  {
    Tracer::Scope span(tracer, "serve.content_hash");
    report.set("serve.content_hash.us", per_op_us(200, [&](int i) {
                 const std::string key = pvc::serve::content_hash(
                     parsed[static_cast<std::size_t>(i) % parsed.size()]);
                 if (keys.size() < parsed.size()) {
                   keys.push_back(key);
                 }
               }),
               "us");
  }
  // In-process compute of each cold-set bench at its defaults, the base
  // of the daemon's queue wait.
  std::map<std::string, double> compute_ms;
  for (const char* bench : kColdBenches) {
    const auto request =
        pvc::serve::parse_request(std::string("{\"bench\":\"") + bench + "\"}");
    const pvcbench::BenchEntry* entry = pvcbench::find_bench(bench);
    pvc::ensure(entry != nullptr, std::string("unknown bench ") + bench);
    std::vector<double> runs;
    std::string body;
    for (int k = 0; k < 3; ++k) {
      Tracer::Scope span(tracer, std::string("serve.compute.") + bench);
      QuietStdout quiet;
      pvc::obs::Registry registry;
      pvc::obs::ScopedRegistry scope(registry);
      pvc::serve::ScopedCapture capture;
      const int rc =
          pvcbench::run_bench_entry(*entry, pvc::serve::bench_args(request));
      runs.push_back(span.elapsed() * 1e3);
      report.check(rc == 0 && capture.capture().csv.has_value(),
                   std::string("in-process compute of ") + bench);
    }
    compute_ms[bench] = median(runs);
    report.set(std::string("serve.compute.") + bench + ".ms", compute_ms[bench],
               "ms");
  }
  // The cache tiers on the hot set's keys with a 6 KiB body each.
  const std::string body(6 * 1024, 'x');
  {
    Tracer::Scope span(tracer, "serve.cache.put");
    const std::string dir = options.work_dir + "/put-cache";
    pvc::serve::ResultCache cache(std::size_t{64} << 20, dir);
    report.set("serve.cache.put.us", per_op_us(200, [&](int i) {
                 cache.put(keys[static_cast<std::size_t>(i) % keys.size()], body);
               }),
               "us");
  }
  std::size_t absent = 0;
  const auto get = [&](pvc::serve::ResultCache& cache, int i) {
    absent += cache.get(keys[static_cast<std::size_t>(i) % keys.size()])
                  ? 0
                  : 1;
  };
  {
    Tracer::Scope span(tracer, "serve.cache.get");
    pvc::serve::ResultCache cache(std::size_t{64} << 20);
    for (const std::string& key : keys) {
      cache.put(key, body);
    }
    report.set("serve.cache.get.us",
               per_op_us(2000, [&](int i) { get(cache, i); }), "us");
  }
  {
    Tracer::Scope span(tracer, "serve.cache.get_disk");
    // Memory tier off: every get reads the persisted file.
    pvc::serve::ResultCache cache(0, options.work_dir + "/put-cache");
    report.set("serve.cache.get_disk.us",
               per_op_us(200, [&](int i) { get(cache, i); }), "us");
  }
  report.check(absent == 0, "cache gets found no entry " +
                                std::to_string(absent) + " times");
  return compute_ms;
}

}  // namespace

void run_serve_mix(const Options& options, Report& report, Tracer* tracer) {
  const std::vector<std::string> hot = hot_set();
  const int connections = std::min(4, options.nproc);
  Bodies bodies;

  // Set-up: start the daemon and prefill the hot set, 15 times (each in
  // a fresh directory); the last daemon serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 15; ++i) {
    if (daemon) {
      daemon->stop();
    }
    const auto start = Clock::now();
    daemon = start_daemon(options.work_dir + "/daemon" + std::to_string(i), hot,
                          bodies, report);
    setup_s.push_back(seconds_since(start));
  }

  pvc::Rng rng(options.seed);
  std::uint64_t unique = options.seed * 1000000;
  // The untraced run spends all its time at the nominal rate; the traced
  // run half of it, and climbs the ladder with the other half.
  const double nominal_s = tracer == nullptr ? options.seconds : options.seconds / 2.0;
  const double cpu_start = cpu_seconds(daemon->pid());
  const Rung nominal = run_rung(
      *daemon, schedule(rng, kNominalRps, nominal_s, hot, unique), kNominalRps,
      connections, tracer != nullptr, bodies, report);
  const double cpu_ms_per_request = (cpu_seconds(daemon->pid()) - cpu_start) *
                                    1e3 / static_cast<double>(nominal.samples.size());
  const double lag_ms = generator_lag_ms(nominal);
  report.check(lag_ms <= kLagLimitMs,
               "the load generator fell behind its schedule by " +
                   std::to_string(lag_ms) + " ms: run invalid");

  if (tracer == nullptr) {
    std::vector<double> server_ms;
    for (const Sample& s : nominal.samples) {
      server_ms.push_back(s.response.server_us / 1e3);
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("op_p50_ms", median(server_ms), "ms");
    report.set("cpu_ms_per_op", cpu_ms_per_request, "ms");
    report.set("peak_rss_mb", proc_status(daemon->pid(), "VmHWM") / 1024.0,
               "MiB");
  } else {
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<double> transport_us;
    double disk_hits = 0.0;
    for (const Sample& s : nominal.samples) {
      if (s.response.ok && s.response.cache_hit) {
        hit_ms.push_back(s.latency_ms);
        transport_us.push_back(s.transport_us);
        disk_hits += s.response.disk_hit ? 1.0 : 0.0;
      } else if (s.response.ok) {
        miss_ms.push_back(s.latency_ms);
      }
    }
    const auto hits = static_cast<double>(hit_ms.size());
    report.set("serve.hit_p50_us", median(hit_ms) * 1e3, "us");
    report.set("serve.miss_p50_ms", median(miss_ms), "ms");
    report.set("serve.client_p99_ms", tail(latencies(nominal)), "ms");
    report.set("serve.transport_us", median(transport_us), "us");
    report.set("serve.hit_frac",
               hits / std::max(1.0, hits + static_cast<double>(miss_ms.size())),
               "ratio");
    report.set("serve.disk_hit_frac", disk_hits / std::max(1.0, hits), "ratio");
    report.set("serve.schedule_lag_ms", lag_ms, "ms");
    report.set("serve.daemon.threads_peak", nominal.daemon_threads_peak,
               "count");
    {
      Tracer::Scope span(tracer, "serve.ladder");
      report.set("serve.max_rps",
                 max_rate(*daemon, rng, hot, unique, connections,
                          options.seconds - nominal_s, bodies, report),
                 "1/s");
    }
    const auto compute_ms = trace_serve_layers(options, hot, report, tracer);
    std::vector<double> queue_wait_ms;
    for (const Sample& s : nominal.samples) {
      if (s.response.ok && !s.response.cache_hit) {
        const std::string bench = header_field(s.line, "bench");
        const auto it = compute_ms.find(bench);
        if (it != compute_ms.end()) {
          queue_wait_ms.push_back(s.response.server_us / 1e3 - it->second);
        }
      }
    }
    report.set("serve.queue_wait_ms", median(queue_wait_ms), "ms");
  }

  // Byte equality with `pvcbench_serve once`: every hot request and the
  // first four cold ones.
  std::map<std::string, std::string> probes;  // line -> key
  std::size_t cold_probes = 0;
  for (const Sample& s : nominal.samples) {
    if (s.response.ok && (s.kind == Kind::Hot || cold_probes < 4)) {
      cold_probes += s.kind == Kind::Cold ? 1 : 0;
      probes.emplace(s.line, s.response.key);
    }
  }
  daemon->stop();
  for (const auto& [line, key] : probes) {
    check_once(options, line, key, bodies, report);
  }
}

}  // namespace perfbench
