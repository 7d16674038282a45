#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void report_accounting(double accounted, Report& report) {
  report.set("trace.accounted_frac", accounted, "ratio");
  if (accounted < kAccountedFloor) {
    std::fprintf(stderr,
                 "perfbench: per-layer self times account for only %.1f%% of "
                 "the end-to-end time (floor %.0f%%)\n",
                 accounted * 100.0, kAccountedFloor * 100.0);
  }
}

namespace {

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
  const double n = static_cast<double>(values.size());
  if (n < 20.0) {
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
  }
  return quantile(std::move(values), std::min(0.99, 1.0 - 10.0 / n));
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  pvc::ensure(in.good(), "cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double proc_status(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

double cpu_seconds(int pid) {
  if (pid == 0) {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto s = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return s(usage.ru_utime) + s(usage.ru_stime);
  }
  // Fields 14 and 15 of /proc/<pid>/stat, after the parenthesised name.
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ThreadPeak::ThreadPeak(int pid) : pid_(pid) {
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      const double n = proc_status(pid_, "Threads");
      if (n > peak_.load()) {
        peak_.store(n);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ThreadPeak::~ThreadPeak() { stop(); }

double ThreadPeak::stop() {
  if (sampler_.joinable()) {
    stop_.store(true);
    sampler_.join();
  }
  return pid_ == 0 ? peak_.load() - 1.0 : peak_.load();
}

QuietStdout::QuietStdout() {
  std::fflush(stdout);
  saved_ = ::dup(STDOUT_FILENO);
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDOUT_FILENO);
    ::close(null_fd);
  }
}

QuietStdout::~QuietStdout() {
  std::fflush(stdout);
  if (saved_ >= 0) {
    ::dup2(saved_, STDOUT_FILENO);
    ::close(saved_);
  }
}

Tracer::Scope::Scope(Tracer* tracer, const std::string& name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ != nullptr) {
    index_ = static_cast<int>(tracer_->spans_.size());
    const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    tracer_->spans_.push_back(Span{
        name,
        std::chrono::duration<double>(start_ - tracer_->origin_).count(), 0.0,
        parent});
    tracer_->open_.push_back(index_);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
        seconds_since(tracer_->origin_);
    tracer_->open_.pop_back();
  }
}

std::map<std::string, double> Tracer::layer_self_seconds(int root) const {
  std::map<std::string, double> layers;
  std::vector<double> child_s(spans_.size(), 0.0);
  std::vector<bool> inside(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    inside[i] = static_cast<int>(i) == root ||
                (parent >= 0 && inside[static_cast<std::size_t>(parent)]);
    if (inside[i] && parent >= 0 && static_cast<int>(i) != root) {
      child_s[static_cast<std::size_t>(parent)] +=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!inside[i]) {
      continue;
    }
    const Span& s = spans_[i];
    const std::string layer = static_cast<int>(i) == root
                                  ? "driver"
                                  : s.name.substr(0, s.name.find('.'));
    layers[layer] += s.end_s - s.start_s - child_s[i];
  }
  return layers;
}

int Tracer::last_root(const std::string& name) const {
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].parent < 0 && spans_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\"," << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
