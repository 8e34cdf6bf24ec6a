#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = NearestRank(samples, 0.50);
  s.p99 = NearestRank(samples, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double v) { return v > s.p99; }));
  return s;
}

Clock::time_point Pacer::Due(uint64_t index) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(index) / rate_));
}

uint64_t Pacer::CountWithin(double seconds) const {
  return static_cast<uint64_t>(std::floor(seconds * rate_));
}

CpuSample SampleCpu() {
  CpuSample s;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    double value = 0.0;
    // user nice system idle iowait irq softirq steal [guest...]; guest
    // time is already inside user.
    for (int i = 0; fields >> value && i < 8; ++i) {
      s.total_jiffies += value;
      if (i == 7) s.steal_jiffies = value;
    }
  }
  s.process_cpu_s = ProcessCpuSeconds();
  return s;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double StealPct(const CpuSample& a, const CpuSample& b) {
  const double total = b.total_jiffies - a.total_jiffies;
  return total > 0.0 ? 100.0 * (b.steal_jiffies - a.steal_jiffies) / total
                     : 0.0;
}

namespace {
std::atomic<uint64_t> probe_sink{0};  // Keeps the probe's work observable.
}  // namespace

uint64_t SpeedProbeWork() {
  Rng rng(0x5eed);
  uint64_t sum = 0;
  std::map<uint64_t, uint64_t> tree;
  std::vector<uint64_t> values;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t v = rng.Next();
    tree[v % 8192] += v >> 40;
    values.push_back(v >> 11);
  }
  std::sort(values.begin(), values.end());
  for (const auto& [key, value] : tree) sum += key ^ value;
  std::vector<std::unique_ptr<std::string>> strings;
  for (int i = 0; i < 10000; ++i) {
    strings.push_back(std::make_unique<std::string>(
        16 + rng.Below(64), static_cast<char>('a' + i % 26)));
    if (rng.Below(3) == 0) strings[rng.Below(strings.size())].reset();
  }
  for (const auto& str : strings) sum += str ? str->size() : 1;
  return sum + values[values.size() / 2];
}

double SpeedMeter::Probe() {
  const double cpu0 = ProcessCpuSeconds();
  double took = 0.0;
  std::thread probe([&took] {
    // The first pass faults in the thread's heap; the second is timed.
    probe_sink.fetch_add(SpeedProbeWork(), std::memory_order_relaxed);
    const double start = ThreadCpuSeconds();
    probe_sink.fetch_add(SpeedProbeWork(), std::memory_order_relaxed);
    took = ThreadCpuSeconds() - start;
  });
  probe.join();
  spent_s_ += ProcessCpuSeconds() - cpu0;
  sum_ += took;
  ++readings_;
  return took;
}

double SpeedMeter::Mean() const {
  return readings_ > 0 ? sum_ / readings_ : kProbeReferenceS;
}

HttpClient::HttpClient(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

HttpReply HttpClient::RoundTrip(const std::string& wire) {
  HttpReply reply;
  if (fd_ < 0) return reply;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return reply;
    sent += static_cast<size_t>(n);
  }
  static constexpr char kLength[] = "Content-Length: ";
  while (true) {
    const size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const size_t at = buffer_.find(kLength);
      if (at == std::string::npos || at > header_end) return reply;
      const size_t length = static_cast<size_t>(
          std::strtoull(buffer_.c_str() + at + sizeof(kLength) - 1, nullptr,
                        10));
      const size_t total = header_end + 4 + length;
      if (buffer_.size() >= total) {
        reply.status = std::atoi(buffer_.c_str() + 9);
        reply.body.assign(buffer_, header_end + 4, length);
        buffer_.erase(0, total);
        return reply;
      }
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ::close(fd_);
      fd_ = -1;
      return reply;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string PostWire(const std::string& path, const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string GetWire(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

bool WaitFor200(uint16_t port, const std::string& path, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    HttpClient client(port);
    if (client.RoundTrip(GetWire(path)).status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

uint64_t Tracer::Begin(const std::string& name, uint64_t parent) {
  spans_.push_back(Span{name, parent, Clock::now(), -1.0});
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  Span& span = spans_[id - 1];
  span.duration_us = MicrosBetween(span.start, Clock::now());
}

uint64_t Tracer::Add(const std::string& name, double duration_us,
                     uint64_t parent) {
  spans_.push_back(Span{name, parent, Clock::now(), duration_us});
  return spans_.size();
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> values;
  for (const Span& s : spans_) {
    if (s.name == name && s.duration_us >= 0.0) values.push_back(s.duration_us);
  }
  return Median(std::move(values));
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::map<uint64_t, double> child_sum;
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.duration_us >= 0.0) {
      child_sum[s.parent] += s.duration_us;
    }
  }
  std::vector<double> values;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.duration_us < 0.0) continue;
    const auto it = child_sum.find(i + 1);
    values.push_back(s.duration_us -
                     (it == child_sum.end() ? 0.0 : it->second));
  }
  return values;
}

double Tracer::MedianSelfUs(const std::string& name) const {
  return Median(SelfTimesUs(name));
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.duration_us >= 0.0) total += s.duration_us;
  }
  return total;
}

double Tracer::TotalSelfUs(const std::string& name) const {
  double total = 0.0;
  for (double v : SelfTimesUs(name)) total += v;
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Result::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

std::string Result::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
