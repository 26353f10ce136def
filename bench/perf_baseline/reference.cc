// The host-speed reference kernel and the helper process that runs it.
#include <fcntl.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace perf {
namespace {

/// xorshift64: the kernel's inputs are the same on every call.
std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Two halves, each like one side of the workloads: ordered-map churn and
/// a sort (small allocations, pointer chasing, branches), then an 8 MiB
/// table filled, hashed and scanned (cache misses, memory bandwidth).
std::uint64_t reference_kernel() {
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int rep = 0; rep < 4; ++rep) {
    std::map<std::uint64_t, std::uint64_t> tree;
    std::vector<std::uint64_t> keys;
    keys.reserve(20'000);
    for (std::uint64_t i = 0; i < 20'000; ++i) {
      const std::uint64_t k = next(x);
      tree[k & 0xfffff] += i;
      keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (const auto& [k, v] : tree) acc += k * v;
    acc += keys[keys.size() / 2];
  }
  std::vector<std::uint64_t> table(1u << 20);
  for (auto& v : table) v = next(x);
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < table.size(); i += 16) {
    ++counts[static_cast<std::uint32_t>(table[i] >> 44)];
  }
  for (const std::uint64_t v : table) {
    acc += v >> 3;
    if ((v & 1) != 0) acc ^= counts.count(static_cast<std::uint32_t>(v >> 44));
  }
  return acc;
}

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read(fd, p, n);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
    } else if (got == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
    } else if (put < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// The helper: for each CPU number it reads, runs the kernel once on that
/// CPU and writes back its nanoseconds. Ends when the pipe closes.
[[noreturn]] void helper_main(int in, int out) {
  const int null_fd = open("/dev/null", O_WRONLY);
  if (null_fd >= 0) dup2(null_fd, STDOUT_FILENO);
  volatile std::uint64_t sink = 0;
  std::int32_t cpu = -1;
  while (read_full(in, &cpu, sizeof cpu)) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    const auto t0 = Clock::now();
    sink = sink + reference_kernel();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count();
    if (!write_full(out, &ns, sizeof ns)) break;
  }
  _exit(0);
}

}  // namespace

HostReference::HostReference() {
  int down[2];
  int up[2];
  if (pipe2(down, O_CLOEXEC) != 0) {
    throw std::runtime_error("host reference: pipe failed");
  }
  if (pipe2(up, O_CLOEXEC) != 0) {
    close(down[0]);
    close(down[1]);
    throw std::runtime_error("host reference: pipe failed");
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(down[1]);
    close(up[0]);
    helper_main(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  if (pid < 0) {
    close(down[1]);
    close(up[0]);
    throw std::runtime_error("host reference: fork failed");
  }
  to_helper_ = down[1];
  from_helper_ = up[0];
  pid_ = pid;
}

HostReference::~HostReference() {
  close(to_helper_);
  close(from_helper_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostReference::seconds() {
  const std::int32_t cpu = sched_getcpu();
  std::int64_t ns = 0;
  if (!write_full(to_helper_, &cpu, sizeof cpu) ||
      !read_full(from_helper_, &ns, sizeof ns)) {
    throw std::runtime_error("host reference: helper process is gone");
  }
  return static_cast<double>(ns) / 1e9;
}

HostClock::HostClock(HostReference& ref) : ref_(ref) {
  ref_.seconds();  // the helper's first run pays for its cold start
}

void HostClock::begin() { before_s_ = ref_.seconds(); }

double HostClock::nominal(double wall_s) {
  const double after_s = ref_.seconds();
  const double factor = (before_s_ + after_s) / 2.0 / kReferenceNominalS;
  before_s_ = after_s;
  factors_.push_back(factor);
  return wall_s / factor;
}

double HostClock::median_factor() const { return median(factors_); }

}  // namespace perf
