#include "calibrate.h"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <memory>
#include <system_error>
#include <vector>

// glibc names the thread-id field of a SIGEV_THREAD_ID sigevent only in
// newer versions.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace perfbench {
namespace {

// The memory kernel's table, 32 MB: far larger than the L2, so the kernel
// misses it whether it runs after the simulator or after another probe.  (A
// 4 MB table ran 23 % slower inside a fig8_capacity run than between cases;
// this one runs 6-11 % slower.)
constexpr std::size_t kMemoryWords = std::size_t{1} << 22;
constexpr int kMemorySteps = 50000;
// The core kernel's table, 64 KB: it stays in the L1 and L2.
constexpr std::size_t kCoreWords = std::size_t{1} << 13;
constexpr int kCoreSteps = 100000;
constexpr std::size_t kAltStackBytes = 64 * 1024;

// The probe's state.  The signal handler touches it only while a window's
// timer runs, and the thread itself only while it does not, so the two never
// interleave.
std::vector<std::uint64_t> g_memory_table;
std::vector<std::uint64_t> g_core_table;
std::uint64_t g_rng = 0x9E3779B97F4A7C15ull;
volatile std::uint64_t g_sink = 0;

// The window's periodic probes: both kernels together, and each apart.
std::atomic<std::uint64_t> g_window_ns{0};
std::atomic<std::uint64_t> g_window_memory_ns{0};
std::atomic<std::uint64_t> g_window_core_ns{0};
std::atomic<std::uint64_t> g_window_probes{0};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Data-dependent read-modify-writes at random slots of `table`, whose size
/// is a power of two; returns the host nanoseconds they took.
std::uint64_t kernel_ns(std::vector<std::uint64_t>& table, int steps) {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t mask = table.size() - 1;
  std::uint64_t x = g_rng;
  std::uint64_t sum = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t r = xorshift(x);
    std::uint64_t& e = table[(r * 0x9E3779B97F4A7C15ull >> 40) & mask];
    if ((e ^ r) & 1) {
      e += r >> 3;
    } else {
      sum += e;
      e ^= static_cast<std::uint64_t>(i);
    }
  }
  g_rng = x;
  g_sink = sum;
  return now_ns() - t0;
}

struct ProbeNs {
  std::uint64_t memory = 0;
  std::uint64_t core = 0;
};

/// One probe: the memory kernel, then the core kernel.  Async-signal-safe:
/// no allocation, no locks.
ProbeNs probe() {
  ProbeNs p;
  p.memory = kernel_ns(g_memory_table, kMemorySteps);
  p.core = kernel_ns(g_core_table, kCoreSteps);
  return p;
}

void on_timer(int) {
  const int saved_errno = errno;
  const ProbeNs p = probe();
  g_window_ns.fetch_add(p.memory + p.core, std::memory_order_relaxed);
  g_window_memory_ns.fetch_add(p.memory, std::memory_order_relaxed);
  g_window_core_ns.fetch_add(p.core, std::memory_order_relaxed);
  g_window_probes.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

[[noreturn]] void fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

struct Installed {
  std::vector<char> alt_stack;
  stack_t old_alt_stack{};
  struct sigaction old_action {};
  timer_t timer{};
  ProbeNs opening;
};
Installed* g_installed = nullptr;

void arm(long ms) {
  itimerspec its{};
  its.it_value.tv_sec = ms / 1000;
  its.it_value.tv_nsec = (ms % 1000) * 1000000;
  its.it_interval = its.it_value;
  if (timer_settime(g_installed->timer, 0, &its, nullptr) != 0) {
    fail("timer_settime");
  }
}

}  // namespace

SpeedProbe::SpeedProbe() {
  if (g_installed != nullptr) {
    errno = EBUSY;
    fail("SpeedProbe");
  }
  g_memory_table.assign(kMemoryWords, 0);
  g_core_table.assign(kCoreWords, 0);
  for (int i = 0; i < 8; ++i) probe();  // page in and warm up

  auto inst = std::make_unique<Installed>();
  inst->alt_stack.resize(kAltStackBytes);
  // The handler runs on its own stack, whatever fiber stack the thread is on
  // when the timer fires.
  stack_t ss{};
  ss.ss_sp = inst->alt_stack.data();
  ss.ss_size = inst->alt_stack.size();
  if (sigaltstack(&ss, &inst->old_alt_stack) != 0) fail("sigaltstack");
  struct sigaction sa {};
  sa.sa_handler = on_timer;
  sa.sa_flags = SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGRTMIN, &sa, &inst->old_action) != 0) fail("sigaction");
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGRTMIN;
  sev.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &inst->timer) != 0) {
    fail("timer_create");
  }
  g_installed = inst.release();
}

SpeedProbe::~SpeedProbe() {
  timer_delete(g_installed->timer);
  sigaction(SIGRTMIN, &g_installed->old_action, nullptr);
  sigaltstack(&g_installed->old_alt_stack, nullptr);
  delete g_installed;
  g_installed = nullptr;
}

void SpeedProbe::open() {
  for (auto* total : {&g_window_ns, &g_window_memory_ns, &g_window_core_ns,
                      &g_window_probes}) {
    total->store(0, std::memory_order_relaxed);
  }
  g_installed->opening = probe();
  arm(kPeriodMs);
}

double SpeedProbe::in_window_s() const {
  return static_cast<double>(g_window_ns.load(std::memory_order_relaxed)) *
         1e-9;
}

double SpeedProbe::close() {
  // Any signal the timer raised before it stopped is delivered before
  // timer_settime returns, so the window's totals are final after this.
  arm(0);
  const ProbeNs& opening = g_installed->opening;
  const ProbeNs closing = probe();
  const double probes =
      static_cast<double>(g_window_probes.load(std::memory_order_relaxed)) + 2;
  const auto mean_s = [probes](const std::atomic<std::uint64_t>& window,
                               std::uint64_t ends_ns) {
    return static_cast<double>(window.load(std::memory_order_relaxed) +
                               ends_ns) *
           1e-9 / probes;
  };
  const double memory_speed =
      kNominalMemoryProbeS /
      mean_s(g_window_memory_ns, opening.memory + closing.memory);
  const double core_speed =
      kNominalCoreProbeS / mean_s(g_window_core_ns, opening.core + closing.core);
  return std::sqrt(memory_speed * core_speed);
}

}  // namespace perfbench
