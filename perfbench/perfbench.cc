// perfbench: host-time benchmark of the simulator on the paper's Fig 7 and
// Fig 8 cases (README.md explains the workloads and the metrics).
//
//   perfbench --workload fig8_rate|fig8_capacity|fig7_fem --seed N
//             --seconds S --trace 0|1
//
// Runs the workload's cases in passes, each case on a fresh Runtime at the
// program's defaults, until S seconds have passed and at least two passes
// are done, so every case's digest is seen again.
// --trace 1 alternates an untraced pass with a traced pass whose memory
// transactions are replayed into a shadow Machine (replay.h).  Host times
// are calibrated for the host's load by a probe kernel (calibrate.h).  The
// last line of stdout is one JSON object with the result; every line before
// it is a human-readable report.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "replay.h"
#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/pdes/window.h"
#include "spp/rt/runtime.h"

namespace {

using namespace spp;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

/// What one application run reports back to the benchmark.
struct Outcome {
  double figure = 0;      ///< the paper's figure value: Mflop/s or updates/us.
  sim::Time sim_time = 0; ///< the app's own simulated run time.
  std::string conservation_error;  ///< empty when the diagnostics conserve.
};

/// One figure case.  `build` constructs the app and its initial conditions on
/// a fresh Runtime and returns the call that runs it (inside Runtime::run).
struct Case {
  std::string name;
  unsigned nodes = 2;  ///< hypernodes; >1 runs the PDES phase engine.
  bool pvm = false;
  std::function<std::function<Outcome()>(rt::Runtime&)> build;
};

// Diagnostics drift allowed in one run.  The tree code conserves momentum
// and energy only to its force error (measured drifts: energy <= 4e-6
// relative, momentum <= 3e-5 over the fig8 cases); the FEM scheme conserves
// mass and energy exactly up to rounding.
constexpr double kNbodyEnergyTol = 1e-4;
constexpr double kNbodyMomentumTol = 1e-3;
constexpr double kFemConservedTol = 1e-10;

/// `has_energy` is false for NbodyPvm, which reports final kinetic energy and
/// momentum only; its initial momentum is zero, as the Plummer load removes
/// the net momentum in both versions.
std::string nbody_conservation(const nbody::NbodyResult& r, bool has_energy) {
  if (!std::isfinite(r.final.kinetic) || r.final.kinetic <= 0) {
    return "final kinetic energy not positive";
  }
  const double dp = std::hypot(r.final.px - r.initial.px,
                               r.final.py - r.initial.py,
                               r.final.pz - r.initial.pz);
  if (!(dp <= kNbodyMomentumTol)) {
    return "momentum drift " + std::to_string(dp);
  }
  if (!has_energy) return {};
  const double e0 = r.initial.kinetic + r.initial.potential;
  const double e1 = r.final.kinetic + r.final.potential;
  if (!(std::abs(e1 - e0) <= kNbodyEnergyTol * std::abs(e0))) {
    return "energy drift " + std::to_string((e1 - e0) / std::abs(e0));
  }
  if (r.final.mass != r.initial.mass) return "mass changed";
  return {};
}

std::string fem_conservation(const fem::FemResult& r) {
  const auto rel = [](double a, double b) {
    return std::abs(a - b) / std::max(std::abs(a), 1e-300);
  };
  if (rel(r.initial.total_mass, r.final.total_mass) > kFemConservedTol) {
    return "mass drift";
  }
  if (rel(r.initial.total_energy, r.final.total_energy) > kFemConservedTol) {
    return "energy drift";
  }
  if (!(r.final.min_density > 0) || !(r.final.min_pressure > 0)) {
    return "non-positive density or pressure";
  }
  return {};
}

Case nbody_case(std::string name, const nbody::NbodyConfig& cfg, unsigned np,
                rt::Placement placement, bool pvm = false) {
  Case c{.name = std::move(name), .nodes = 2, .pvm = pvm, .build = {}};
  c.build = [cfg, np, placement, pvm](rt::Runtime& runtime) {
    std::function<Outcome()> run;
    if (pvm) {
      auto app = std::make_shared<nbody::NbodyPvm>(runtime, cfg, np, placement);
      run = [app, &runtime] {
        nbody::NbodyResult r;
        runtime.run([&] { r = app->run(); });
        return Outcome{r.mflops, r.sim_time, nbody_conservation(r, false)};
      };
    } else {
      auto app =
          std::make_shared<nbody::NbodyShared>(runtime, cfg, np, placement);
      run = [app, &runtime] {
        nbody::NbodyResult r;
        runtime.run([&] { r = app->run(); });
        return Outcome{r.mflops, r.sim_time, nbody_conservation(r, true)};
      };
    }
    return run;
  };
  return c;
}

Case fem_case(std::string name, const fem::FemConfig& cfg, unsigned np) {
  const unsigned nodes = np > 8 ? 2u : 1u;
  Case c{.name = std::move(name), .nodes = nodes, .pvm = false, .build = {}};
  c.build = [cfg, np, nodes](rt::Runtime& runtime) {
    const auto placement =
        nodes > 1 ? rt::Placement::kUniform : rt::Placement::kHighLocality;
    auto app = std::make_shared<fem::FemGas>(runtime, cfg, np, placement);
    app->init_blast(2.0, cfg.nx / 8.0);
    return std::function<Outcome()>([app, &runtime] {
      fem::FemResult r;
      runtime.run([&] { r = app->run(); });
      return Outcome{r.updates_per_usec, r.sim_time, fem_conservation(r)};
    });
  };
  return c;
}

/// A figure value's allowed range, from EXPERIMENTS.md.
struct Band {
  std::string case_name;
  double lo, hi;
  const char* what;
};

/// A figure shape the paper reports: case `less` reads below case `more`,
/// by simulated run time or by figure value.  A failure is charged to the
/// later of the two cases.
struct Shape {
  std::string less, more;
  bool by_sim_time;
  const char* what;
};

struct Workload {
  std::vector<Case> cases;
  std::vector<Band> bands;
  std::vector<Shape> shapes;
};

// Every figure band is +-5 % around its reference value.  The workload seed
// moves the Fig 8 rates by at most 2 % (seeds 0-24: 1-processor 32.99-33.01,
// 16-processor 437.0-450.2 Mflop/s, PVM/shared 1.037-1.075).
constexpr double kBand = 0.05;

// Fig 8 reference points (EXPERIMENTS.md: 33.0 Mflop/s at 1 processor,
// 441 at 16, 4K particles) and section 5.3.2's shared-vs-PVM pair.
Workload fig8_rate(std::uint64_t seed) {
  nbody::NbodyConfig ref;
  ref.n = 4096;
  ref.steps = 1;
  ref.seed = seed;
  nbody::NbodyConfig pair;
  pair.n = 2048;
  pair.steps = 3;
  pair.theta = 1.1;
  pair.seed = seed;
  Workload w;
  w.cases.push_back(
      nbody_case("nbody4k_np1_packed", ref, 1, rt::Placement::kHighLocality));
  w.cases.push_back(
      nbody_case("nbody4k_np16_uniform", ref, 16, rt::Placement::kUniform));
  w.cases.push_back(
      nbody_case("nbody2k_shared_np8", pair, 8, rt::Placement::kUniform));
  w.cases.push_back(nbody_case("nbody2k_pvm_np8", pair, 8,
                               rt::Placement::kUniform, /*pvm=*/true));
  w.bands = {{"nbody4k_np1_packed", 33.0 * (1 - kBand), 33.0 * (1 + kBand),
              "1-processor Mflop/s (EXPERIMENTS.md 33.0)"},
             {"nbody4k_np16_uniform", 441.0 * (1 - kBand),
              441.0 * (1 + kBand), "16-processor Mflop/s (EXPERIMENTS.md 441)"}};
  w.shapes = {{"nbody2k_shared_np8", "nbody2k_pvm_np8", true,
               "PVM version not slower than shared (section 5.3.2)"}};
  return w;
}

// Fig 8's capacity regime: 16K particles overflow the modelled caches, and
// the rate falls far below the paper's 384 Mflop/s (EXPERIMENTS.md's
// "L1-to-problem ratio exaggerates the capacity regime").  EXPERIMENTS.md
// quotes no rate for this size, so the band is around the 117.5 Mflop/s
// bench_nbody prints for it (117.1-118.2 over workload seeds 1-5).
Workload fig8_capacity(std::uint64_t seed) {
  nbody::NbodyConfig cfg;
  cfg.n = 16384;
  cfg.steps = 1;
  cfg.seed = seed;
  Workload w;
  w.cases.push_back(
      nbody_case("nbody16k_np16_uniform", cfg, 16, rt::Placement::kUniform));
  w.bands = {{"nbody16k_np16_uniform", 117.5 * (1 - kBand),
              117.5 * (1 + kBand),
              "16-processor Mflop/s (bench_nbody 117.5)"}};
  return w;
}

// Fig 7 at bench_fem's default size.  The mesh is a fixed periodic grid:
// this workload does not depend on the seed.
Workload fig7_fem() {
  fem::FemConfig small1;
  small1.nx = 64;
  small1.ny = 48;
  small1.steps = 3;
  fem::FemConfig small2 = small1;
  small2.coding = fem::Coding::kRecompute;
  fem::FemConfig large;
  large.nx = 128;
  large.ny = 96;
  large.steps = 2;
  struct Coding {
    const char* name;
    const fem::FemConfig* cfg;
    // EXPERIMENTS.md point updates/us at np = 1, 8, 9, 16.
    double at1, at8, at9, at16;
  };
  const Coding codings[] = {{"small1", &small1, 0.060, 0.334, 0.253, 0.368},
                            {"small2", &small2, 0.064, 0.472, 0.442, 0.720},
                            {"large", &large, 0.042, 0.276, 0.234, 0.353}};
  Workload w;
  for (unsigned np : {1u, 2u, 4u, 8u, 9u, 12u, 16u}) {
    for (const Coding& k : codings) {
      const std::string name = std::string(k.name) + "_np" + std::to_string(np);
      w.cases.push_back(fem_case(name, *k.cfg, np));
      // Listed processor counts get a band around the table value; the
      // others must lie between their listed neighbours.
      double lo = 0, hi = 0;
      switch (np) {
        case 1: lo = hi = k.at1; break;
        case 8: lo = hi = k.at8; break;
        case 9: lo = hi = k.at9; break;
        case 16: lo = hi = k.at16; break;
        case 12: lo = k.at9; hi = k.at16; break;
        default: lo = k.at1; hi = k.at8; break;
      }
      w.bands.push_back({name, lo * (1 - kBand), hi * (1 + kBand),
                         "point updates/us (EXPERIMENTS.md Fig 7)"});
    }
  }
  w.shapes = {{"small1_np9", "small1_np8", false,
               "no 8->9 dip in small1 (Fig 7's non-monotonic scaling)"}};
  return w;
}

// ---------------------------------------------------------------------------
// Running cases
// ---------------------------------------------------------------------------

/// One execution of one case.
struct CaseRun {
  std::string error;  ///< non-empty: the case failed, with the reason.
  // Host times are in reference-host seconds once calibrate() has scaled
  // them (calibrate.h): wall time less the probes taken inside it, times the
  // host speed during the case run raised to the contention exponent.
  // Set-up times are each the median over the case run's set-up trials.
  double runtime_s = 0;  ///< constructing the Runtime.
  double app_s = 0;      ///< constructing the app + initial state.
  double setup_s = 0;    ///< both together.
  double run_s = 0;      ///< host time inside Runtime::run.
  double wall_run_s = 0; ///< run_s before the speed scaling.
  double speed = 0;      ///< host speed over the case run (SpeedProbe).
  std::uint64_t digest = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t ring_packets = 0;  ///< counted by the ring fabric itself.
  sim::Time elapsed = 0;
  arch::PerfCounters perf{0};
  Outcome out;
  // Traced runs only.
  double replay_s = 0;
  std::uint64_t replay_events = 0;
  std::uint64_t replay_mismatches = 0;
};

const char* backend_name(rt::ConductorBackend b) {
  switch (b) {
    case rt::ConductorBackend::kFibers: return "fibers";
    case rt::ConductorBackend::kThreads: return "threads";
    case rt::ConductorBackend::kPdes: return "pdes";
  }
  return "?";
}

const char* memo_name(memo::Mode m) {
  switch (m) {
    case memo::Mode::kOff: return "off";
    case memo::Mode::kOn: return "on";
    case memo::Mode::kVerify: return "verify";
  }
  return "?";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Set-ups an untraced case run makes: each builds a fresh Runtime and app,
// and only the last one runs.  The fig8 set-ups take milliseconds, so one
// sample of them would mostly measure host noise.
constexpr int kSetupTrials = 5;

/// Scales a case run's host times to reference-host seconds: by the host
/// speed during the run, raised to the contention exponent.
void calibrate(CaseRun& r) {
  const double scale =
      std::pow(r.speed, perfbench::SpeedProbe::kContentionExponent);
  r.runtime_s *= scale;
  r.app_s *= scale;
  r.setup_s *= scale;
  r.run_s = r.wall_run_s * scale;
  r.replay_s *= scale;
}

CaseRun run_case(const Case& c, bool traced, perfbench::SpeedProbe& probe,
                 std::uint64_t drop_event = perfbench::ShadowReplay::kNoDrop) {
  CaseRun r;
  // Host seconds `f` takes, less the probes taken while it ran.
  const auto timed = [&probe](auto&& f) {
    const double in_probes = probe.in_window_s();
    const auto t = Clock::now();
    f();
    return since(t) - (probe.in_window_s() - in_probes);
  };
  probe.open();
  try {
    // Declared in this order so the app (held by `run`) goes before its
    // Runtime.
    std::optional<rt::Runtime> runtime;
    std::function<Outcome()> run;
    std::vector<double> runtime_s, app_s, setup_s;
    for (int trial = 0; trial < (traced ? 1 : kSetupTrials); ++trial) {
      run = nullptr;
      runtime.reset();
      runtime_s.push_back(
          timed([&] { runtime.emplace(arch::Topology{.nodes = c.nodes}); }));
      app_s.push_back(timed([&] { run = c.build(*runtime); }));
      setup_s.push_back(runtime_s.back() + app_s.back());
    }
    r.runtime_s = median(runtime_s);
    r.app_s = median(app_s);
    r.setup_s = median(setup_s);

    arch::Machine& m = runtime->machine();
    std::optional<perfbench::ShadowReplay> shadow;
    if (traced) {
      shadow.emplace(m, probe, drop_event);
      m.set_observer(&*shadow);
    }
    try {
      r.wall_run_s = timed([&] { r.out = run(); });
    } catch (...) {
      m.set_observer(nullptr);  // the shadow is destroyed before the machine
      throw;
    }
    if (shadow) {
      m.set_observer(nullptr);
      shadow->finish();
      r.replay_s = shadow->replay_seconds();
      r.replay_events = shadow->events();
      r.replay_mismatches = shadow->mismatches();
    }
    m.fold_shard_counters();
    r.perf = m.perf();
    r.elapsed = runtime->elapsed();
    r.digest = r.perf.digest(r.elapsed);
    r.dispatches = runtime->conductor().progress();
    r.ring_packets = m.rings().packets();
    if (!r.out.conservation_error.empty()) r.error = r.out.conservation_error;
  } catch (const std::exception& e) {
    r.error = std::string("threw: ") + e.what();
  } catch (...) {
    r.error = "threw a non-standard exception";
  }
  r.speed = probe.close();
  calibrate(r);
  return r;
}

using Pass = std::vector<CaseRun>;

Pass run_pass(const Workload& w, bool traced, perfbench::SpeedProbe& probe) {
  Pass p;
  p.reserve(w.cases.size());
  for (const Case& c : w.cases) p.push_back(run_case(c, traced, probe));
  return p;
}

void fail(CaseRun& r, const std::string& why) {
  if (r.error.empty()) r.error = why;
}

std::size_t index_of(const Workload& w, const std::string& name) {
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    if (w.cases[i].name == name) return i;
  }
  std::fprintf(stderr, "perfbench: no case named %s\n", name.c_str());
  std::abort();
}

/// Figure checks across a pass: value bands and the paper's shapes.
void check_figures(const Workload& w, Pass& p) {
  for (const Band& b : w.bands) {
    CaseRun& r = p[index_of(w, b.case_name)];
    if (!(r.out.figure >= b.lo && r.out.figure <= b.hi)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %.4g outside [%.4g, %.4g]", b.what,
                    r.out.figure, b.lo, b.hi);
      fail(r, buf);
    }
  }
  for (const Shape& sh : w.shapes) {
    const std::size_t lo = index_of(w, sh.less);
    const std::size_t hi = index_of(w, sh.more);
    const bool holds = sh.by_sim_time
                           ? p[lo].out.sim_time < p[hi].out.sim_time
                           : p[lo].out.figure < p[hi].out.figure;
    if (!holds) fail(p[std::max(lo, hi)], sh.what);
  }
}

/// Digest checks: every run of a case must digest identically to its first
/// successful run, traced runs included.
void check_digests(const Workload& w, Pass& p,
                   std::vector<std::optional<std::uint64_t>>& first) {
  first.resize(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!p[i].error.empty()) continue;
    if (!first[i]) {
      first[i] = p[i].digest;
    } else if (p[i].digest != *first[i]) {
      fail(p[i], "digest differs from an earlier run of " + w.cases[i].name);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A typical pass's total of `value` over the cases `include` selects: each
/// case's median over `passes`, summed.  On a shared host a slow stretch
/// then costs a case one sample instead of skewing a whole pass.
template <typename Value, typename Include>
double typical(const Workload& w, const std::vector<Pass>& passes,
               Value value, Include include) {
  double total = 0;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    if (!include(w.cases[i])) continue;
    std::vector<double> v;
    v.reserve(passes.size());
    for (const Pass& p : passes) v.push_back(value(p[i]));
    total += median(v);
  }
  return total;
}

template <typename Value>
double typical(const Workload& w, const std::vector<Pass>& passes,
               Value value) {
  return typical(w, passes, value, [](const Case&) { return true; });
}

/// A simulated (or otherwise exactly repeating) quantity summed over a pass.
template <typename Value>
double sum_cases(const Pass& p, Value value) {
  double s = 0;
  for (const CaseRun& r : p) s += value(r);
  return s;
}

double run_s(const CaseRun& r) { return r.run_s; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral = false;
};

std::string json_number(double v, bool integral) {
  char buf[64];
  if (integral) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value, m.integral) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string affinity_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string hex;
  for (int base = 0; base < CPU_SETSIZE; base += 4) {
    int nib = 0;
    for (int b = 0; b < 4; ++b) nib |= CPU_ISSET(base + b, &set) ? 1 << b : 0;
    hex.insert(hex.begin(), "0123456789abcdef"[nib]);
  }
  const auto first = hex.find_first_not_of('0');
  return "0x" + (first == std::string::npos ? "0" : hex.substr(first));
}

void report_pass(const Workload& w, const Pass& p, const char* kind,
                 unsigned index) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const CaseRun& r = p[i];
    std::printf(
        "case %-22s %s%u digest=%016llx sim_ns=%llu figure=%.4f host_s=%.4f "
        "wall_s=%.4f setup_s=%.4f speed=%.3f%s%s\n",
        w.cases[i].name.c_str(), kind, index,
        static_cast<unsigned long long>(r.digest),
        static_cast<unsigned long long>(r.elapsed), r.out.figure, r.run_s,
        r.wall_run_s, r.setup_s, r.speed, r.error.empty() ? "" : " FAILED: ",
        r.error.c_str());
  }
}

std::uint64_t count_failed(const std::vector<Pass>& passes) {
  std::uint64_t n = 0;
  for (const Pass& p : passes) {
    for (const CaseRun& r : p) n += r.error.empty() ? 0 : 1;
  }
  return n;
}

std::uint64_t count_runs(const std::vector<Pass>& passes) {
  std::uint64_t n = 0;
  for (const Pass& p : passes) n += p.size();
  return n;
}

// Passes an untraced run makes even past --seconds, so every case's digest
// is checked against a repeat.
constexpr std::size_t kMinPasses = 2;
// No pass starts once this much host time has gone, so a run on a slow or
// busy host still ends within three minutes.
constexpr double kLastStartS = 100.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0' && v[0] != '-';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0') a.seconds = 0;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed &&
         a.seconds >= 1 && a.seconds <= 600 && a.trace >= 0;
}

std::vector<Metric> end_to_end_metrics(const Workload& w,
                                       const std::vector<Pass>& plain,
                                       std::uint64_t attempted,
                                       std::uint64_t failed) {
  const double host_s = typical(w, plain, run_s);
  const Pass& p = plain.front();
  const double refs = sum_cases(p, [](const CaseRun& r) {
    const arch::CpuCounters t = r.perf.total();
    return static_cast<double>(t.loads + t.stores + t.uncached_ops +
                               t.atomic_ops);
  });
  return {
      {"host_s", host_s, "s"},
      {"setup_s", typical(w, plain, [](const CaseRun& r) { return r.setup_s; }),
       "s"},
      {"maccess_per_s", refs / host_s / 1e6, "M/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"pass_rate",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "fraction"},
  };
}

std::vector<Metric> per_layer_metrics(const Workload& w,
                                      const std::vector<Pass>& plain,
                                      const std::vector<Pass>& traced) {
  // Counters repeat exactly in every pass (the digest checks enforce it).
  const Pass& p = plain.front();
  arch::PerfCounters all(0);
  for (const CaseRun& r : p) {
    all.cpu.insert(all.cpu.end(), r.perf.cpu.begin(), r.perf.cpu.end());
  }
  const arch::CpuCounters t = all.total();
  const auto global = [&p](std::uint64_t arch::PerfCounters::*f) {
    return sum_cases(p, [f](const CaseRun& r) {
      return static_cast<double>(r.perf.*f);
    });
  };
  const auto host_where = [&](auto include) {
    return typical(w, plain, run_s, include);
  };
  // Case classes that only some workloads have (single-hypernode, PVM) read
  // a constant 0 on the others.
  std::uint64_t mismatches = 0;
  for (const Pass& q : traced) {
    for (const CaseRun& r : q) mismatches += r.replay_mismatches;
  }
  // Replay timings are withheld (reported as 0) when the replay diverged.
  const double replay_s =
      mismatches != 0 ? 0
                      : typical(w, traced,
                                [](const CaseRun& r) { return r.replay_s; });
  const double replay_events = sum_cases(traced.front(), [](const CaseRun& r) {
    return static_cast<double>(r.replay_events);
  });
  const auto count = [](std::string name, double v) {
    return Metric{std::move(name), v, "count", true};
  };
  const auto count_of = [&count](std::string name, std::uint64_t v) {
    return count(std::move(name), static_cast<double>(v));
  };
  const auto secs = [](std::string name, double v) {
    return Metric{std::move(name), v, "s", false};
  };
  return {
      count("rt.dispatches", sum_cases(p, [](const CaseRun& r) {
              return static_cast<double>(r.dispatches);
            })),
      secs("rt.engine_host_s",
           host_where([](const Case& c) { return c.nodes > 1; })),
      secs("rt.legacy_host_s",
           host_where([](const Case& c) { return c.nodes == 1; })),
      count_of("arch.accesses", t.loads + t.stores),
      count_of("arch.l1_hits", t.l1_hits),
      count_of("arch.upgrades", t.upgrades),
      count_of("arch.miss_fu_local", t.miss_fu_local),
      count_of("arch.miss_node", t.miss_node),
      count_of("arch.miss_gcache", t.miss_gcache),
      count_of("arch.miss_remote", t.miss_remote),
      count_of("arch.writebacks", t.writebacks),
      count("arch.l1_evictions", global(&arch::PerfCounters::l1_evictions)),
      count("arch.invals_sent", global(&arch::PerfCounters::invals_sent)),
      count_of("arch.uncached_ops", t.uncached_ops),
      count_of("arch.atomic_ops", t.atomic_ops),
      secs("arch.replay_s", replay_s),
      Metric{"arch.replay_ns_per_access",
             replay_events > 0 ? replay_s / replay_events * 1e9 : 0, "ns"},
      count_of("arch.replay_mismatches", mismatches),
      count("sci.ring_packets", sum_cases(p, [](const CaseRun& r) {
              return static_cast<double>(r.ring_packets);
            })),
      count("sci.purges", global(&arch::PerfCounters::sci_purges)),
      count("sci.purge_targets",
            global(&arch::PerfCounters::sci_purge_targets)),
      count("sci.gcache_evictions",
            global(&arch::PerfCounters::gcache_evictions)),
      count_of("memo.hits", t.memo_hits),
      count_of("memo.misses", t.memo_misses),
      count_of("memo.invalidations", t.memo_invalidations),
      secs("pvm.host_s", host_where([](const Case& c) { return c.pvm; })),
      secs("setup.runtime_s",
           typical(w, plain, [](const CaseRun& r) { return r.runtime_s; })),
      secs("setup.app_s",
           typical(w, plain, [](const CaseRun& r) { return r.app_s; })),
      Metric{"sim.elapsed_ns", sum_cases(p, [](const CaseRun& r) {
               return static_cast<double>(r.elapsed);
             }), "sim_ns", true},
      Metric{"sim.mem_stall_ns", static_cast<double>(t.mem_stall), "sim_ns",
             true},
      Metric{"sim.compute_ns", static_cast<double>(t.compute), "sim_ns", true},
      secs("calib.wall_host_s", typical(w, plain, [](const CaseRun& r) {
             return r.wall_run_s;
           })),
      Metric{"calib.speed",
             typical(w, plain, [](const CaseRun& r) { return r.speed; }) /
                 static_cast<double>(w.cases.size()),
             "ratio"},
      Metric{"trace.overhead_frac",
             typical(w, traced, run_s) / typical(w, plain, run_s) - 1.0,
             "fraction"},
  };
}

/// The replay self-check: a shadow that loses one transaction must report
/// a mismatch.  Returns the failure, or an empty string.
std::string replay_selfcheck(perfbench::SpeedProbe& probe) {
  nbody::NbodyConfig tiny;
  tiny.n = 512;
  tiny.steps = 1;
  const CaseRun r =
      run_case(nbody_case("replay_selfcheck", tiny, 4, rt::Placement::kUniform),
               /*traced=*/true, probe, /*drop_event=*/1000);
  if (!r.error.empty()) return r.error;
  if (r.replay_mismatches == 0) return "a dropped event went undetected";
  std::printf("case replay_selfcheck ok: one dropped event reported as %llu "
              "mismatches\n",
              static_cast<unsigned long long>(r.replay_mismatches));
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fig8_rate|fig8_capacity|fig7_fem"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Workload w;
  if (args.workload == "fig8_rate") {
    w = fig8_rate(args.seed);
  } else if (args.workload == "fig8_capacity") {
    w = fig8_capacity(args.seed);
  } else if (args.workload == "fig7_fem") {
    w = fig7_fem();
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Time the program's defaults: no host knob may leak in from the caller's
  // environment.  Done before the first Runtime reads any of them.
  for (const char* var :
       {"SPP_CONDUCTOR", "SPP_MEMO", "SPP_SHARDS", "SPP_PDES_WINDOW"}) {
    unsetenv(var);
  }

  const bool trace = args.trace == 1;
  perfbench::SpeedProbe speed_probe;
  const auto start = Clock::now();
  std::vector<Pass> plain;   // untraced passes
  std::vector<Pass> traced;  // traced passes, one after each untraced one
  std::vector<std::optional<std::uint64_t>> first_digest;
  for (;;) {
    const auto t0 = Clock::now();
    plain.push_back(run_pass(w, false, speed_probe));
    check_figures(w, plain.back());
    check_digests(w, plain.back(), first_digest);
    report_pass(w, plain.back(), "pass", static_cast<unsigned>(plain.size()));
    if (trace) {
      traced.push_back(run_pass(w, true, speed_probe));
      Pass& tp = traced.back();
      check_figures(w, tp);
      check_digests(w, tp, first_digest);
      for (CaseRun& r : tp) {
        if (r.replay_mismatches != 0) {
          fail(r, "shadow replay mismatches: " +
                      std::to_string(r.replay_mismatches));
        }
      }
      report_pass(w, tp, "traced", static_cast<unsigned>(traced.size()));
    }
    const double elapsed = since(start);
    const std::size_t min_passes = trace ? 1 : kMinPasses;
    if (plain.size() >= min_passes &&
        (elapsed >= args.seconds || elapsed + since(t0) > kLastStartS)) {
      break;
    }
  }

  std::uint64_t attempted = count_runs(plain) + count_runs(traced);
  std::uint64_t failed = count_failed(plain) + count_failed(traced);
  std::vector<Metric> metrics;
  if (trace) {
    ++attempted;
    const std::string why = replay_selfcheck(speed_probe);
    if (!why.empty()) {
      ++failed;
      std::printf("case replay_selfcheck FAILED: %s\n", why.c_str());
    }
    metrics = per_layer_metrics(w, plain, traced);
  } else {
    metrics = end_to_end_metrics(w, plain, attempted, failed);
  }

  // The settings every case ran with, as a fresh two-hypernode Runtime sees
  // them after the environment was cleared.
  rt::Runtime probe(arch::Topology{.nodes = 2});
  std::printf("setting workload=%s seed=%llu backend=%s workers=%u memo=%s "
              "pdes_window_ns=%llu host_cpus=%u affinity=%s passes=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              backend_name(probe.conductor().backend()),
              probe.conductor().workers(), memo_name(probe.memo_mode()),
              static_cast<unsigned long long>(
                  pdes::lookahead_window(probe.cost())),
              std::thread::hardware_concurrency(), affinity_mask().c_str(),
              plain.size());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
