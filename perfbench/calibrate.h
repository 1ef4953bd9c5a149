// Host-speed calibration: makes host times comparable on a shared host.
//
// On a host shared with other tenants the simulator's speed drifts by tens of
// percent within seconds and by up to 2x over minutes, through contention
// for the memory hierarchy and for the core.  A probe times two fixed
// kernels that feel those: data-dependent read-modify-writes at random slots
// of a 32 MB table (the memory kernel) and of a 64 KB table (the core
// kernel).  Across case runs their times correlate 0.86 and 0.88 with the
// simulator's.  A SpeedProbe takes a probe on the calling thread when a
// measured window opens and closes and, while the window is open, every
// kPeriodMs from a timer signal aimed at the thread, so a 15-second
// Runtime::run is sampled throughout, not just at its ends.
//
// The window's speed is the geometric mean of the two kernels' speeds, each
// its nominal time over its mean time in the window.  The caller subtracts
// the host time spent in probes from its wall times and scales them by the
// speed raised to kContentionExponent.  The result is in reference-host
// seconds: what the window would take on a host where both kernels take
// their nominal times.
#pragma once

namespace perfbench {

class SpeedProbe {
 public:
  /// Host seconds of each kernel on the host times are scaled to.  They are
  /// definitions, not measurements; on the 4-vCPU Xeon host the benchmark
  /// was written on the kernels take 1.2-1.7 ms and 0.5-0.8 ms as its load
  /// changes.
  static constexpr double kNominalMemoryProbeS = 1.0e-3;
  static constexpr double kNominalCoreProbeS = 0.5e-3;
  /// The simulator feels the host's contention more than the probe does: log
  /// case time against log probe time has slopes of 1.3-1.9 across the
  /// workloads and over time on the host the benchmark was written on.
  static constexpr double kContentionExponent = 1.5;
  /// Interval between the periodic probes of an open window.
  static constexpr long kPeriodMs = 100;

  /// Allocates and warms the kernels' tables and installs the signal handler
  /// and timer for the calling thread.  At most one may exist at a time; the
  /// windows must be opened and closed on the thread that constructed it.
  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Takes the opening probe and starts the timer.
  void open();
  /// Host seconds spent in periodic probes since open(); read it around a
  /// stretch of the window to take them out of that stretch's wall time.
  double in_window_s() const;
  /// Stops the timer, takes the closing probe and returns the window's
  /// speed.
  double close();
};

}  // namespace perfbench
