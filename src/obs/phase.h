// Per-phase response-time breakdown.
//
// A committed transaction's response time (first submission → commit)
// decomposes exactly, in integer microseconds, into:
//
//   response = ready + restart_delay + wasted
//            + cc_block + cpu + disk + resource_wait + think + other
//
// where the second line covers the *final* (committing) incarnation and
// `wasted` is the total active time of aborted incarnations. `other` is the
// small remainder the engine does not attribute elsewhere — today that is
// group-commit window waits. The report carries the *mean seconds per
// committed transaction* of each bucket over the measurement interval.
#ifndef CCSIM_OBS_PHASE_H_
#define CCSIM_OBS_PHASE_H_

namespace ccsim {

struct PhaseBreakdown {
  /// False when observability was off for the run (all buckets zero).
  bool collected = false;

  double ready = 0.0;          ///< Ready-queue waits (all incarnations).
  double cc_block = 0.0;       ///< Blocked on a cc request (final incarnation).
  double cpu = 0.0;            ///< CPU service received (final incarnation).
  double disk = 0.0;           ///< Disk/log service received (final inc.).
  double resource_wait = 0.0;  ///< Queueing for CPU/disk/log (final inc.).
  double think = 0.0;          ///< Internal think time (final incarnation).
  double restart_delay = 0.0;  ///< Post-abort delays before re-entry.
  double wasted = 0.0;         ///< Active time of aborted incarnations.
  double other = 0.0;          ///< Unattributed (group-commit window waits).

  double Sum() const {
    return ready + cc_block + cpu + disk + resource_wait + think +
           restart_delay + wasted + other;
  }
  bool operator==(const PhaseBreakdown&) const = default;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_PHASE_H_
