// Host-speed correction for the benchmark's timings.
//
// The benchmark runs on a few cores of a shared host, and what else the
// host runs changes how fast those cores are: the same campaign on the same
// input takes anywhere from 0.6 to 1.1 s within two minutes, and a register-
// only loop slows by up to 1.9x. A median over a run cannot remove a slow
// stretch that lasts the whole run. So every timed call is bracketed by two
// readings of a fixed reference kernel — code of the benchmark's own, with
// the program's mix of work (event-queue pushes and pops, hashing, ordered
// string keys, sorting, number formatting and parsing) on fixed inputs —
// and its wall time is scaled by
//
//     kNominalReferenceS / mean(reading before, reading after)
//
// The result is in seconds on a host where the reference takes its nominal
// time. A change to the program moves the call's time and not the
// reference's; a slow host moves both. The raw wall times are printed next
// to the corrected ones.

#ifndef CELLBENCH_HOST_SPEED_H
#define CELLBENCH_HOST_SPEED_H

namespace cellbench {

/// What one reading of the reference kernel takes on an idle core of the
/// 2.1 GHz Xeon host the benchmark was tuned on, seconds.
inline constexpr double kNominalReferenceS = 0.045;

/// Runs the reference kernel once on each of `threads` threads at the same
/// time and returns the wall seconds until the last one finished. A call
/// that runs n threads is bracketed by readings on n threads.
double reference_reading_s(unsigned threads);

/// Turns a call's wall seconds into nominal-host seconds, given the
/// readings taken just before and just after it.
inline double speed_factor(double before_s, double after_s) {
  return kNominalReferenceS / (0.5 * (before_s + after_s));
}

}  // namespace cellbench

#endif  // CELLBENCH_HOST_SPEED_H
