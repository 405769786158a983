// The benchmark's three workloads. Each runs its timed loop, its
// correctness checks and (when opt.trace is set) its per-layer probes,
// and returns the metrics of its final JSON line plus report lines.
#pragma once

#include "harness.h"

namespace perfbench {

/// Messages a recursive-doubling allreduce sends over n ranks (the
/// engine's default decomposition): the ranks beyond the largest power of
/// two fold in and out, the rest exchange for log2 rounds.
constexpr double allreduce_messages(int n) {
  int pof2 = 1, rounds = 0;
  while (pof2 * 2 <= n) {
    pof2 *= 2;
    ++rounds;
  }
  return 2.0 * (n - pof2) + static_cast<double>(pof2) * rounds;
}

/// apps::run_halo, np=4096, fibers, PlaFRIM-like tree with NIC contention,
/// an mpit::Runtime with no session.
Result run_halo_bare(const Options& opt, const Reference& ref, Tally& tally);

/// apps::NasCgSolver, np=1024, fibers over fattree:8,2,2 with contention,
/// every monitoring layer on, the Figure-1 reorder after iteration 1.
Result run_cg_fullstack(const Options& opt, const Reference& ref,
                        Tally& tally);

/// Threads backend, np=2 on two nodes: sendrecv + RMA put + allreduce per
/// step under sixteen overlapping sessions and periodic read cycles.
Result run_sampler_threads(const Options& opt, const Reference& ref,
                           Tally& tally);

}  // namespace perfbench
