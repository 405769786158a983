// Windowed communication snapshots: the time-resolved half of the
// introspection library.
//
// A WindowSampler chops a rank's virtual timeline into fixed windows
// (index = floor(t / window_s), a *global* grid shared by every rank
// because all clocks start at 0) and accumulates, per window, the
// per-peer message counts and bytes the rank sent, split by traffic
// class. When a record arrives for a later window the current window is
// closed into a Frame; windows the rank sat silent through are emitted
// as empty frames so the grid stays gap-free (the phase detector needs
// burst -> silence transitions to be visible).
//
// Frames are delta-encoded: a Frame's cells hold only the traffic of
// *that* window (the increments against the previous frame), never
// cumulative totals -- reconstructing a running matrix is a prefix sum,
// and a timeline heatmap is just the frames themselves. The frame store
// is a bounded ring: when full, the oldest frame is folded into the
// `evicted` totals and counted, never silently lost.
//
// Determinism: everything here is driven by the virtual clock carried in
// the packet records; the sampler performs no host-time reads and no
// MPI traffic of its own, so enabling it cannot perturb simulated time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

namespace mpim::introspect {

inline constexpr int kNumKinds = 3;  ///< p2p, coll, osc (tool never recorded)

/// Traffic one peer received from this rank during one window, by class.
struct FrameCell {
  int peer = -1;
  unsigned long counts[kNumKinds] = {0, 0, 0};
  unsigned long bytes[kNumKinds] = {0, 0, 0};
};

/// One closed window of the rank's outgoing traffic (sparse: only peers
/// actually written to appear in `cells`).
struct Frame {
  long window = 0;  ///< global window index: floor(t / window_s)
  double t0_s = 0.0;
  double t1_s = 0.0;
  bool boundary = false;  ///< phase boundary detected at this frame
  std::vector<FrameCell> cells;
};

class WindowSampler {
 public:
  /// `npeers` is the order of the monitored communicator; `max_frames`
  /// bounds the ring (oldest frames are evicted into totals beyond it).
  WindowSampler(int npeers, double window_s, std::size_t max_frames);

  /// Records one sent message at virtual time `t_s` to group rank `peer`
  /// of traffic class `kind_bit` (0 = p2p, 1 = coll, 2 = osc). Closes and
  /// emits any windows that elapsed since the previous record.
  void record(double t_s, int peer, int kind_bit, unsigned long bytes);

  /// Closes every window that elapsed before `t_s`, plus the window
  /// containing `t_s` when it already holds data (so suspend/stop capture
  /// the partial window). Flushing again without new records is a no-op:
  /// silence is only recorded once full windows actually elapse.
  void flush(double t_s);

  /// Drops all frames and accumulated state (MPI_M_reset semantics); the
  /// window grid restarts at the next record.
  void clear();

  double window_s() const { return window_s_; }
  int npeers() const { return npeers_; }
  const std::deque<Frame>& frames() const { return frames_; }
  std::uint64_t frames_closed() const { return frames_closed_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t phase_boundaries() const { return phase_boundaries_; }

  /// Cumulative per-peer bytes (all kinds) over every frame ever closed,
  /// including evicted ones -- the analyzer's long-horizon matrix row.
  const std::vector<unsigned long>& total_bytes() const {
    return total_bytes_;
  }

  /// Called after each frame is closed (boundary flag already set). Runs
  /// on the recording thread; keep it allocation-light.
  using FrameCallback = std::function<void(const Frame&)>;
  void set_frame_callback(FrameCallback cb) { on_frame_ = std::move(cb); }

  /// Inter-window distance thresholds above which a frame is flagged as a
  /// phase boundary (cosine distance; L1 distance normalized by the two
  /// windows' total volume).
  static constexpr double kCosineBoundary = 0.35;
  static constexpr double kL1Boundary = 0.5;

 private:
  void close_current_window();
  void roll_to(long window);

  int npeers_;
  double window_s_;
  std::size_t max_frames_;

  bool open_ = false;   ///< a current window exists
  long current_ = 0;    ///< index of the open window
  /// The open window's cells, one per peer recorded in it, in first-record
  /// order: a record touches one cell and a close costs O(cells), not
  /// O(npeers). cell_of_[peer] indexes them (-1: none yet).
  std::vector<FrameCell> cells_;
  std::vector<int> cell_of_;

  /// Sparse per-peer byte row (kinds summed) of a closed window, ascending
  /// by peer: the phase detector's comparison vector.
  using SparseRow = std::vector<std::pair<int, unsigned long>>;
  SparseRow prev_row_;
  SparseRow row_;  ///< the closing window's row (capacity reused)
  bool have_prev_ = false;

  std::deque<Frame> frames_;
  std::vector<unsigned long> total_bytes_;
  std::uint64_t frames_closed_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t phase_boundaries_ = 0;
  FrameCallback on_frame_;
};

}  // namespace mpim::introspect
