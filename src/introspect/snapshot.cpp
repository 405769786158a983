#include "introspect/snapshot.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace mpim::introspect {

namespace {

using SparseRow = std::vector<std::pair<int, unsigned long>>;

// The analyzer's dense cosine_distance / l1_distance over two sparse rows
// ascending by peer. A peer missing from a row is a zero there, whose
// terms the dense loops add as exact +0.0, so visiting only the stored
// peers in the same ascending order gives bit-identical results.
double sparse_norm(const SparseRow& v) {
  double s = 0.0;
  for (const auto& [p, x] : v)
    s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

double sparse_cosine_distance(const SparseRow& a, const SparseRow& b) {
  const double na = sparse_norm(a);
  const double nb = sparse_norm(b);
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  double dot = 0.0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      dot += static_cast<double>(a[i++].second) *
             static_cast<double>(b[j++].second);
    }
  }
  return 1.0 - dot / (na * nb);
}

double sparse_l1_distance(const SparseRow& a, const SparseRow& b) {
  double diff = 0.0, mass = 0.0;
  for (std::size_t i = 0, j = 0; i < a.size() || j < b.size();) {
    double x = 0.0, y = 0.0;
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      x = static_cast<double>(a[i++].second);
    } else if (i == a.size() || b[j].first < a[i].first) {
      y = static_cast<double>(b[j++].second);
    } else {
      x = static_cast<double>(a[i++].second);
      y = static_cast<double>(b[j++].second);
    }
    diff += std::abs(x - y);
    mass += x + y;
  }
  return mass == 0.0 ? 0.0 : diff / mass;
}

}  // namespace

WindowSampler::WindowSampler(int npeers, double window_s,
                             std::size_t max_frames)
    : npeers_(npeers), window_s_(window_s), max_frames_(max_frames) {
  check(npeers >= 1, "sampler needs at least one peer");
  check(window_s > 0.0, "sampler window must be positive");
  check(max_frames >= 1, "sampler needs room for at least one frame");
  cell_of_.assign(static_cast<std::size_t>(npeers), -1);
  total_bytes_.assign(static_cast<std::size_t>(npeers), 0ul);
}

void WindowSampler::close_current_window() {
  Frame f;
  f.window = current_;
  f.t0_s = static_cast<double>(current_) * window_s_;
  f.t1_s = static_cast<double>(current_ + 1) * window_s_;

  // Cells and the row ascend by peer, as a dense walk would emit them.
  for (const FrameCell& c : cells_)
    cell_of_[static_cast<std::size_t>(c.peer)] = -1;
  std::sort(cells_.begin(), cells_.end(),
            [](const FrameCell& a, const FrameCell& b) {
              return a.peer < b.peer;
            });
  row_.clear();
  for (const FrameCell& c : cells_) {
    unsigned long row = 0;
    for (int k = 0; k < kNumKinds; ++k) row += c.bytes[k];
    total_bytes_[static_cast<std::size_t>(c.peer)] += row;
    row_.emplace_back(c.peer, row);
  }
  f.cells = std::move(cells_);
  cells_.clear();

  // Phase detection on the local byte row: the first window with traffic
  // after a silent history is a boundary too (have_prev_ starts false so
  // the very first frame never counts -- there is no "previous phase").
  if (have_prev_) {
    const double cos_d = sparse_cosine_distance(prev_row_, row_);
    const double l1_d = sparse_l1_distance(prev_row_, row_);
    f.boundary = cos_d > kCosineBoundary || l1_d > kL1Boundary;
  }
  prev_row_.swap(row_);
  have_prev_ = true;
  if (f.boundary) ++phase_boundaries_;
  ++frames_closed_;

  frames_.push_back(std::move(f));
  if (frames_.size() > max_frames_) {
    frames_.pop_front();
    ++frames_dropped_;
  }
  if (on_frame_) on_frame_(frames_.back());
}

void WindowSampler::roll_to(long window) {
  if (!open_) {
    current_ = window;
    open_ = true;
    return;
  }
  while (current_ < window) {
    close_current_window();
    ++current_;
  }
}

void WindowSampler::record(double t_s, int peer, int kind_bit,
                           unsigned long bytes) {
  check(peer >= 0 && peer < npeers_, "sampler peer out of range");
  check(kind_bit >= 0 && kind_bit < kNumKinds, "sampler kind out of range");
  const long w = static_cast<long>(std::floor(t_s / window_s_));
  roll_to(w);
  int& slot = cell_of_[static_cast<std::size_t>(peer)];
  if (slot < 0) {
    slot = static_cast<int>(cells_.size());
    cells_.push_back(FrameCell{.peer = peer});
  }
  FrameCell& cell = cells_[static_cast<std::size_t>(slot)];
  cell.counts[kind_bit] += 1;
  cell.bytes[kind_bit] += bytes;
}

void WindowSampler::flush(double t_s) {
  if (!open_) return;
  const long w = static_cast<long>(std::floor(t_s / window_s_));
  roll_to(w);
  // The window containing t_s is closed early only when it holds data, so
  // a suspend captures the partial window but repeated flushes without new
  // records never manufacture empty frames (or phony phase boundaries).
  if (!cells_.empty()) {
    close_current_window();
    ++current_;
  }
}

void WindowSampler::clear() {
  frames_.clear();
  open_ = false;
  have_prev_ = false;
  frames_closed_ = 0;
  frames_dropped_ = 0;
  phase_boundaries_ = 0;
  for (const FrameCell& c : cells_)
    cell_of_[static_cast<std::size_t>(c.peer)] = -1;
  cells_.clear();
  prev_row_.clear();
  std::fill(total_bytes_.begin(), total_bytes_.end(), 0ul);
}

}  // namespace mpim::introspect
