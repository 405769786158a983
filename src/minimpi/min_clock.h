// The bookkeeping of the deterministic NIC-contention gate
// (EngineConfig::nic_contention): which rank may issue the earliest send.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mpim::mpi {

/// Per-rank scheduler entries and their arg-min (clock, rank) over the
/// running, gate and pending ones, kept in a tournament tree so that an
/// update costs O(log np) instead of a rescan of every rank. Not
/// thread-safe: the engine serializes it.
class MinClockGate {
 public:
  // `pending` marks a blocked rank that already has an unexamined
  // delivery: it may wake and send as early as that delivery's arrival, so
  // it re-enters the min-clock computation with that bound until it either
  // matches (-> running) or rejects the message (-> blocked again).
  enum class St : std::uint8_t { running, gate, blocked, pending, done };
  struct Entry {
    double clock = 0.0;  ///< lower bound of the rank's next send time
    St st = St::running;
  };

  /// `n` ranks, every one running at clock 0.
  void reset(int n) {
    entries_.assign(static_cast<std::size_t>(n), Entry{});
    leaves_ = std::bit_ceil(static_cast<std::size_t>(n));
    tree_.assign(2 * leaves_, kIdle);
    for (int r = 0; r < n; ++r)
      tree_[leaves_ + static_cast<std::size_t>(r)] = {0.0, r};
    for (std::size_t i = leaves_ - 1; i >= 1; --i)
      tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
    min_rank_ = n > 0 ? 0 : -1;
  }

  /// Sets one rank's entry; returns the new min_rank().
  int update(int rank, St st, double clock) {
    entries_[static_cast<std::size_t>(rank)] = {clock, st};
    // Replay the matches on the leaf's path to the root. A node whose key
    // comes out unchanged leaves every ancestor as it was.
    std::size_t i = leaves_ + static_cast<std::size_t>(rank);
    tree_[i] = st == St::blocked || st == St::done ? kIdle : Key{clock, rank};
    for (i /= 2; i >= 1; i /= 2) {
      const Key win = std::min(tree_[2 * i], tree_[2 * i + 1]);
      if (win == tree_[i]) break;
      tree_[i] = win;
    }
    min_rank_ = tree_[1].rank == kIdle.rank ? -1 : tree_[1].rank;
    return min_rank_;
  }

  const Entry& entry(int rank) const {
    return entries_[static_cast<std::size_t>(rank)];
  }

  /// The lowest rank among the lowest clocks of the running, gate and
  /// pending entries (what a scan in rank order keeping the first strict
  /// minimum finds); -1 when there is none.
  int min_rank() const { return min_rank_; }

 private:
  /// A node holds the least key of its subtree. Blocked, done and padding
  /// leaves hold kIdle, which every real key beats.
  struct Key {
    double clock;
    int rank;
    bool operator<(const Key& o) const {
      return clock < o.clock || (clock == o.clock && rank < o.rank);
    }
    bool operator==(const Key&) const = default;
  };
  static constexpr Key kIdle{std::numeric_limits<double>::infinity(),
                             std::numeric_limits<int>::max()};

  std::vector<Entry> entries_;
  std::vector<Key> tree_;  ///< leaves at [leaves_, 2 * leaves_)
  std::size_t leaves_ = 0;
  int min_rank_ = -1;
};

}  // namespace mpim::mpi
