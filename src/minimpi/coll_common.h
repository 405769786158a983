// Internal helpers shared by the collective algorithm files.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>

#include "minimpi/coll.h"
#include "support/error.h"

namespace mpim::mpi::coll::detail {

/// One collective invocation: resolves ranks, fixes the round tag, and
/// exposes group-rank send/recv in terms of the engine transport.
class Round {
 public:
  Round(Ctx& ctx, const Comm& comm, CommKind kind)
      : ctx_(ctx),
        comm_(comm),
        kind_(kind),
        tag_(coll_tag(ctx.next_coll_seq(comm))),
        rank_(comm.group_rank_of_world(ctx.world_rank())),
        size_(comm.size()) {
    check(rank_ >= 0, "collective caller is not in the communicator");
  }

  int rank() const { return rank_; }
  int size() const { return size_; }

  void send(int dst_group, const void* buf, std::size_t bytes) {
    const int dst_world = comm_.world_rank_of(dst_group);
    // Child span of the enclosing collective: the paper's below-collective
    // view — each p2p edge of the decomposition tree becomes visible.
    // Tool-kind traffic stays invisible, like everywhere else.
    telemetry::Hub& hub = ctx_.engine().telemetry();
    if (kind_ != CommKind::tool && hub.enabled()) {
      const double t0 = ctx_.now();
      ctx_.send_bytes(dst_world, comm_, tag_, kind_, buf, bytes);
      hub.span_complete(ctx_.world_rank(), "p2p.send", 'M', t0, ctx_.now(),
                        dst_world, static_cast<std::int64_t>(bytes));
    } else {
      ctx_.send_bytes(dst_world, comm_, tag_, kind_, buf, bytes);
    }
  }

  Status recv(int src_group, void* buf, std::size_t bytes) {
    return ctx_.recv_bytes(comm_.world_rank_of(src_group), comm_, tag_, kind_,
                           buf, bytes);
  }

  /// Eager sends never block, so a blocking exchange is send-then-recv.
  void sendrecv(int peer_group, const void* sendb, void* recvb,
                std::size_t bytes) {
    send(peer_group, sendb, bytes);
    recv(peer_group, recvb, bytes);
  }

 private:
  Ctx& ctx_;
  const Comm& comm_;
  CommKind kind_;
  int tag_;
  int rank_;
  int size_;
};

/// Null-tolerant block arithmetic: timing-only collectives pass null
/// buffers and skip all data movement while keeping the message sizes.
inline std::byte* block_at(void* base, std::size_t block,
                           std::size_t block_bytes) {
  return base == nullptr
             ? nullptr
             : static_cast<std::byte*>(base) + block * block_bytes;
}

inline const std::byte* block_at(const void* base, std::size_t block,
                                 std::size_t block_bytes) {
  return base == nullptr
             ? nullptr
             : static_cast<const std::byte*>(base) + block * block_bytes;
}

inline void copy_block(void* dst, const void* src, std::size_t bytes) {
  if (dst != nullptr && src != nullptr && bytes > 0)
    std::memcpy(dst, src, bytes);
}

/// Zeroed scratch buffer allocated only when the collective carries real
/// data. Zeroed because receives fill it, and a timing-only message leaves
/// the receive buffer untouched.
inline std::unique_ptr<std::byte[]> scratch_if(bool needed,
                                               std::size_t bytes) {
  return (needed && bytes > 0) ? std::make_unique<std::byte[]>(bytes)
                               : nullptr;
}

/// A private copy of `src` (null when `src` is): every byte is written from
/// the source, so the buffer skips the zero-fill.
inline std::unique_ptr<std::byte[]> copy_of(const void* src,
                                            std::size_t bytes) {
  if (src == nullptr || bytes == 0) return nullptr;
  auto buf = std::make_unique_for_overwrite<std::byte[]>(bytes);
  std::memcpy(buf.get(), src, bytes);
  return buf;
}

}  // namespace mpim::mpi::coll::detail
