// Prefix reductions (scan / exscan) and reduce_scatter_block.
#include "minimpi/coll_common.h"

namespace mpim::mpi::coll {

namespace {

void combine(std::byte* acc, const std::byte* in, std::size_t count,
             Type type, Op op) {
  if (acc != nullptr && in != nullptr && count > 0)
    reduce_in_place(acc, in, count, type, op);
}

// Hillis-Steele-style scan: at step 2^k receive the partial prefix of
// rank - 2^k and fold it in; send own running partial to rank + 2^k.
// O(log n) rounds, each rank sends at most one message per round.
//
// Correctness needs care with non-commutative order: the partial held
// after step k covers ranks [rank - 2^{k+1} + 1, rank]; prepending the
// incoming partial (which covers the 2^k ranks just below) keeps the
// rank order. Our Op set is commutative, but the implementation still
// folds in prefix order so the structure matches the textbook algorithm.
void scan_impl(detail::Round& r, std::byte* acc, std::byte* tmp,
               std::size_t count, Type type, Op op, std::size_t bytes,
               bool exclusive, void* recvbuf) {
  const int size = r.size();
  const int rank = r.rank();

  // running = inclusive prefix over the ranks covered so far (own value
  // initially); carry = value to hand to higher ranks.
  for (int step = 1; step < size; step <<= 1) {
    const int dst = rank + step;
    const int src = rank - step;
    if (dst < size) r.send(dst, acc, bytes);
    if (src >= 0) {
      r.recv(src, tmp, bytes);
      combine(acc, tmp, count, type, op);
    }
  }

  if (!exclusive) {
    detail::copy_block(recvbuf, acc, bytes);
    return;
  }
  // Exclusive variant: rank i needs the prefix of ranks 0..i-1, i.e. the
  // inclusive prefix of rank i-1. One extra shift by one.
  if (rank + 1 < size) r.send(rank + 1, acc, bytes);
  if (rank > 0) {
    r.recv(rank - 1, tmp, bytes);
    detail::copy_block(recvbuf, tmp, bytes);
  }
  // Rank 0's recvbuf is intentionally untouched (MPI_Exscan semantics).
}

}  // namespace

void scan(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
          Type type, Op op, const Comm& comm, CommKind kind) {
  detail::Round r(ctx, comm, kind);
  const std::size_t bytes = count * type_size(type);
  auto acc = detail::copy_of(sendbuf, bytes);
  auto tmp = detail::scratch_if(sendbuf != nullptr, bytes);
  ctx.compute_flops(static_cast<double>(count));
  if (r.size() == 1) {
    detail::copy_block(recvbuf, acc.get(), bytes);
    return;
  }
  scan_impl(r, acc.get(), tmp.get(), count, type, op, bytes,
            /*exclusive=*/false, recvbuf);
}

void exscan(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
            Type type, Op op, const Comm& comm, CommKind kind) {
  detail::Round r(ctx, comm, kind);
  const std::size_t bytes = count * type_size(type);
  auto acc = detail::copy_of(sendbuf, bytes);
  auto tmp = detail::scratch_if(sendbuf != nullptr, bytes);
  ctx.compute_flops(static_cast<double>(count));
  if (r.size() == 1) return;  // rank 0 untouched
  scan_impl(r, acc.get(), tmp.get(), count, type, op, bytes,
            /*exclusive=*/true, recvbuf);
}

void reduce_scatter_block(Ctx& ctx, const void* sendbuf, void* recvbuf,
                          std::size_t count, Type type, Op op,
                          const Comm& comm, CommKind kind) {
  detail::Round r(ctx, comm, kind);
  const int size = r.size();
  const int rank = r.rank();
  const std::size_t block_bytes = count * type_size(type);
  if (size == 1) {
    detail::copy_block(recvbuf, sendbuf, block_bytes);
    return;
  }

  const bool pof2 = (size & (size - 1)) == 0;
  if (pof2) {
    // Recursive halving: the canonical MPICH algorithm.
    const std::size_t total = static_cast<std::size_t>(size) * block_bytes;
    auto acc = detail::copy_of(sendbuf, total);
    auto tmp = detail::scratch_if(sendbuf != nullptr, total / 2);
    ctx.compute_flops(static_cast<double>(count) * size);

    std::size_t cur_off = 0;                      // in blocks
    auto cur_cnt = static_cast<std::size_t>(size);  // blocks held
    for (int mask = size >> 1; mask >= 1; mask >>= 1) {
      const int partner = rank ^ mask;
      const std::size_t half = cur_cnt / 2;
      const bool keep_upper = (rank & mask) != 0;
      const std::size_t send_off = keep_upper ? cur_off : cur_off + half;
      const std::size_t keep_off = keep_upper ? cur_off + half : cur_off;
      r.send(partner, detail::block_at(acc.get(), send_off, block_bytes),
             half * block_bytes);
      r.recv(partner, tmp.get(), half * block_bytes);
      if (acc != nullptr && tmp != nullptr)
        for (std::size_t b = 0; b < half; ++b)
          combine(detail::block_at(acc.get(), keep_off + b, block_bytes),
                  detail::block_at(tmp.get(), b, block_bytes), count, type,
                  op);
      cur_off = keep_off;
      cur_cnt = half;
    }
    check(cur_cnt == 1 && cur_off == static_cast<std::size_t>(rank),
          "reduce_scatter bookkeeping broke");
    detail::copy_block(recvbuf,
                       detail::block_at(acc.get(), cur_off, block_bytes),
                       block_bytes);
    return;
  }

  // Non-power-of-two fallback: reduce to rank 0, then scatter.
  const std::size_t total = static_cast<std::size_t>(size) * block_bytes;
  std::unique_ptr<std::byte[]> full =
      (rank == 0) ? detail::scratch_if(sendbuf != nullptr, total) : nullptr;
  reduce(ctx, sendbuf, full.get(), static_cast<std::size_t>(size) * count,
         type, op, 0, comm, kind);
  scatter(ctx, full.get(), count, type, recvbuf, 0, comm, kind);
}

}  // namespace mpim::mpi::coll
