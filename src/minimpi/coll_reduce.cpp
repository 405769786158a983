// Reduce algorithms. The paper's Fig. 5a optimizes a *binary tree* reduce
// (each process receives from up to two children and forwards one partial
// result to its parent), which is the default here.
#include "minimpi/coll_common.h"

namespace mpim::mpi::coll {

namespace {

struct ReduceBuffers {
  std::unique_ptr<std::byte[]> acc;
  std::unique_ptr<std::byte[]> tmp;
};

// Combine a received partial result into the accumulator, tolerating
// timing-only (null-payload) traffic.
void combine(std::byte* acc, const std::byte* tmp, std::size_t count,
             Type type, Op op) {
  if (acc != nullptr && tmp != nullptr && count > 0)
    reduce_in_place(acc, tmp, count, type, op);
}

// Complete binary tree on virtual ranks: children of v are 2v+1 and 2v+2.
void reduce_binary_tree(detail::Round& r, ReduceBuffers& b, std::size_t count,
                        Type type, Op op, int root, std::size_t bytes) {
  const int size = r.size();
  const int vrank = (r.rank() - root + size) % size;
  auto abs = [&](int v) { return (v + root) % size; };

  for (int child = 2 * vrank + 1; child <= 2 * vrank + 2; ++child) {
    if (child >= size) break;
    r.recv(abs(child), b.tmp.get(), bytes);
    combine(b.acc.get(), b.tmp.get(), count, type, op);
  }
  if (vrank != 0) r.send(abs((vrank - 1) / 2), b.acc.get(), bytes);
}

// Binomial fan-in (the MPICH default for commutative ops).
void reduce_binomial(detail::Round& r, ReduceBuffers& b, std::size_t count,
                     Type type, Op op, int root, std::size_t bytes) {
  const int size = r.size();
  const int vrank = (r.rank() - root + size) % size;
  auto abs = [&](int v) { return (v + root) % size; };

  int mask = 1;
  while (mask < size) {
    if (vrank & mask) {
      r.send(abs(vrank - mask), b.acc.get(), bytes);
      break;
    }
    if (vrank + mask < size) {
      r.recv(abs(vrank + mask), b.tmp.get(), bytes);
      combine(b.acc.get(), b.tmp.get(), count, type, op);
    }
    mask <<= 1;
  }
}

void reduce_linear(detail::Round& r, ReduceBuffers& b, std::size_t count,
                   Type type, Op op, int root, std::size_t bytes) {
  if (r.rank() == root) {
    for (int src = 0; src < r.size(); ++src) {
      if (src == root) continue;
      r.recv(src, b.tmp.get(), bytes);
      combine(b.acc.get(), b.tmp.get(), count, type, op);
    }
  } else {
    r.send(root, b.acc.get(), bytes);
  }
}

}  // namespace

void reduce(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
            Type type, Op op, int root, const Comm& comm, CommKind kind) {
  detail::Round r(ctx, comm, kind);
  check(root >= 0 && root < r.size(), "reduce root out of range");
  const std::size_t bytes = count * type_size(type);

  ReduceBuffers b;
  b.acc = detail::copy_of(sendbuf, bytes);
  b.tmp = detail::scratch_if(sendbuf != nullptr, bytes);
  // Charge the local combining work (count ops per received partial result
  // is already implicit in virtual transfer times; we charge only the own
  // arithmetic once to keep the model simple and deterministic).
  ctx.compute_flops(static_cast<double>(count));

  if (r.size() > 1) {
    switch (ctx.engine().config().coll.reduce) {
      case ReduceAlgo::binary_tree:
        reduce_binary_tree(r, b, count, type, op, root, bytes);
        break;
      case ReduceAlgo::binomial:
        reduce_binomial(r, b, count, type, op, root, bytes);
        break;
      case ReduceAlgo::linear:
        reduce_linear(r, b, count, type, op, root, bytes);
        break;
    }
  }
  if (r.rank() == root) detail::copy_block(recvbuf, b.acc.get(), bytes);
}

void allreduce(Ctx& ctx, const void* sendbuf, void* recvbuf,
               std::size_t count, Type type, Op op, const Comm& comm,
               CommKind kind) {
  const std::size_t bytes = count * type_size(type);
  detail::Round r(ctx, comm, kind);
  const int size = r.size();
  const int rank = r.rank();

  auto acc = detail::copy_of(sendbuf, bytes);
  auto tmp = detail::scratch_if(sendbuf != nullptr, bytes);
  ctx.compute_flops(static_cast<double>(count));

  if (size > 1 &&
      ctx.engine().config().coll.allreduce ==
          AllreduceAlgo::recursive_doubling) {
    // Rabenseifner-style fold of the ranks that exceed the largest power of
    // two, then recursive doubling among the survivors, then unfold.
    int pof2 = 1;
    while (pof2 * 2 <= size) pof2 *= 2;
    const int rem = size - pof2;

    int newrank;
    if (rank < 2 * rem) {
      if (rank % 2 == 1) {  // odd ranks hand their data over and wait
        r.send(rank - 1, acc.get(), bytes);
        newrank = -1;
      } else {
        r.recv(rank + 1, tmp.get(), bytes);
        combine(acc.get(), tmp.get(), count, type, op);
        newrank = rank / 2;
      }
    } else {
      newrank = rank - rem;
    }

    if (newrank >= 0) {
      for (int mask = 1; mask < pof2; mask <<= 1) {
        const int peer_new = newrank ^ mask;
        const int peer =
            (peer_new < rem) ? peer_new * 2 : peer_new + rem;
        r.sendrecv(peer, acc.get(), tmp.get(), bytes);
        combine(acc.get(), tmp.get(), count, type, op);
      }
    }

    if (rank < 2 * rem) {
      if (rank % 2 == 1)
        r.recv(rank - 1, acc.get(), bytes);
      else
        r.send(rank + 1, acc.get(), bytes);
    }
    detail::copy_block(recvbuf, acc.get(), bytes);
    return;
  }

  // reduce + bcast fallback (also used for size == 1).
  // Note: uses two nested collective rounds on the same communicator.
  reduce(ctx, sendbuf, recvbuf, count, type, op, 0, comm, kind);
  bcast(ctx, recvbuf, count, type, 0, comm, kind);
}

}  // namespace mpim::mpi::coll
