// The minimpi engine: a virtual-time MPI-subset runtime.
//
// Ranks execute inside one process, either as OS threads (the default) or
// as cooperatively scheduled stackful fibers of a single OS thread
// dispatched in (virtual clock, rank) order -- the SimGrid/SMPI execution
// model that makes np=1024-4096 worlds practical on a small host
// (EngineConfig::sched, MPIM_SCHED=threads|fibers). Either way, every rank
// owns a monotone virtual clock that only advances through engine calls:
//   - compute/sleep advance it directly,
//   - a send charges the sender a small overhead (LogP "o") and stamps the
//     message with arrival = sender_clock + alpha(link) + bytes/beta(link),
//   - a receive completes at max(receiver_clock, arrival) + recv_overhead.
// Timings are therefore deterministic functions of the program and the
// cost model, independent of host scheduling (the host has a single core).
//
// Every packet that leaves a rank flows through one ordered observer list
// (Observer, below) carrying (src, dst, bytes, kind, tag, context) -- the
// moral equivalent of Open MPI's pml_monitoring component interposition
// point. Tool-kind traffic (the monitoring library's own gathers) bypasses
// the observers, and optionally simulated NIC hardware counters record
// every transfer that crosses a node boundary.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/min_clock.h"
#include "minimpi/types.h"
#include "netmodel/cost_model.h"
#include "netmodel/nic_counters.h"
#include "topo/fabric.h"
#include "support/rng.h"
#include "telemetry/hub.h"
#include "topo/topology.h"

namespace mpim::fault {
class FaultPlan;
}

namespace mpim::mpi {

/// Everything the monitoring layer learns about one packet.
struct PktInfo {
  int src_world = -1;
  int dst_world = -1;
  std::size_t bytes = 0;
  CommKind kind = CommKind::p2p;
  int tag = 0;
  int context_id = -1;
  double send_time_s = 0.0;  ///< sender's virtual clock at injection
  /// Transmission attempts the fault plan charged for this message
  /// (1 = delivered first try; >1 means attempts-1 retransmissions).
  int attempts = 1;
  /// Per-sender monotone sequence number (1-based), stamped on every send
  /// regardless of observers. Together with src_world it names the
  /// happens-before edge this packet carries, so the critical-path profiler
  /// can join a receiver's completion back to the matching send event.
  std::uint64_t send_seq = 0;
};

/// A monitoring layer attached to an Engine (Engine::attach). Every event
/// the engine raises flows through the ordered observer list, the moral
/// equivalent of Open MPI's pml_monitoring interposition point: the tool
/// runtime (mpit), the critical-path profiler and the streaming plane are
/// all observers. Every method has an empty default, so an observer
/// overrides only the events it needs. None may charge virtual time
/// except through on_send's record count.
///
/// Packet events (on_send, on_send_done, on_recv) reach an observer only
/// while it is armed (Engine::arm_packets); with no observer armed, each
/// send and each receive completion costs one atomic load. Tool-kind
/// traffic (the monitoring library's own gathers) never reaches them.
class Observer {
 public:
  Observer() = default;
  virtual ~Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Before a send is charged. Returns the number of monitoring records
  /// made, which the engine charges at EngineConfig::monitor_event_cost_s.
  ///
  /// Concurrency contract: runs on rank threads, concurrently and without
  /// any engine-side lock. `caller_world` is the rank whose thread is
  /// executing the call; it equals `pkt.src_world` for ordinary sends, but
  /// an RMA transfer reports its traffic attributed to `pkt.src_world` from
  /// whichever rank thread issued it, so an observer may read and update
  /// one rank's state from another rank's thread. Implementations must be
  /// thread-safe without serializing the per-packet path (see
  /// mpit::Runtime for the lock-free RecordingPlan this enables).
  virtual int on_send(const PktInfo& /*pkt*/, int /*caller_world*/) {
    return 0;
  }
  /// After a send charged its costs, on the sender's thread. `tx_start` is
  /// when the wire transfer began (>= t0 under NIC contention), `arrival`
  /// when the packet reaches the receiver (< 0 for a transmission the
  /// fault plan lost), `t1` the sender's clock after the send completed
  /// locally. RMA transfers do not raise it. Times are virtual seconds.
  virtual void on_send_done(int /*rank*/, const PktInfo& /*pkt*/,
                            double /*t0*/, double /*tx_start*/,
                            double /*arrival*/, double /*t1*/) {}
  /// At receive completion, on the receiver's thread while its inbox mutex
  /// is held (thread backend): must be lock-free with respect to
  /// clock-advancing paths.
  /// `pre` is the receiver's clock when it matched, `arrival` the packet
  /// arrival time, `t1` the completion clock (max(pre, arrival) +
  /// recv_overhead).
  virtual void on_recv(int /*rank*/, const PktInfo& /*pkt*/, double /*pre*/,
                       double /*arrival*/, double /*t1*/) {}

  /// Width of the virtual-time epoch grid this observer wants on_epoch
  /// for; 0 (the default) asks for none. Read once per run; every observer
  /// asking for a grid must ask for the same width.
  virtual double epoch_period_s() const { return 0.0; }
  /// On a rank's own context whenever its virtual clock crosses an epoch
  /// boundary, and once more when the rank exits with final_flush = true
  /// (including crash teardown, so a crashed rank's last partial epoch is
  /// still flushed). Disarmed, the per-operation cost is one double
  /// compare.
  virtual void on_epoch(int /*rank*/, double /*now_s*/,
                        bool /*final_flush*/) {}

  /// Once per Engine::run, after the per-run resets and before any rank
  /// context exists: the engine is quiescent, so this is also the grace
  /// period for state retired during the previous run.
  virtual void on_run_begin() {}
  /// Once per Engine::run, in list order, after every rank finished and
  /// BEFORE a recorded rank failure is rethrown, so exporters keep
  /// everything flushed up to the failure. An observer whose run end
  /// needs another layer's results calls that layer itself.
  virtual void on_run_end() {}

 private:
  friend class Engine;
  std::atomic<bool> packets_armed_{false};
};

/// Per-communicator error-handling mode, the MPI_ERRORS_ARE_FATAL /
/// MPI_ERRORS_RETURN analog. Under `fatal` (the default) an operation that
/// depends on a crashed rank records the error and tears the whole run
/// down; under `ret` it throws a typed RankFailedError/TimeoutError that
/// the calling layer may catch and turn into a degraded result.
enum class ErrMode { fatal, ret };

/// Rank execution backend. `threads` spawns one OS thread per rank;
/// `fibers` runs every rank as a stackful ucontext fiber of the calling
/// thread, switched cooperatively at the engine's blocking points (inbox
/// waits, timed receives, NIC-gate waits) and dispatched from a min-heap
/// ready queue keyed by virtual time. Virtual clocks are bit-identical
/// across the two backends; fibers exist so world size stops being bounded
/// by what the OS scheduler tolerates.
enum class SchedMode { threads, fibers };

const char* sched_mode_name(SchedMode mode);

enum class BcastAlgo { binomial, linear };
enum class ReduceAlgo { binary_tree, binomial, linear };
enum class AllreduceAlgo { recursive_doubling, reduce_bcast };
enum class AllgatherAlgo { ring, bruck };
enum class GatherAlgo { binomial, linear };
enum class BarrierAlgo { dissemination, tree };
enum class AlltoallAlgo { pairwise };

/// Per-collective algorithm selection. Defaults match the paper's Fig. 5
/// captions: binomial-tree broadcast, binary-tree reduce.
struct CollAlgos {
  BcastAlgo bcast = BcastAlgo::binomial;
  ReduceAlgo reduce = ReduceAlgo::binary_tree;
  AllreduceAlgo allreduce = AllreduceAlgo::recursive_doubling;
  AllgatherAlgo allgather = AllgatherAlgo::ring;
  GatherAlgo gather = GatherAlgo::binomial;
  BarrierAlgo barrier = BarrierAlgo::dissemination;
  AlltoallAlgo alltoall = AlltoallAlgo::pairwise;
};

struct EngineConfig {
  net::CostModel cost_model;
  /// world rank -> processing unit; size defines the world size.
  topo::Placement placement;
  /// Optional fabric selection ("tree" | "fattree:<k,l,osub>" |
  /// "dragonfly:<a,g,h>[,valiant]", see topo::parse_fabric_spec). When set
  /// -- or when the strict-parsed MPIM_TOPO environment variable overrides
  /// it -- the engine replaces cost_model with
  /// CostModel::for_fabric(make_fabric(spec)) sized to hold the placement,
  /// keeping the configured placement when it still fits the new fabric's
  /// leaves and falling back to round-robin otherwise. Empty (the default)
  /// keeps cost_model exactly as configured; garbage is rejected with a
  /// logged warning and the configured model stands, so a bad MPIM_TOPO
  /// degrades to the tree default instead of crashing the run.
  std::string fabric;
  CollAlgos coll{};
  /// Receiver-side per-message software overhead (seconds).
  double recv_overhead_s = 2.0e-7;
  /// Virtual cost charged to the sender per monitoring record made while
  /// at least one session is active; reproduces the paper's Fig. 4
  /// "monitoring on vs off" contrast (< 5 us in the worst case there).
  double monitor_event_cost_s = 4.0e-8;
  /// Virtual seconds per floating-point operation (Ctx::compute_flops).
  double flop_time_s = 5.0e-10;  // ~2 GFlop/s per core
  /// Optional OS-noise model: every send additionally costs a uniform
  /// 0..os_noise_s drawn from a per-rank deterministic stream seeded with
  /// (noise_seed, rank, run number). Default off: fully deterministic
  /// clocks. The Fig. 4 overhead experiment turns it on so its Welch
  /// confidence intervals have real spread to work against.
  double os_noise_s = 0.0;
  unsigned long noise_seed = 0;
  /// NIC contention model. When enabled, every inter-node message reserves
  /// busy time on the sending node's tx port and the receiving node's rx
  /// port (at the inter-node link bandwidth), so concurrent flows through
  /// one NIC serialize -- the effect that makes rank reordering pay off in
  /// the paper's Figures 5-7. To keep results deterministic, inter-node
  /// sends are globally ordered by (virtual clock, rank): a sender
  /// proceeds only when no other live, unblocked rank could still issue an
  /// earlier send (conservative min-clock gate). Off by default: without
  /// it the engine is embarrassingly parallel and clocks depend only on
  /// per-message costs.
  bool nic_contention = false;
  /// Ratio of the NIC port's wire rate to the single-flow effective
  /// bandwidth of the cost model (an Omni-Path port moves ~12.5 GB/s while
  /// one flow sustains ~6 GB/s end to end). Port busy periods are
  /// bytes / (beta * this); 1.0 means the port is no faster than a flow.
  double nic_port_beta_scale = 1.0;
  bool enable_nic_counters = true;
  /// Wall-clock watchdog: if every live rank stays blocked this long with
  /// no delivery progress, declare a deadlock in the simulated program.
  /// The effective timeout is scaled with the world size (big worlds make
  /// slower wall-clock progress on an oversubscribed host) and can be
  /// overridden with the MPIM_WATCHDOG_S environment variable.
  double watchdog_wall_timeout_s = 20.0;
  /// Rank execution backend (see SchedMode). Overridable per run with the
  /// strict-parsed MPIM_SCHED=threads|fibers environment variable; invalid
  /// values are rejected with a logged warning and this field stands.
  /// Threads remain the default until fiber parity is proven on a
  /// workload-by-workload basis; every suite workload is already
  /// bit-identical across the two (tests/sched_test.cpp).
  SchedMode sched = SchedMode::threads;
  /// Usable stack bytes per rank fiber (fiber mode only; rounded up to
  /// whole pages, with a guard page below). mmap keeps untouched pages
  /// off the RSS, so 4096 ranks cost ~1 GiB of address space, not memory.
  std::size_t fiber_stack_bytes = 256 * 1024;
  /// Optional deterministic fault plan (src/fault/fault_plan.h). When set,
  /// the engine consults it on every send and at every operation boundary:
  /// link jitter/drops/degradation shape message timing, rank crashes
  /// terminate rank threads at their virtual crash time, and peers blocked
  /// on a dead rank fail with RankFailedError instead of deadlocking.
  std::shared_ptr<fault::FaultPlan> fault_plan = nullptr;
};

class Ctx;
class FiberSched;

class Engine {
 public:
  explicit Engine(EngineConfig cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int world_size() const { return static_cast<int>(cfg_.placement.size()); }
  const EngineConfig& config() const { return cfg_; }
  const net::CostModel& cost_model() const { return cfg_.cost_model; }
  const topo::Topology& topology() const {
    return cfg_.cost_model.topology();
  }
  const topo::Fabric& fabric() const { return cfg_.cost_model.fabric(); }
  net::NicCounters& nic() { return nic_; }
  Comm world_comm() const { return world_comm_; }

  /// Host-side telemetry (metrics + spans). Disabled by default; enabling
  /// it never charges virtual time, so simulated clocks are unaffected.
  telemetry::Hub& telemetry() { return hub_; }
  const telemetry::Hub& telemetry() const { return hub_; }

  /// Appends `obs` to the ordered observer list. The caller keeps
  /// ownership and must detach it before destroying it. Attach and detach
  /// only while no run() is in progress; a new observer starts disarmed.
  void attach(Observer& obs);
  /// Same, and the engine shares ownership until detach or its own
  /// destruction (layers that outlive the handle their attach returned).
  void attach(std::shared_ptr<Observer> obs);
  /// Removes `obs` (disarming it first); a no-op when it is not attached.
  void detach(Observer& obs);

  /// Turns packet events on or off for an attached observer. Safe from any
  /// thread, including mid-run: stale reads are benign, and a thread always
  /// observes its own arm/disarm in program order, which is what
  /// virtual-clock determinism needs.
  void arm_packets(Observer& obs, bool on);

  /// The first attached observer whose dynamic type is T, or nullptr. T
  /// is final, so a typeid compare is the whole match: several times
  /// cheaper than a dynamic_cast on lookups made per MPI_M_* call.
  template <typename T>
  T* find() const {
    static_assert(std::is_final_v<T>, "find<T>() matches exact types");
    for (const Attached& a : observers_)
      if (typeid(*a.obs) == typeid(T)) return static_cast<T*>(a.obs);
    return nullptr;
  }

  /// Runs `rank_main` once per rank -- on one OS thread per rank, or as
  /// cooperatively scheduled fibers of the calling thread, per the
  /// resolved SchedMode -- waits for every rank to finish, and rethrows
  /// the first exception any rank raised.
  void run(const std::function<void(Ctx&)>& rank_main);

  /// Backend the current/last run() resolved (config + MPIM_SCHED).
  SchedMode sched_mode() const { return run_sched_mode_; }

  /// Highest virtual clock reached by any rank during the last run().
  double max_virtual_time() const { return max_virtual_time_; }
  /// Per-rank final clocks of the last run().
  const std::vector<double>& final_clocks() const { return final_clocks_; }

  /// Error-handling mode of a communicator (default ErrMode::fatal).
  /// Collective by convention: every member should set the same mode.
  void set_errmode(const Comm& comm, ErrMode mode);
  ErrMode errmode(const Comm& comm) const;

  /// Rank-failure observation (FaultPlan crashes). Valid during and after
  /// run(); cleared when the next run starts.
  bool rank_dead(int world_rank) const;
  /// Virtual clock at which the rank crashed (meaningless unless dead).
  double dead_time(int world_rank) const;
  /// World ranks that crashed during the last/current run, ascending.
  std::vector<int> dead_ranks() const;

  /// The watchdog timeout actually used: MPIM_WATCHDOG_S when set in the
  /// environment (invalid values are rejected with a logged warning), else
  /// watchdog_wall_timeout_s scaled by world size.
  double effective_watchdog_s() const;

  /// ULFM-style revocation (see minimpi/ft.h). Marks the communicator
  /// unusable engine-wide: member ranks blocked in or entering non-tool
  /// operations on it raise CommRevokedError (honoring the communicator's
  /// errmode). Tool-kind traffic is exempt so the monitoring plane and the
  /// recovery protocols (shrink/agree) keep working on a revoked comm.
  /// Revocation observation is wall-clock racy by nature; clock
  /// determinism on a revoked communicator is deliberately given up (the
  /// escape hatch trades reproducibility for liveness) and resumes on the
  /// shrunk successor. State is cleared when the next run() starts.
  void revoke_comm(const Comm& comm);
  bool comm_revoked(const Comm& comm) const;

  /// Records `err` as the run's failure, tears every rank down and throws
  /// AbortError on the calling thread (run() rethrows `err`). The
  /// fatal-errmode failure path.
  [[noreturn]] void fail_run(std::exception_ptr err);

  /// Deterministic communicator interning: all ranks deriving a child
  /// communicator compute the same key and receive the same impl.
  Comm intern_comm(const std::string& key, std::vector<int> world_group);

  /// Interning for tool-layer shared state (e.g. RMA windows): the first
  /// rank to present `key` runs `factory`, everyone else gets the same
  /// object. The registry is cleared at the start of each run().
  std::shared_ptr<void> get_or_create_tool_object(
      const std::string& key,
      const std::function<std::shared_ptr<void>()>& factory);

 private:
  friend class Ctx;

  struct InFlight {
    /// Payloads up to this size travel inside the message: scalar
    /// reductions and comm_split's 12-byte blocks skip the heap.
    static constexpr std::size_t kInlineBytes = 16;
    PktInfo info;
    double arrival_s = 0.0;
    std::unique_ptr<std::byte[]> heap;  ///< payloads over kInlineBytes
    bool has_payload = false;           ///< false for timing-only messages
    alignas(8) std::byte inline_bytes[kInlineBytes];

    void set_payload(const void* buf, std::size_t bytes) {
      std::byte* dst = inline_bytes;
      if (bytes > kInlineBytes) {
        heap = std::make_unique_for_overwrite<std::byte[]>(bytes);
        dst = heap.get();
      }
      std::memcpy(dst, buf, bytes);
      has_payload = true;
    }
    const std::byte* payload() const {
      if (!has_payload) return nullptr;
      return heap != nullptr ? heap.get() : inline_bytes;
    }
  };

  /// A rank's arrival-ordered mailbox. Matching mostly takes the oldest
  /// message, which only advances `head`, and the storage is reused once
  /// it drains: a steady exchange allocates nothing per message.
  class Inbox {
   public:
    using iterator = std::vector<InFlight>::iterator;
    std::size_t size() const { return msgs_.size() - head_; }
    iterator begin() {
      return msgs_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    iterator end() { return msgs_.end(); }
    void push(InFlight&& msg) { msgs_.push_back(std::move(msg)); }
    void erase(iterator it) {
      if (it == begin()) {
        it->heap.reset();
        ++head_;
      } else {
        msgs_.erase(it);
      }
      if (head_ == msgs_.size()) {
        clear();
      } else if (head_ >= 64 && 2 * head_ >= msgs_.size()) {
        msgs_.erase(msgs_.begin(), begin());  // never drains: compact
        head_ = 0;
      }
    }
    void clear() {
      msgs_.clear();
      head_ = 0;
    }

   private:
    std::vector<InFlight> msgs_;
    std::size_t head_ = 0;
  };

  struct RankState {
    std::mutex mutex;
    std::condition_variable cv;
    Inbox inbox;
    std::uint64_t inbox_version = 0;  ///< bumped on every push
  };

  RankState& rank_state(int world_rank) {
    return *ranks_[static_cast<std::size_t>(world_rank)];
  }

 public:
  /// What a rank is blocked in, for the structured deadlock report. Kept in
  /// a table guarded by its own mutex (never held while sleeping) so any
  /// rank can snapshot all peers without lock-ordering hazards.
  struct PendingOp {
    enum class What : std::uint8_t { none, recv, exited, crashed };
    What what = What::none;
    int src_world = kAnySource;
    int tag = 0;
    CommKind kind = CommKind::p2p;
    int context_id = -1;
    double clock_s = 0.0;
  };
  void set_pending(int rank, const PendingOp& op);
  void clear_pending(int rank, PendingOp::What terminal = PendingOp::What::none);
  /// Multi-line report naming every rank, its pending operation and its
  /// virtual clock; `reporter` is the rank whose watchdog fired.
  std::string deadlock_report(int reporter) const;

 private:
  friend class Ctx;

  /// The packet-event gate: the one atomic load a send or a receive
  /// completion pays when no observer is armed.
  bool packets_armed() const {
    return packets_armed_.load(std::memory_order_acquire) > 0;
  }
  template <typename F>
  void for_armed(F&& f) const {
    for (const Attached& a : observers_)
      if (a.obs->packets_armed_.load(std::memory_order_relaxed)) f(*a.obs);
  }

  /// Locks `m` on the thread backend only: a fiber run executes every
  /// rank on one OS thread, so the per-message paths skip the engine's
  /// mutexes there (the returned lock then owns nothing).
  std::unique_lock<std::mutex> lock_unless_fibers(std::mutex& m) const {
    if (fiber_ != nullptr) return {m, std::defer_lock};
    return std::unique_lock<std::mutex>(m);
  }

  void deliver(InFlight&& msg);
  void record_error(std::exception_ptr err);
  void abort_all();
  /// Per-rank prologue/workload/epilogue shared by both backends: runs on
  /// the rank's own thread in thread mode, inside the rank's fiber in
  /// fiber mode.
  void rank_body(int r, const std::function<void(Ctx&)>& rank_main);
  void run_threads(const std::function<void(Ctx&)>& rank_main);
  void run_fibers(const std::function<void(Ctx&)>& rank_main);
  /// cfg_.sched unless a valid MPIM_SCHED overrides it (strict-parsed;
  /// garbage is rejected with a logged warning).
  SchedMode resolve_sched_mode() const;
  /// Marks a rank dead at virtual time `when` and wakes every blocked rank
  /// (the failure notification broadcast).
  void mark_dead(int world_rank, double when_s);

  // --- deterministic NIC-contention scheduler (cfg_.nic_contention) ------
  struct Sched {
    using St = MinClockGate::St;
    std::mutex mx;
    MinClockGate gate;
    std::vector<std::unique_ptr<std::condition_variable>> cvs;
  };

  /// Requires sched_.mx held: updates one entry and wakes the new minimum
  /// if it is waiting at the gate.
  void sched_update_locked(int rank, Sched::St st, double clock);

  Sched sched_;
  /// Per-fabric-link busy horizon (virtual seconds). On a tree fabric the
  /// links are per-node tx ports [0, N) and rx ports [N, 2N), reproducing
  /// the historical NIC-port reservations bit for bit; routed fabrics
  /// reserve every trunk/global link of the route.
  std::vector<double> link_busy_;

  EngineConfig cfg_;
  telemetry::Hub hub_;
  struct Attached {
    Observer* obs = nullptr;
    std::shared_ptr<Observer> owner;  ///< null for caller-owned observers
  };
  /// Declared after hub_ so engine-owned observers die before it.
  std::vector<Attached> observers_;
  /// Number of attached observers currently armed for packet events.
  std::atomic<int> packets_armed_{0};
  double epoch_period_s_ = 0.0;  ///< resolved per run; 0 disables the grid
  net::NicCounters nic_;
  Comm world_comm_;
  std::vector<std::unique_ptr<RankState>> ranks_;

  std::mutex comm_mutex_;
  std::unordered_map<std::string, Comm> comm_registry_;
  int next_context_id_ = 1;  // 0 is the world communicator

  std::mutex tool_objects_mutex_;
  std::unordered_map<std::string, std::shared_ptr<void>> tool_objects_;

  mutable std::mutex errmode_mutex_;
  std::unordered_map<int, ErrMode> errmodes_;  ///< context id -> mode

  mutable std::mutex revoke_mutex_;
  std::unordered_set<int> revoked_;      ///< revoked context ids
  std::atomic<int> revoked_count_{0};    ///< fast path: 0 = nothing revoked

  mutable std::mutex fail_mutex_;
  std::vector<double> dead_at_;  ///< crash clock per rank; < 0 when alive
  std::atomic<int> dead_count_{0};

  mutable std::mutex pending_mutex_;
  std::vector<PendingOp> pending_;

  double watchdog_s_ = 20.0;  ///< resolved once per run()

  std::atomic<bool> abort_{false};
  std::atomic<int> blocked_{0};
  std::atomic<int> alive_{0};
  std::atomic<std::uint64_t> deliveries_{0};

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  double max_virtual_time_ = 0.0;
  std::vector<double> final_clocks_;
  std::uint64_t run_count_ = 0;

  SchedMode run_sched_mode_ = SchedMode::threads;
  /// Non-null exactly while a fiber-mode run() is inside the scheduler;
  /// wake paths (deliver, crash/revoke broadcast, NIC-gate hand-off,
  /// abort) consult it instead of the condition variables.
  std::unique_ptr<FiberSched> fiber_;
  /// Per-rank live Ctx registry for the scheduler-owned current-context
  /// pointer: the fiber dispatcher repoints the executing-context slot
  /// from it at every switch (thread mode writes each slot from the
  /// owning rank thread only).
  std::vector<Ctx*> run_ctx_;
};

/// Thrown inside rank threads when another rank failed and the run is being
/// torn down; run() reports the original error instead.
class AbortError : public Error {
 public:
  AbortError() : Error("engine run aborted") {}
};

/// Internal control-flow exception: a FaultPlan crash terminates the rank
/// thread without aborting the run. Deliberately not derived from Error so
/// application catch(Error&) handlers cannot keep a dead rank alive.
struct RankCrashExit {
  double crash_time_s = 0.0;
};

/// Per-rank execution context. Created by Engine::run for each rank thread;
/// also reachable as Ctx::current() for the MPI-style free functions.
class Ctx {
 public:
  int world_rank() const { return world_rank_; }
  double now() const { return clock_; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  Comm world() const { return engine_->world_comm(); }

  /// Advances the virtual clock (models computation or sleeping).
  void advance(double seconds);
  /// Advances the clock by flops * flop_time.
  void compute_flops(double flops);

  /// Transport used by api.cpp and the collective algorithms. `src_world`
  /// may be kAnySource. Buffers may be null for timing-only traffic.
  void send_bytes(int dst_world, const Comm& comm, int tag, CommKind kind,
                  const void* buf, std::size_t bytes);
  Status recv_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                    void* buf, std::size_t capacity);
  /// Non-blocking matching attempt; on success behaves exactly like
  /// recv_bytes. No clock charge on failure.
  bool try_recv_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                      void* buf, std::size_t capacity, Status* status);
  /// Failure-aware bounded receive: like recv_bytes but gives up after
  /// `wall_timeout_s` of host time with no match (RecvWait::timeout) and
  /// returns promptly when a specific source rank is dead
  /// (RecvWait::peer_dead, clock advanced to the crash time). Never throws
  /// typed failures itself -- callers choose between degrading and raising.
  enum class RecvWait { ok, timeout, peer_dead };
  RecvWait recv_bytes_wait(int src_world, const Comm& comm, int tag,
                           CommKind kind, void* buf, std::size_t capacity,
                           Status* status, double wall_timeout_s);
  /// Non-consuming, non-blocking probe.
  bool iprobe_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                    Status* status);

  /// One-sided transfer: charges the calling rank the modeled transfer
  /// time, reports the traffic to the packet observers attributed to
  /// `from_world` (for a get, the target transmits), and feeds the NIC
  /// counters. No mailbox delivery: RMA moves data via shared memory.
  void rma_transfer(int from_world, int to_world, const Comm& comm,
                    std::size_t bytes);

  // --- ULFM-style failure acknowledgement (see minimpi/ft.h) -------------
  /// Snapshots the engine's currently-detected failures among `comm`'s
  /// members into this rank's acked set; returns how many members are now
  /// acked. Deterministic when called after an operation that observed the
  /// failure (a recv that raised RankFailedError, comm_shrink, comm_agree):
  /// the observing operation happens-after the crash mark.
  int ack_failures(const Comm& comm);
  /// Group ranks acked as failed for `comm`, ascending.
  std::vector<int> acked_failures(const Comm& comm) const;
  /// True when world rank `world_rank` has been acked as failed for `comm`.
  bool failure_acked(const Comm& comm, int world_rank) const;
  /// Merges a group-rank failure bitmap into the acked set (comm_shrink's
  /// agreed dead set, which may run ahead of local detection).
  void ack_failure_bitmap(const Comm& comm,
                          const std::vector<std::uint8_t>& dead_by_group);
  /// Advances the clock to a dead rank's crash time, exactly as a receive
  /// that observed the failure would: failure-aware paths that skip a dead
  /// contributor still complete at a deterministic virtual instant.
  void observe_rank_failure(int world_rank);

  /// Collective sequence number for a communicator: identical across all
  /// member ranks because collectives execute in the same order on each.
  std::uint32_t next_coll_seq(const Comm& comm);
  /// Sequence for communicator-management epochs (split/dup).
  std::uint32_t next_mgmt_seq(const Comm& comm);

  /// The context of the calling rank thread; fails outside Engine::run.
  static Ctx& current();

 private:
  friend class Engine;
  Ctx(Engine* engine, int world_rank)
      : engine_(engine), world_rank_(world_rank) {}

  /// Predicate-checked blocking wait on this rank's inbox with watchdog.
  template <typename Pred>
  void wait_on_inbox(std::unique_lock<std::mutex>& lock, Pred&& ready);

  /// Consults the fault plan at an operation boundary: applies one-shot
  /// stalls and terminates the rank (RankCrashExit) past its crash time.
  /// Without a plan, one pointer test.
  void fault_check() {
    if (engine_->cfg_.fault_plan != nullptr) apply_fault_plan();
  }
  void apply_fault_plan();

  /// Epoch gate: one double compare when the clock has not crossed the
  /// next epoch boundary (or no observer asks for epochs:
  /// next_epoch_s_ = +inf). Called at clock-advancing sites; never charges
  /// virtual time itself.
  void epoch_check() {
    if (clock_ >= next_epoch_s_) epoch_cross();
  }
  /// Slow path of epoch_check: raises on_epoch and re-arms the boundary.
  void epoch_cross();
  /// Raises the failure for an operation whose peer rank is dead: fatal
  /// errmode tears the run down, ret mode throws RankFailedError. `op`
  /// names the operation for the message ("recv", "send", ...).
  [[noreturn]] void raise_peer_dead(int peer_world, const Comm& comm, int tag,
                                    const char* op = "recv");
  /// Raises CommRevokedError for an operation on a revoked communicator,
  /// honoring the communicator's errmode like raise_peer_dead.
  [[noreturn]] void raise_revoked(const Comm& comm, const char* op);

  /// NIC-contention path of an inter-node transfer: waits at the min-clock
  /// gate, reserves the links of `plan` and returns the arrival time (out
  /// param: actual transmission start >= current clock).
  double contended_transfer(const net::RoutePlan& plan, double tx_s,
                            double* tx_start);

  /// What sending to one destination leaf costs, from this rank's leaf:
  /// pure functions of the leaf pair (the route plan also of the path
  /// latency), kept for the last destination only. It hits when a rank
  /// sends to one leaf several times in a row, as in comm_split's ring
  /// allgather; traffic that alternates between peers (a halo's four
  /// neighbours) misses on nearly every send.
  struct PeerCost {
    int leaf = -1;
    net::LinkParams path{};
    bool crosses = false;
    bool have_plan = false;
    double plan_alpha_s = 0.0;  ///< path latency `plan` was built for
    net::RoutePlan plan;
  };
  const PeerCost& peer_cost(int leaf_src, int leaf_dst);
  /// The route plan to the destination of the last peer_cost() call.
  const net::RoutePlan& route_plan_to(int leaf_src, double alpha_s);

  bool match_and_complete(int src_world, const Comm& comm, int tag,
                          CommKind kind, void* buf, std::size_t capacity,
                          Status* status, bool consume_clock);

  Engine* engine_;
  int world_rank_;
  double clock_ = 0.0;
  /// Next epoch boundary the clock has not crossed yet; +inf when no
  /// observer asks for epochs (set up by Engine::run per rank thread).
  double next_epoch_s_ = std::numeric_limits<double>::infinity();
  Rng noise_rng_{0};
  PeerCost peer_;
  /// Monotone per-sender packet counter backing PktInfo::send_seq. Host
  /// bookkeeping only: stamping it charges no virtual time.
  std::uint64_t send_seq_ = 0;
  std::unordered_map<int, std::uint32_t> coll_seq_;
  std::unordered_map<int, std::uint32_t> mgmt_seq_;
  /// context id -> group-rank bitmap of acked failures (rank-local state,
  /// touched only by this rank's thread).
  std::unordered_map<int, std::vector<std::uint8_t>> ft_acked_;
};

}  // namespace mpim::mpi
