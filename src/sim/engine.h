// The deterministic virtual-time scheduler.
//
// Every actor (MPI rank) is a fiber with its own virtual clock. Whenever
// an actor is about to *interact* with shared simulation state it yields
// through sync() (global-class: waits until it is the globally lowest
// runnable event — used for resources shared across the whole machine:
// PFS queues, memory managers, the degradation ladder, fabric borrow) or
// sync_local() (local-class: message-path interactions that touch only
// state confined to the actor's own shard — its endpoint, its node's
// NIC/membus/shm queues). All interactions therefore execute in one
// deterministic total order, which makes the simulation both causal and
// bit-for-bit reproducible.
//
// Events. The scheduler runs three kinds of events, merged by the key
// (t, kind, a, b) (Key, below):
//   - timed events (kind 0): message deliveries applied at their arrival
//     time, keyed (arrival, source actor, seq);
//   - local slices (kind 1): fiber resumptions enqueued by sync_local(),
//     park wakeups and spawn, keyed (clock, actor id);
//   - global slices (kind 2): fiber resumptions enqueued by sync(),
//     keyed (clock, actor id).
// Deliveries order before slices at equal time, and a slice's same-time
// re-enqueue orders after the slice itself, so every push during an
// event carries a key >= the executing event's key (the engine clamps
// unpark wake times to enforce this) — the pop order is monotone, which
// is what the conservative lookahead mode's commit clocks rely on.
//
// Every event is a 32-byte plain record (Event, below): a key, an actor
// and a 32-bit token. A timed event names its target actor and an opaque
// token; the engine passes both to the one timed-event handler the owner
// registered (set_timed_handler()). The machine stores the in-flight
// message in a pooled slab and hands the slot index over as the token
// (DESIGN.md §5), so the heap never moves a closure or a message.
//
// Yield elision (classic single loop only): when sync()/sync_local()
// would enqueue a key that sorts below the heap's top — or the heap is
// empty — the scheduler would pop that very slice next. The engine then
// skips the push, the pop and both fiber switches and replays exactly
// what the slice boundary does (yielded/resumed observer calls, a fresh
// executing context with the actor's seq counter carried over), so the
// slice sequence every observer sees is unchanged.
//
// Continuation slices: an actor may hand the rest of a blocking sequence
// to a continuation (Actor::suspend()). Its later slices pop exactly as
// before, but the engine calls the one continuation handler the owner
// registered instead of switching to the fiber, and the fiber resumes
// inside the slice where the handler reports the work done. Fibers and
// continuations cross slice boundaries through one test (sync_boundary),
// so keys, elision and observer calls are the same either way.
//
// Sharded mode (Options::threads > 1, DESIGN.md §12): actors are
// partitioned into shards by a spawn-time hint (the machine passes the
// rank's node), each shard's fibers are pinned to one worker thread, and
// the workers jointly replay the same global key pop order under one
// scheduler lock. Cross-shard effects travel through per-shard-pair
// mailboxes as closures stamped with (virtual time, emitter kind,
// source actor, seq) and are merged in that total order at slice
// boundaries — so the
// interleaving, and therefore every byte of output, is identical for any
// thread count. threads == 1 keeps the exact classic single-threaded
// loop.
//
// Conservative lookahead mode (Options::lookahead, DESIGN.md §14): each
// shard runs its own event heap concurrently, gated by per-shard commit
// clocks and a static lookahead matrix L[p][s] (the minimum latency of
// any NIC/fabric channel crossing the shard pair, min-plus closed so the
// triangle inequality holds; from topology.cc). A shard executes a
// local event at time t only while t < min over peers p of
// (commit_p + L[p][s]) and t < min over its own undrained inbox stamps
// (tau + L[src][s]); stamped mailbox items drain in merged (t, kind,
// src, seq) order once every shard's commit clock has passed the
// emitting slice's position in the pop order; global-class slices
// additionally wait until they are the minimum commit key machine-wide
// AND no undrained item in the shard's own inbox precedes them (an item
// emitted by a local slice at the same time sorts first, exactly as its
// emitter did in the sequenced order). Because a cross-shard effect can never land
// earlier than its stamp plus the matrix bound, every shard executes
// exactly the sequenced schedule's per-shard projection and the global
// slices execute in exactly the sequenced total order — output is
// byte-identical (the determinism matrix tests pin this). A matrix with
// a non-positive finite entry (zero-latency topology) cannot open a
// window, so run() degenerates to the sequenced scheduler;
// lookahead_active() reports which path ran.
//
// Lock discipline is machine-checked: shared scheduler state (commit
// clocks, mailboxes, stop/error latches) is MCIO_GUARDED_BY(mu_) and
// clang's -Wthread-safety (CI job clang-thread-safety, DESIGN.md §13)
// proves every access happens either under a visible acquisition or on
// a path whose exclusion the engine guarantees structurally, asserted by
// assert_exclusive(): sequenced mode holds mu_ across every slice, and
// lookahead mode confines each shard's heap, fibers and actor slots to
// the one worker thread that owns them for the whole run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/fiber.h"
#include "sim/time.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "verify/observer.h"

namespace mcio::sim {

class Engine;

/// Aborts (MCIO_CHECK) when the calling thread is a lookahead worker
/// whose executing event is not a global-class slice. Machine-global
/// components (memory managers, per-collective stats vectors) call this
/// at their mutation entry points: a caller that reaches them from a
/// local slice or a delivery would race other shards and make results
/// depend on the scheduler mode — the check turns that silent
/// nondeterminism into a deterministic failure naming the component.
/// Always passes outside a lookahead run (the sequenced schedulers
/// serialize everything).
void assert_global_interaction(const char* what);

/// Per-fiber handle passed to actor bodies. Valid only while the engine is
/// running the owning fiber.
class Actor {
 public:
  int id() const { return id_; }
  SimTime now() const { return clock_; }

  /// Local computation: advances this actor's clock without yielding.
  void advance(SimTime dt);

  /// Moves the clock to at least `t`.
  void advance_to(SimTime t);

  /// Global-class yield: resumes when this actor is the minimum event in
  /// the whole machine. Call before interacting with state shared across
  /// shards (PFS, memory managers, the ladder, fabric borrow).
  void sync();

  /// Local-class yield: resumes in this shard's event order, inside the
  /// lookahead window. Call before message-path interactions that touch
  /// only shard-confined state (the endpoint and the actor's own node's
  /// NIC/membus/shm queues). Identical to sync() under the sequenced
  /// scheduler.
  void sync_local();

  /// Blocks until another actor calls Engine::unpark() on this id. The
  /// clock after waking is max(clock at park, wake time). If an unpark
  /// arrived while this actor was still runnable (the wakeup token of
  /// DESIGN.md §12), park() consumes it and returns without blocking.
  void park();

  /// Continuation forms of sync_local() and park(), for work that runs
  /// outside the fiber (Engine::set_continuation_handler). Each returns
  /// true when the actor goes on in the executing slice: the boundary
  /// was elided, or a wakeup token was consumed. False means the slice
  /// is over, with the actor enqueued (or parked): the caller returns to
  /// the engine, or, on the fiber, calls suspend().
  bool try_sync_local();
  bool try_park();

  /// On the fiber, after a false try_sync_local()/try_park(): ends the
  /// slice and hands every later slice of this actor to the continuation
  /// handler until it returns true. Returns inside that slice.
  void suspend();

  Engine& engine() const { return *engine_; }

 private:
  friend class Engine;
  Actor(Engine* engine, int id) : engine_(engine), id_(id) {}

  Engine* engine_;
  int id_;
  SimTime clock_ = 0.0;
};

/// Owns the fibers and the event heaps; runs the simulation to completion.
class Engine {
 public:
  struct Options {
    std::size_t stack_bytes = 256 * 1024;
    /// Worker threads (= shards) for run(). 1 is the classic
    /// single-threaded loop; any value yields bit-identical results.
    int threads = 1;
    /// Conservative lookahead (DESIGN.md §14): shards advance
    /// concurrently inside the windows of the lookahead matrix instead
    /// of replaying the global order under one lock. Requires a
    /// lookahead provider with strictly positive windows; degenerates to
    /// the sequenced scheduler otherwise. Results are byte-identical
    /// either way.
    bool lookahead = false;
  };

  /// Event ordering key; see the file comment. kind: 0 = timed event
  /// (a = stamping actor, b = seq), 1 = local slice, 2 = global slice
  /// (a = actor id, b = -1). Inbox lower bounds use kind -1.
  struct Key {
    SimTime t = 0.0;
    int kind = 0;
    int a = -1;
    std::int64_t b = -1;
    friend auto operator<=>(const Key&, const Key&) = default;
    static Key infinite() {
      return Key{std::numeric_limits<SimTime>::infinity(), 3, 0, 0};
    }
  };

  /// Monotone counters from the lookahead scheduler, for the soundness
  /// property tests (tests/lookahead_test.cc).
  struct LookaheadStats {
    std::uint64_t items_drained = 0;   ///< stamped mailbox items applied
    std::uint64_t horizon_waits = 0;   ///< times a worker blocked on a gate
    std::uint64_t slices = 0;          ///< events executed in lookahead mode
    /// Minimum observed (delivery time - (stamp + L)) over all drained
    /// items that scheduled one: >= 0 proves the matrix was a sound
    /// lower bound for the whole run.
    double min_slack = std::numeric_limits<double>::infinity();
  };

  Engine();
  explicit Engine(Options options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor; returns its id (dense, starting at 0). Must be
  /// called before run(). `shard_hint` groups actors onto worker threads
  /// in sharded mode (the machine passes the rank's node so co-located
  /// ranks share a shard); hint -1 spreads actors round-robin by id.
  /// The hint can never affect simulated results, only thread placement.
  int spawn(std::function<void(Actor&)> body, int shard_hint = -1);

  /// Runs all actors to completion. Throws util::Error on deadlock and
  /// re-throws the first exception escaping an actor body.
  void run();

  /// Supplies the lookahead matrix for Options::lookahead: called once
  /// per run() with the actor -> shard map, must return a flat
  /// nshards * nshards row-major matrix of per-shard-pair lookahead
  /// windows in seconds (entry [p * nshards + s] bounds how much earlier
  /// than `p's commit + window` an effect from p can reach s; +inf when
  /// p can never reach s). The machine computes it from the cluster
  /// topology (topology.cc).
  void set_lookahead_provider(
      std::function<std::vector<double>(const std::vector<int>& shard_of,
                                        int nshards)>
          provider);

  /// True while (and after) run() executes the concurrent lookahead
  /// scheduler; false when it degenerated to the sequenced path (single
  /// shard, lookahead off, or a non-positive lookahead window).
  bool lookahead_active() const { return la_active_; }

  /// Counters of the last lookahead run (zeros when the sequenced path
  /// ran). Valid after run().
  LookaheadStats lookahead_stats() const;

  /// Wakes a parked actor; its clock becomes max(current, wake time,
  /// the executing event's time — a wakeup can never rewind the pop
  /// order). If the target is not parked (still runnable, or the unpark
  /// raced ahead of its park), a wakeup token is recorded and the
  /// target's next park() consumes it instead of blocking. Callable
  /// from inside a running actor or before run(); under lookahead the
  /// target must live on the calling event's shard.
  void unpark(int actor_id, SimTime not_before);

  /// True when the given actor is parked.
  bool is_parked(int actor_id) const;

  std::size_t num_actors() const {
    assert_exclusive();  // spawn/run are phase-separated; size is stable
    return actors_.size();
  }

  /// Shards the current/last run executes with (1 until run() starts).
  int num_shards() const { return nshards_; }

  /// The shard `actor_id` is pinned to.
  int shard_of(int actor_id) const;

  /// True when `actor_id` lives on a different shard than the actor whose
  /// slice is currently executing. Always false in single-threaded mode —
  /// callers use this to route cross-shard effects through post_stamped().
  bool cross_shard(int actor_id) const;

  /// Defers `apply` to `target_actor`'s shard through the per-shard-pair
  /// mailbox, stamped (current event virtual time, stamping actor, seq).
  /// Mailboxes drain in per-inbox stamp order — at the next slice
  /// boundary under the sequenced scheduler, once every shard's commit
  /// clock passed the stamp under lookahead — which reproduces the
  /// single-threaded interleaving exactly. Unlike post_remote() the
  /// target may live on the calling shard: the lookahead scheduler
  /// routes same-shard cross-node effects through the self-mailbox so
  /// they keep their stamp-order position against other senders.
  void post_stamped(int target_actor, std::function<void()> apply);

  /// post_stamped() restricted to cross-shard targets (checked).
  void post_remote(int target_actor, std::function<void()> apply);

  /// Called for every timed event with its target actor and token, at
  /// the event's virtual time. Must be set before the first post_at();
  /// the machine registers its delivery handler once per run().
  using TimedHandler = std::function<void(int target_actor,
                                          std::uint32_t token)>;
  void set_timed_handler(TimedHandler handler);

  /// Called for each slice of an actor whose fiber is suspended in
  /// Actor::suspend(), in place of the fiber switch. The handler runs the
  /// actor's pending work through the continuation forms of the slice
  /// boundaries and returns true when it is done; the engine then
  /// resumes the fiber inside that same slice. Must be set before run()
  /// if any actor suspends; the machine registers its collective
  /// schedule runner (DESIGN.md §16).
  using ContinuationHandler = std::function<bool(int actor)>;
  void set_continuation_handler(ContinuationHandler handler);

  /// Schedules a timed event on `target_actor`'s shard — which must be
  /// the executing event's own shard — at virtual time `t`, keyed
  /// (t, stamping actor, seq) in the shard's event order. When it pops,
  /// the timed handler runs with (target_actor, token). The machine uses
  /// this to apply message deliveries at their arrival time; the token
  /// is the envelope's slot in the target shard's slab. `t` must be >=
  /// the executing event's time.
  void post_at(int target_actor, SimTime t, std::uint32_t token);

  /// Virtual time at which each actor finished (valid after run()).
  const std::vector<SimTime>& finish_times() const { return finish_times_; }

  /// Max over finish_times().
  SimTime makespan() const;

  /// The verification observer notified of scheduling events (never
  /// null; defaults to verify::global_observer() or a no-op). Observers
  /// are passive — attaching one cannot change simulated results.
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  friend class Actor;
  friend void assert_global_interaction(const char* what);

  enum class State { kReady, kRunning, kParked, kDone };

  /// Tells the thread-safety analysis that the caller has exclusive
  /// access to the engine's actor/heap state without a visible
  /// acquisition (DESIGN.md §12/§14). True on three structurally
  /// serialized paths: (1) spawn/run setup and unpark before run(),
  /// where no workers exist yet; (2) the sequenced scheduler, where the
  /// worker resuming a slice holds mu_ for the slice's whole duration;
  /// (3) the lookahead scheduler, where every touched object (the
  /// shard's heap, its actor slots, its fibers) is owned by exactly one
  /// worker thread for the whole run and cross-shard effects only
  /// travel through the mu_-guarded mailboxes. Runtime no-op.
  void assert_exclusive() const MCIO_ASSERT_CAPABILITY(mu_) {}

  struct ActorSlot {
    std::unique_ptr<Actor> actor;
    std::unique_ptr<Fiber> fiber;
    State state = State::kReady;
    /// Wakeup token: an unpark that arrived while the actor was
    /// runnable; consumed by the next park() (see unpark()).
    bool wake_token = false;
    SimTime wake_time = 0.0;
    /// Per-actor stamp counter, monotone across this actor's slices in
    /// program order — so (src, seq) is globally unique (two same-time
    /// slices of one actor cannot collide) and identical between the
    /// sequenced and lookahead schedulers.
    std::int64_t next_seq = 0;
    /// The fiber is suspended in Actor::suspend(): slices call the
    /// continuation handler instead of switching to it.
    bool continuation = false;
  };

  /// One schedulable event, plain data so the heap moves 32 bytes per
  /// sift step. A slice (key.kind 1 or 2) resumes `actor`; a timed event
  /// (key.kind 0) calls the timed handler with (actor, token), where
  /// `actor` is the delivery target.
  struct Event {
    Key key;
    int actor = -1;
    std::uint32_t token = 0;
    friend bool operator>(const Event& x, const Event& y) {
      return y.key < x.key;
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) <= 32);

  using EventHeap =
      std::priority_queue<Event, std::vector<Event>, std::greater<>>;

  /// One deferred cross-shard effect. Per-pair boxes are FIFO in
  /// emission order; across boxes items merge by (t, kind, src_actor,
  /// seq) — `kind` is the emitting slice's key kind, so an effect
  /// emitted from a local slice sorts before a global slice at the same
  /// time exactly as its emitter did in the sequenced pop order.
  struct RemoteEvent {
    SimTime t = 0.0;
    int src_actor = -1;
    std::int64_t seq = 0;
    int kind = 1;
    std::function<void()> apply;
  };

  /// What the executing event is, for stamping emissions: its key time,
  /// the stamping actor, and the seq counter shared by post_stamped()
  /// stamps and post_at() keys (so deliveries merge in call order
  /// whether or not they detoured through a mailbox). Slices load/store
  /// the actor's persistent counter; a drained item reuses its own
  /// stamp's (src, seq) so its delivery key is the same whether or not
  /// the effect detoured through a mailbox.
  struct ExecCtx {
    SimTime t = 0.0;
    int src = -1;
    std::int64_t next_seq = 0;
    /// Remaining post budget: -1 unlimited (slices), 1 for drained
    /// mailbox items (exactly the delivery they schedule), 0 for timed
    /// events (deliveries wake their target but never emit).
    int posts_left = -1;
    /// Applying a drained mailbox item under lookahead: arms the
    /// horizon soundness assertions in post_at().
    bool in_item = false;
    SimTime stamp_t = 0.0;  ///< the item's stamp time (in_item only)
    int src_shard = 0;      ///< the item's source shard (in_item only)
    /// Key kind of the executing event, carried into post_stamped()
    /// stamps so drains replay the emitter's position in the sequenced
    /// pop order (local slices before global slices at equal time).
    int kind = 2;
  };

  /// Per-shard scheduler state for the lookahead mode. Owned by that
  /// shard's worker thread for the whole run (assert_exclusive() case 3);
  /// only `commit_` mirrors its frontier under mu_.
  struct ShardRt {
    EventHeap heap;
    FiberContext ctx{};
    ExecCtx exec;
    bool executing = false;
    Key exec_key;            ///< key of the executing event (executing only)
    SimTime frontier = 0.0;  ///< time of the last executed event
    /// First exception escaping one of this shard's fiber bodies;
    /// merged into error_ by the owning worker at the next relock.
    std::exception_ptr error;
  };

  /// The slice boundary of sync()/sync_local() and their continuation
  /// forms: returns true when the classic loop would pop a `kind` slice
  /// of `id` straight back, after replaying the boundary in place (see
  /// the file comment); otherwise enqueues that slice and returns false,
  /// and the caller must end the executing slice.
  bool sync_boundary(int id, int kind) MCIO_REQUIRES(mu_);
  /// Parks `id` unless a wakeup token is pending (consumed: true).
  bool park_boundary(int id) MCIO_REQUIRES(mu_);
  void yield_from(int id) MCIO_REQUIRES(mu_);   // fiber -> scheduler
  void enqueue_slice(int id, int kind) MCIO_REQUIRES(mu_);
  void body_wrapper(int id, const std::function<void(Actor&)>& body)
      MCIO_REQUIRES(mu_);
  void run_single() MCIO_EXCLUDES(mu_);
  void run_sharded() MCIO_EXCLUDES(mu_);
  void worker_loop(int shard) MCIO_EXCLUDES(mu_);
  void lookahead_worker(int shard) MCIO_EXCLUDES(mu_);
  /// Runs one slice of `id` on the calling thread. Sequenced mode keeps
  /// the scheduler lock held throughout; lookahead mode runs it with
  /// only the shard's ownership (fibers never touch mu_ themselves).
  void run_slice(int id, FiberContext* scheduler_ctx) MCIO_REQUIRES(mu_);
  /// Lookahead: executes one event outside the scheduler lock, with the
  /// shard worker's structural ownership (assert_exclusive() case 3).
  void run_event_exclusive(Event ev, int shard) MCIO_EXCLUDES(mu_);
  /// Executes one popped event (slice or timed event) under the
  /// executing context `ctx`.
  void run_event(Event ev, ExecCtx* ctx, FiberContext* scheduler_ctx)
      MCIO_REQUIRES(mu_);
  /// Applies all pending cross-shard events in (t, src_actor, seq) order
  /// (sequenced mode only; lookahead drains per-inbox under the commit
  /// gates).
  void drain_mailboxes() MCIO_REQUIRES(mu_);
  void check_no_deadlock() MCIO_REQUIRES(mu_);
  /// Builds the lookahead matrix and decides whether lookahead can run;
  /// min-plus closes it so the horizon hand-off argument (DESIGN.md §14)
  /// holds on every path.
  bool prepare_lookahead() MCIO_REQUIRES(mu_);
  /// The executing context of the calling thread: the thread-local one
  /// inside a lookahead worker, the engine-wide one otherwise.
  ExecCtx* exec_ctx() MCIO_REQUIRES(mu_);
  const ExecCtx* exec_ctx() const MCIO_REQUIRES(mu_);
  /// Lower bound (as a Key) on everything shard `s` may still execute or
  /// emit: min(executing event, heap top, inbox stamps + lookahead).
  Key shard_commit(int s) const MCIO_REQUIRES(mu_);
  /// Recomputes and publishes commit_[s]; notifies waiters on change.
  void publish_commit(int s) MCIO_REQUIRES(mu_);
  double lookahead_in(int from_shard, int to_shard) const {
    return la_matrix_[static_cast<std::size_t>(from_shard * nshards_ +
                                               to_shard)];
  }

  Options options_;
  std::vector<ActorSlot> actors_ MCIO_GUARDED_BY(mu_);
  std::vector<std::function<void(Actor&)>> pending_bodies_;
  std::vector<int> shard_hints_;
  std::vector<int> shard_of_;
  int nshards_ = 1;
  /// The sequenced schedulers' single event heap, popped in Key order.
  EventHeap heap_ MCIO_GUARDED_BY(mu_);
  FiberContext main_ctx_{};
  /// Per-shard scheduler state. Sequenced sharded mode uses only .ctx
  /// (fibers yield to their worker's context); lookahead mode owns the
  /// whole struct per worker thread.
  std::vector<ShardRt> shards_;
  /// Per-(src shard, dst shard) mailbox of deferred effects, indexed
  /// src * nshards + dst. FIFO per pair; pairs merge by stamp. Guarded
  /// by mu_: the sequenced scheduler already holds it, the lookahead
  /// scheduler takes it for the (brief) post and drain.
  std::vector<std::deque<RemoteEvent>> mailboxes_ MCIO_GUARDED_BY(mu_);
  std::uint64_t pending_remote_ MCIO_GUARDED_BY(mu_) = 0;
  /// The executing event of the sequenced schedulers (one event machine-
  /// wide at a time). Lookahead workers carry theirs in ShardRt::exec.
  ExecCtx seq_exec_ MCIO_GUARDED_BY(mu_);
  /// Per-shard commit clocks (DESIGN.md §14): commit_[s] is a lower
  /// bound on the key of anything shard s may still execute or emit.
  /// Published under mu_ at every scheduling boundary; the horizon and
  /// drain gates read the whole vector under the same acquisition.
  std::vector<Key> commit_ MCIO_GUARDED_BY(mu_);
  LookaheadStats la_stats_ MCIO_GUARDED_BY(mu_);
  std::vector<double> la_matrix_;
  bool la_active_ = false;
  std::function<std::vector<double>(const std::vector<int>&, int)>
      la_provider_;
  /// Scheduler lock: in sequenced sharded mode held by exactly one
  /// worker across each slice + mailbox drain; the single-threaded loop
  /// takes it once for the whole run; the lookahead scheduler takes it
  /// only at scheduling boundaries (gate checks, commit publication,
  /// mailbox posts/drains) and runs events outside it.
  mutable util::Mutex mu_;
  std::condition_variable_any cv_;
  bool stop_ MCIO_GUARDED_BY(mu_) = false;
  verify::Observer* observer_;
  TimedHandler timed_handler_;
  ContinuationHandler continuation_handler_;
  std::exception_ptr error_ MCIO_GUARDED_BY(mu_);
  std::vector<SimTime> finish_times_;
  bool running_ = false;
};

}  // namespace mcio::sim
