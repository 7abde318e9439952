// The deterministic virtual-time scheduler.
//
// Every actor (MPI rank) is a fiber with its own virtual clock. Whenever
// an actor is about to *interact* with shared simulation state it ends
// its slice through sync() or sync_local() and resumes when that slice
// is the lowest event in the heap. All interactions therefore execute in
// one deterministic total order, which makes the simulation both causal
// and bit-for-bit reproducible.
//
// Events. The scheduler runs three kinds of events from one heap, popped
// in the order of the key (t, kind, a, b) (Key, below):
//   - timed events (kind 0): message deliveries applied at their arrival
//     time, keyed (arrival, source actor, seq);
//   - local slices (kind 1): fiber resumptions enqueued by sync_local()
//     and park wakeups, keyed (clock, actor id);
//   - global slices (kind 2): fiber resumptions enqueued by sync() and
//     every actor's first slice, keyed (clock, actor id).
// Deliveries order before slices at equal time, and a slice's same-time
// re-enqueue orders after the slice itself, so every push during an
// event carries a key >= the executing event's key (the engine clamps
// unpark wake times to enforce this): the pop order is monotone.
//
// Every event is a 32-byte plain record (Event, below): a key, an actor
// and a 32-bit token. A timed event names its target actor and an opaque
// token; the engine passes both to the one timed-event handler the owner
// registered (set_timed_handler()). The machine stores the in-flight
// message in a pooled slab and hands the slot index over as the token
// (DESIGN.md §5), so the heap never moves a closure or a message.
//
// Yield elision: when sync()/sync_local() would enqueue a key that sorts
// below the heap's top — or the heap is empty — the loop would pop that
// very slice next. The engine then skips the push, the pop and both
// fiber switches and replays exactly what the slice boundary does
// (yielded/resumed observer calls, a fresh executing context with the
// actor's seq counter carried over), so the slice sequence every
// observer sees is unchanged.
//
// Continuation slices: an actor may hand the rest of a blocking sequence
// to a continuation (Actor::suspend()). Its later slices pop exactly as
// before, but the engine calls the one continuation handler the owner
// registered instead of switching to the fiber, and the fiber resumes
// inside the slice where the handler reports the work done. Fibers and
// continuations cross slice boundaries through one test (sync_boundary),
// so keys, elision and observer calls are the same either way.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/fiber.h"
#include "sim/time.h"
#include "verify/observer.h"

namespace mcio::sim {

class Engine;

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

  /// Ends the slice with a global slice (kind 2) at the actor's clock:
  /// at equal virtual time it resumes after every delivery and every
  /// local slice. Called before touching machine-wide state (PFS,
  /// memory managers, the ladder, fabric borrow).
  void sync();

  /// Ends the slice with a local slice (kind 1) at the actor's clock: at
  /// equal virtual time it resumes after every delivery but before every
  /// global slice. Called on the message path (endpoint, NIC, membus and
  /// shm queues).
  void sync_local();

  /// Blocks until another actor calls Engine::unpark() on this id. The
  /// clock after waking is max(clock at park, wake time). If an unpark
  /// arrived while this actor was still runnable (a wakeup token),
  /// park() consumes it and returns without blocking.
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

/// Owns the fibers and the event heap; runs the simulation to completion.
class Engine {
 public:
  struct Options {
    std::size_t stack_bytes = 256 * 1024;
  };

  /// Event ordering key; see the file comment. kind: 0 = timed event
  /// (a = stamping actor, b = seq), 1 = local slice, 2 = global slice
  /// (a = actor id, b = -1).
  struct Key {
    SimTime t = 0.0;
    int kind = 0;
    int a = -1;
    std::int64_t b = -1;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  Engine();
  explicit Engine(Options options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor; returns its id (dense, starting at 0). Must be
  /// called before run().
  int spawn(std::function<void(Actor&)> body);

  /// Runs all actors to completion. Throws util::Error on deadlock and
  /// re-throws the first exception escaping an actor body.
  void run();

  /// Wakes a parked actor; its clock becomes max(current, wake time,
  /// the executing event's time — a wakeup can never rewind the pop
  /// order). If the target is not parked (still runnable, or the unpark
  /// raced ahead of its park), a wakeup token is recorded and the
  /// target's next park() consumes it instead of blocking. Callable
  /// from inside a running actor or before run().
  void unpark(int actor_id, SimTime not_before);

  /// True when the given actor is parked.
  bool is_parked(int actor_id) const;

  std::size_t num_actors() const { return actors_.size(); }

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

  /// Schedules a timed event at virtual time `t`, keyed (t, stamping
  /// actor, seq). When it pops, the timed handler runs with
  /// (target_actor, token). The machine uses this to apply message
  /// deliveries at their arrival time; the token is the envelope's slab
  /// slot. Callable from a slice only; `t` must be >= the slice's time.
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

  enum class State { kReady, kRunning, kParked, kDone };

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
    /// slices of one actor cannot collide).
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

  /// What the executing event is, for keying the timed events it posts:
  /// its key time, the stamping actor and that actor's seq counter.
  /// Slices load and store the actor's persistent counter.
  struct ExecCtx {
    SimTime t = 0.0;
    int src = -1;
    std::int64_t next_seq = 0;
    /// Slices may post; timed events (deliveries) wake their target but
    /// never post.
    bool may_post = false;
  };

  /// The slice boundary of sync()/sync_local() and their continuation
  /// forms: returns true when the loop would pop a `kind` slice of `id`
  /// straight back, after replaying the boundary in place (see the file
  /// comment); otherwise enqueues that slice and returns false, and the
  /// caller must end the executing slice.
  bool sync_boundary(int id, int kind);
  /// Parks `id` unless a wakeup token is pending (consumed: true).
  bool park_boundary(int id);
  void yield_from(int id);  // fiber -> scheduler
  void enqueue_slice(int id, int kind);
  void body_wrapper(int id, const std::function<void(Actor&)>& body);
  /// Executes one popped event: resumes a slice, or calls the timed
  /// handler.
  void run_event(Event ev);
  void check_no_deadlock();

  Options options_;
  std::vector<ActorSlot> actors_;
  std::vector<std::function<void(Actor&)>> pending_bodies_;
  EventHeap heap_;
  FiberContext main_ctx_{};
  ExecCtx exec_;
  verify::Observer* observer_;
  TimedHandler timed_handler_;
  ContinuationHandler continuation_handler_;
  std::exception_ptr error_;
  std::vector<SimTime> finish_times_;
  bool running_ = false;
};

}  // namespace mcio::sim
