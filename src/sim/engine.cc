#include "sim/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace mcio::sim {

namespace {
constexpr double kSlackTolerance = 1e-12;
}  // namespace

void Actor::advance(SimTime dt) {
  MCIO_CHECK_GE(dt, 0.0);
  clock_ += dt;
}

void Actor::advance_to(SimTime t) { clock_ = std::max(clock_, t); }

void Actor::sync() {
  if (!engine_->sync_boundary(id_, /*kind=*/2)) engine_->yield_from(id_);
}

void Actor::sync_local() {
  if (!engine_->sync_boundary(id_, /*kind=*/1)) engine_->yield_from(id_);
}

void Actor::park() {
  if (!engine_->park_boundary(id_)) engine_->yield_from(id_);
}

bool Actor::try_sync_local() {
  return engine_->sync_boundary(id_, /*kind=*/1);
}

bool Actor::try_park() { return engine_->park_boundary(id_); }

void Actor::suspend() {
  MCIO_CHECK_MSG(engine_->continuation_handler_,
                 "suspend() without a continuation handler");
  engine_->actors_[static_cast<std::size_t>(id_)].continuation = true;
  engine_->yield_from(id_);
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : options_(options), observer_(verify::default_observer()) {}

void Engine::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

void Engine::set_timed_handler(TimedHandler handler) {
  MCIO_CHECK_MSG(!running_, "set_timed_handler() after run() started");
  timed_handler_ = std::move(handler);
}

void Engine::set_continuation_handler(ContinuationHandler handler) {
  MCIO_CHECK_MSG(!running_,
                 "set_continuation_handler() after run() started");
  continuation_handler_ = std::move(handler);
}

Engine::~Engine() = default;

int Engine::spawn(std::function<void(Actor&)> body) {
  MCIO_CHECK_MSG(!running_, "spawn() after run() started");
  const int id = static_cast<int>(actors_.size());
  ActorSlot slot;
  slot.actor = std::unique_ptr<Actor>(new Actor(this, id));
  actors_.push_back(std::move(slot));
  pending_bodies_.push_back(std::move(body));
  return id;
}

void Engine::post_at(int target_actor, SimTime t, std::uint32_t token) {
  MCIO_CHECK_MSG(timed_handler_, "post_at() without a timed handler");
  MCIO_CHECK_MSG(exec_.may_post, "post_at() outside a slice");
  MCIO_CHECK_GE(t, exec_.t - kSlackTolerance);
  const Key key{t, /*kind=*/0, exec_.src, exec_.next_seq++};
  heap_.push(Event{key, target_actor, token});
}

void Engine::body_wrapper(int id, const std::function<void(Actor&)>& body) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  try {
    body(*slot.actor);
  } catch (...) {
    if (!error_) error_ = std::current_exception();
  }
  slot.state = State::kDone;
  finish_times_[static_cast<std::size_t>(id)] = slot.actor->now();
  // Falling off the fiber body returns to the scheduler context via the
  // fiber's link.
}

void Engine::run() {
  MCIO_CHECK_MSG(!running_, "run() is not reentrant");
  running_ = true;
  finish_times_.assign(actors_.size(), 0.0);
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    const int id = static_cast<int>(i);
    actors_[i].fiber = std::make_unique<Fiber>(
        options_.stack_bytes,
        [this, id, body = std::move(pending_bodies_[i])] {
          body_wrapper(id, body);
        },
        &main_ctx_);
    heap_.push(Event{Key{0.0, /*kind=*/2, id, -1}, id, 0});
  }
  pending_bodies_.clear();
  observer_->on_engine_start(static_cast<int>(actors_.size()));

  while (!heap_.empty()) {
    const Event ev = heap_.top();
    heap_.pop();
    run_event(ev);
    if (error_) std::rethrow_exception(error_);
  }
  check_no_deadlock();
}

void Engine::run_event(Event ev) {
  if (ev.key.kind == 0) {
    // Timed events (message deliveries) may wake their target but never
    // post further events.
    exec_ = ExecCtx{ev.key.t, ev.key.a, ev.key.b + 1, /*may_post=*/false};
    timed_handler_(ev.actor, ev.token);
    exec_ = ExecCtx{};
    return;
  }
  const int id = ev.actor;
  auto& slot = actors_[static_cast<std::size_t>(id)];
  exec_ = ExecCtx{ev.key.t, id, slot.next_seq, /*may_post=*/true};
  slot.state = State::kRunning;
  observer_->on_actor_resumed(id, slot.actor->now());
  // A suspended fiber stays switched out until its continuation is done;
  // then it resumes inside this slice, where the fiber loop would have.
  if (!slot.continuation || continuation_handler_(id)) {
    slot.continuation = false;
    slot.fiber->resume_from(&main_ctx_);
  }
  observer_->on_actor_yielded(id, slot.actor->now());
  slot.next_seq = exec_.next_seq;
  exec_ = ExecCtx{};
}

void Engine::check_no_deadlock() {
  // Everyone must have finished; parked actors with no waker = deadlock.
  std::ostringstream stuck_text;
  std::vector<int> stuck;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].state != State::kDone) {
      stuck.push_back(static_cast<int>(i));
      stuck_text << ' ' << i;
    }
  }
  MCIO_CHECK_MSG(stuck.empty(),
                 "simulation deadlock; parked actors:"
                     << stuck_text.str()
                     << observer_->describe_deadlock(stuck));
}

void Engine::unpark(int actor_id, SimTime not_before) {
  auto& slot = actors_.at(static_cast<std::size_t>(actor_id));
  MCIO_CHECK_MSG(slot.state != State::kDone,
                 "unpark of finished actor " << actor_id);
  // A wakeup can never rewind behind the event that issued it: the pop
  // order stays monotone.
  if (exec_.src >= 0) not_before = std::max(not_before, exec_.t);
  if (slot.state == State::kParked) {
    slot.actor->advance_to(not_before);
    enqueue_slice(actor_id, /*kind=*/1);
    return;
  }
  // Not parked yet: record a wakeup token the next park() consumes.
  slot.wake_token = true;
  slot.wake_time = std::max(slot.wake_time, not_before);
}

bool Engine::is_parked(int actor_id) const {
  return actors_.at(static_cast<std::size_t>(actor_id)).state ==
         State::kParked;
}

SimTime Engine::makespan() const {
  SimTime t = 0.0;
  for (const SimTime f : finish_times_) t = std::max(t, f);
  return t;
}

bool Engine::sync_boundary(int id, int kind) {
  const SimTime now = actors_[static_cast<std::size_t>(id)].actor->now();
  if (heap_.empty() || Key{now, kind, id, -1} < heap_.top().key) {
    // The loop would pop this very slice next (keys are unique, so
    // nothing else can tie with it). Replay the boundary without the
    // heap round trip or the fiber switches: the observers see the same
    // yielded/resumed pair, and the new slice gets the context
    // run_event() would build for it, with the actor's seq counter
    // carried over.
    observer_->on_actor_yielded(id, now);
    exec_ = ExecCtx{now, id, exec_.next_seq, /*may_post=*/true};
    observer_->on_actor_resumed(id, now);
    return true;
  }
  enqueue_slice(id, kind);
  return false;
}

bool Engine::park_boundary(int id) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  if (slot.wake_token) {
    // An unpark ran while we were still runnable: consume the token
    // instead of blocking on a wakeup that already happened.
    slot.wake_token = false;
    slot.actor->advance_to(slot.wake_time);
    slot.wake_time = 0.0;
    return true;
  }
  slot.state = State::kParked;
  return false;
}

void Engine::yield_from(int id) {
  actors_[static_cast<std::size_t>(id)].fiber->yield_to(&main_ctx_);
}

void Engine::enqueue_slice(int id, int kind) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  slot.state = State::kReady;
  heap_.push(Event{Key{slot.actor->now(), kind, id, -1}, id, 0});
}

}  // namespace mcio::sim
