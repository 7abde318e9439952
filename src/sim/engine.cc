#include "sim/engine.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.h"

namespace mcio::sim {

namespace {
/// The engine whose lookahead worker executes on this thread (null on
/// the sequenced paths and outside run()). Lookahead fibers are pinned
/// to their shard's worker, so engine calls from inside a slice resolve
/// the owning shard here without touching the scheduler lock.
thread_local Engine* tl_la_engine = nullptr;
thread_local int tl_la_shard = -1;

constexpr double kSlackTolerance = 1e-12;
}  // namespace

void Actor::advance(SimTime dt) {
  MCIO_CHECK_GE(dt, 0.0);
  clock_ += dt;
}

void Actor::advance_to(SimTime t) { clock_ = std::max(clock_, t); }

void Actor::sync() {
  engine_->assert_exclusive();
  if (!engine_->sync_boundary(id_, /*kind=*/2)) engine_->yield_from(id_);
}

void Actor::sync_local() {
  engine_->assert_exclusive();
  if (!engine_->sync_boundary(id_, /*kind=*/1)) engine_->yield_from(id_);
}

void Actor::park() {
  engine_->assert_exclusive();
  if (!engine_->park_boundary(id_)) engine_->yield_from(id_);
}

bool Actor::try_sync_local() {
  engine_->assert_exclusive();
  return engine_->sync_boundary(id_, /*kind=*/1);
}

bool Actor::try_park() {
  engine_->assert_exclusive();
  return engine_->park_boundary(id_);
}

void Actor::suspend() {
  engine_->assert_exclusive();
  MCIO_CHECK_MSG(engine_->continuation_handler_,
                 "suspend() without a continuation handler");
  engine_->actors_[static_cast<std::size_t>(id_)].continuation = true;
  engine_->yield_from(id_);
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : options_(options), observer_(verify::default_observer()) {
  MCIO_CHECK_GE(options_.threads, 1);
}

void Engine::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

void Engine::set_lookahead_provider(
    std::function<std::vector<double>(const std::vector<int>&, int)>
        provider) {
  MCIO_CHECK_MSG(!running_, "set_lookahead_provider() after run() started");
  la_provider_ = std::move(provider);
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

int Engine::spawn(std::function<void(Actor&)> body, int shard_hint) {
  MCIO_CHECK_MSG(!running_, "spawn() after run() started");
  // Pre-run, so uncontended by construction; the acquisition keeps the
  // capability analysis on actors_ exact.
  const util::MutexLock lk(mu_);
  const int id = static_cast<int>(actors_.size());
  ActorSlot slot;
  slot.actor = std::unique_ptr<Actor>(new Actor(this, id));
  actors_.push_back(std::move(slot));
  pending_bodies_.push_back(std::move(body));
  shard_hints_.push_back(shard_hint < 0 ? id : shard_hint);
  return id;
}

int Engine::shard_of(int actor_id) const {
  return shard_of_.at(static_cast<std::size_t>(actor_id));
}

Engine::ExecCtx* Engine::exec_ctx() {
  if (tl_la_engine == this) {
    return &shards_[static_cast<std::size_t>(tl_la_shard)].exec;
  }
  return &seq_exec_;
}

const Engine::ExecCtx* Engine::exec_ctx() const {
  if (tl_la_engine == this) {
    return &shards_[static_cast<std::size_t>(tl_la_shard)].exec;
  }
  return &seq_exec_;
}

bool Engine::cross_shard(int actor_id) const {
  assert_exclusive();  // only meaningful from inside an event
  const ExecCtx* ctx = exec_ctx();
  if (nshards_ == 1 || ctx->src < 0) return false;
  return shard_of_[static_cast<std::size_t>(actor_id)] !=
         shard_of_[static_cast<std::size_t>(ctx->src)];
}

void Engine::post_stamped(int target_actor, std::function<void()> apply) {
  if (la_active_) {
    // Lookahead events run outside the scheduler lock; take it for the
    // mailbox push. The stamp comes from the owning shard's executing
    // context, which only this thread writes.
    MCIO_CHECK_EQ(tl_la_engine, this);
    ExecCtx& ctx = shards_[static_cast<std::size_t>(tl_la_shard)].exec;
    MCIO_CHECK_MSG(ctx.posts_left != 0, "post budget exhausted");
    if (ctx.posts_left > 0) --ctx.posts_left;
    const SimTime t = ctx.t;
    const int src = ctx.src;
    const std::int64_t seq = ctx.next_seq++;
    const int kind = ctx.kind;
    const int dst = shard_of_[static_cast<std::size_t>(target_actor)];
    const util::MutexLock lk(mu_);
    mailboxes_[static_cast<std::size_t>(tl_la_shard * nshards_ + dst)]
        .push_back(RemoteEvent{t, src, seq, kind, std::move(apply)});
    ++pending_remote_;
    cv_.notify_all();
    return;
  }
  assert_exclusive();  // sequenced: only legal from inside an event
  ExecCtx* ctx = exec_ctx();
  MCIO_CHECK_GE(ctx->src, 0);
  MCIO_CHECK_MSG(ctx->posts_left != 0, "post budget exhausted");
  if (ctx->posts_left > 0) --ctx->posts_left;
  const int src_shard = shard_of_[static_cast<std::size_t>(ctx->src)];
  const int dst = shard_of_[static_cast<std::size_t>(target_actor)];
  mailboxes_[static_cast<std::size_t>(src_shard * nshards_ + dst)].push_back(
      RemoteEvent{ctx->t, ctx->src, ctx->next_seq++, ctx->kind,
                  std::move(apply)});
  ++pending_remote_;
}

void Engine::post_remote(int target_actor, std::function<void()> apply) {
  MCIO_CHECK_MSG(cross_shard(target_actor),
                 "post_remote() to same-shard actor " << target_actor);
  post_stamped(target_actor, std::move(apply));
}

void Engine::post_at(int target_actor, SimTime t, std::uint32_t token) {
  assert_exclusive();
  MCIO_CHECK_MSG(timed_handler_, "post_at() without a timed handler");
  ExecCtx* ctx = exec_ctx();
  MCIO_CHECK_GE(ctx->src, 0);
  MCIO_CHECK_MSG(ctx->posts_left != 0, "post budget exhausted");
  if (ctx->posts_left > 0) --ctx->posts_left;
  MCIO_CHECK_GE(t, ctx->t - kSlackTolerance);
  const Key key{t, /*kind=*/0, ctx->src, ctx->next_seq++};
  if (la_active_) {
    MCIO_CHECK_EQ(tl_la_engine, this);
    MCIO_CHECK_MSG(
        shard_of_[static_cast<std::size_t>(target_actor)] == tl_la_shard,
        "post_at() must target the executing shard");
    ShardRt& rt = shards_[static_cast<std::size_t>(tl_la_shard)];
    if (ctx->in_item) {
      // The lookahead soundness property (tests/lookahead_test.cc): a
      // deferred cross-shard effect may never schedule behind the
      // horizon its stamp promised, nor behind what this shard already
      // executed. Item drains hold mu_, so la_stats_ is guarded here.
      const double promised =
          ctx->stamp_t + lookahead_in(ctx->src_shard, tl_la_shard);
      const double slack = t - promised;
      MCIO_CHECK_MSG(slack >= -kSlackTolerance,
                     "lookahead matrix unsound: delivery at "
                         << t << " beats horizon " << promised);
      MCIO_CHECK_MSG(t >= rt.frontier - kSlackTolerance,
                     "delivery at " << t << " behind executed frontier "
                                    << rt.frontier);
      la_stats_.min_slack = std::min(la_stats_.min_slack, slack);
    }
    rt.heap.push(Event{key, target_actor, token});
    return;
  }
  heap_.push(Event{key, target_actor, token});
}

void Engine::drain_mailboxes() {
  if (pending_remote_ == 0) return;
  // Merge every pending cross-shard effect into the (t, src, seq) total
  // order. Drains run at every event boundary, so in practice the batch
  // is the just-finished event's output; the sort makes the order an
  // invariant rather than a scheduling accident.
  std::vector<RemoteEvent> batch;
  batch.reserve(static_cast<std::size_t>(pending_remote_));
  for (auto& box : mailboxes_) {
    while (!box.empty()) {
      batch.push_back(std::move(box.front()));
      box.pop_front();
    }
  }
  pending_remote_ = 0;
  std::sort(batch.begin(), batch.end(),
            [](const RemoteEvent& a, const RemoteEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.src_actor != b.src_actor) return a.src_actor < b.src_actor;
              return a.seq < b.seq;
            });
  for (RemoteEvent& e : batch) {
    // The item executes with the emitting event's identity: a delivery
    // it schedules reuses the stamp's (src, seq), so its key is the
    // same whether or not the effect detoured through a mailbox.
    seq_exec_ = ExecCtx{e.t, e.src_actor, e.seq, /*posts_left=*/1};
    seq_exec_.kind = e.kind;
    e.apply();
  }
  seq_exec_ = ExecCtx{};
}

void Engine::body_wrapper(int id, const std::function<void(Actor&)>& body) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  try {
    body(*slot.actor);
  } catch (...) {
    if (la_active_) {
      // Lookahead fibers run without mu_; park the exception in the
      // shard's own slot — the owning worker merges it into error_ at
      // its next relock.
      shards_[static_cast<std::size_t>(
                  shard_of_[static_cast<std::size_t>(id)])]
          .error = std::current_exception();
    } else if (!error_) {
      error_ = std::current_exception();
    }
  }
  slot.state = State::kDone;
  finish_times_[static_cast<std::size_t>(id)] = slot.actor->now();
  // Falling off the fiber body returns to the scheduler context via the
  // fiber's link.
}

bool Engine::prepare_lookahead() {
  la_matrix_.clear();
  if (!options_.lookahead || nshards_ <= 1 || !la_provider_) return false;
  std::vector<double> m = la_provider_(shard_of_, nshards_);
  const auto n = static_cast<std::size_t>(nshards_);
  MCIO_CHECK_EQ(m.size(), n * n);
  for (const double v : m) {
    // A non-positive window cannot admit concurrent progress: the
    // degenerate (zero-latency) topology falls back to the sequenced
    // scheduler, which needs no windows at all.
    if (!(v > 0.0)) return false;
  }
  // Min-plus closure: an effect relayed p -> x -> s is delayed by at
  // least L[p][x] + L[x][s], so the direct entry must never promise
  // more than any relay path allows (the horizon hand-off argument of
  // DESIGN.md §14 needs this triangle inequality).
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double via = m[i * n + k] + m[k * n + j];
        if (via < m[i * n + j]) m[i * n + j] = via;
      }
    }
  }
  la_matrix_ = std::move(m);
  return true;
}

void Engine::run() {
  MCIO_CHECK_MSG(!running_, "run() is not reentrant");
  running_ = true;
  {
    // Pre-worker setup: no worker threads exist yet, so the acquisition
    // is uncontended; it keeps the analysis on actors_ exact.
    const util::MutexLock lk(mu_);
    finish_times_.assign(actors_.size(), 0.0);
    nshards_ = std::clamp(options_.threads, 1,
                          std::max<int>(1, static_cast<int>(actors_.size())));
    shard_of_.resize(actors_.size());
    for (std::size_t i = 0; i < actors_.size(); ++i) {
      shard_of_[i] = shard_hints_[i] % nshards_;
    }
    la_active_ = prepare_lookahead();
  }
  if (nshards_ == 1) {
    run_single();
  } else {
    run_sharded();
  }
}

void Engine::run_slice(int id, FiberContext* scheduler_ctx) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  slot.state = State::kRunning;
  observer_->on_actor_resumed(id, slot.actor->now());
  // A suspended fiber stays switched out until its continuation is done;
  // then it resumes inside this slice, where the fiber loop would have.
  if (!slot.continuation || continuation_handler_(id)) {
    slot.continuation = false;
    slot.fiber->resume_from(scheduler_ctx);
  }
  observer_->on_actor_yielded(id, slot.actor->now());
}

void Engine::run_event(Event ev, ExecCtx* ctx, FiberContext* scheduler_ctx) {
  if (ev.key.kind != 0) {
    auto& slot = actors_[static_cast<std::size_t>(ev.actor)];
    *ctx = ExecCtx{ev.key.t, ev.actor, slot.next_seq, /*posts_left=*/-1};
    ctx->kind = ev.key.kind;
    run_slice(ev.actor, scheduler_ctx);
    slot.next_seq = ctx->next_seq;
  } else {
    // Timed events (message deliveries) may wake their target but never
    // emit further stamps or schedule further events.
    *ctx = ExecCtx{ev.key.t, ev.key.a, ev.key.b + 1, /*posts_left=*/0};
    ctx->kind = ev.key.kind;
    timed_handler_(ev.actor, ev.token);
  }
  *ctx = ExecCtx{};
}

void Engine::run_single() {
  // Single-threaded mode still runs under the scheduler lock — taken
  // once here for the whole run, uncontended by construction (there are
  // no workers), so the cost is one lock per run() and the capability
  // analysis covers this path exactly like the sharded one.
  const util::MutexLock lk(mu_);
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    const int id = static_cast<int>(i);
    auto body = std::move(pending_bodies_[i]);
    actors_[i].fiber = std::make_unique<Fiber>(
        options_.stack_bytes,
        [this, id, body = std::move(body)] {
          // Fiber bodies run inside a slice: the resuming thread holds
          // mu_ across resume_from/yield_to (see run_slice()).
          assert_exclusive();
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
    run_event(ev, &seq_exec_, &main_ctx_);
    if (error_) std::rethrow_exception(error_);
  }
  check_no_deadlock();
}

void Engine::run_sharded() {
  int num_actors_started = 0;
  {
    // Pre-worker setup (uncontended: the workers spawn below).
    const util::MutexLock lk(mu_);
    num_actors_started = static_cast<int>(actors_.size());
    shards_.clear();
    shards_.resize(static_cast<std::size_t>(nshards_));
    mailboxes_.assign(static_cast<std::size_t>(nshards_) *
                          static_cast<std::size_t>(nshards_),
                      {});
    commit_.assign(static_cast<std::size_t>(nshards_), Key{});
    la_stats_ = LookaheadStats{};
    pending_remote_ = 0;
    stop_ = false;
    for (std::size_t i = 0; i < actors_.size(); ++i) {
      const int id = static_cast<int>(i);
      const auto shard = static_cast<std::size_t>(shard_of_[i]);
      auto body = std::move(pending_bodies_[i]);
      actors_[i].fiber = std::make_unique<Fiber>(
          options_.stack_bytes,
          [this, id, body = std::move(body)] {
            // Under the sequenced scheduler the resuming worker holds
            // mu_ across resume_from/yield_to; under lookahead the
            // slice runs on the one thread owning this shard
            // (assert_exclusive() case 3).
            assert_exclusive();
            body_wrapper(id, body);
          },
          &shards_[shard].ctx);
      const Event ev{Key{0.0, /*kind=*/2, id, -1}, id, 0};
      if (la_active_) {
        shards_[shard].heap.push(ev);
      } else {
        heap_.push(ev);
      }
    }
    pending_bodies_.clear();
  }
  observer_->on_engine_start(num_actors_started);

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) {
    workers.emplace_back([this, s] {
      try {
        if (la_active_) {
          lookahead_worker(s);
        } else {
          worker_loop(s);
        }
      } catch (...) {
        // A timed handler or mailbox closure threw on a worker (fiber-
        // body exceptions take the body_wrapper path instead): latch
        // and stop the run.
        const util::MutexLock lk(mu_);
        if (!error_) error_ = std::current_exception();
        stop_ = true;
        cv_.notify_all();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const util::MutexLock lk(mu_);  // post-join: the workers are gone
  if (error_) std::rethrow_exception(error_);
  check_no_deadlock();
}

void Engine::worker_loop(int shard) {
  // Sequenced sharded mode: one worker at a time owns the scheduler
  // lock across a whole event (fibers themselves never touch the lock —
  // every engine call from inside a slice runs on this thread, under
  // this acquisition). The pop order is therefore exactly the
  // single-threaded heap order; the threads only decide *where* each
  // slice's fiber stack lives. Timed events resume no fiber, so
  // whichever worker holds the lock applies them.
  util::MutexLock lk(mu_);
  while (!stop_) {
    if (heap_.empty()) {
      // Nothing runnable and nothing in flight (we hold the lock): the
      // simulation is finished or deadlocked. Either way, stop.
      stop_ = true;
      break;
    }
    const Event ev = heap_.top();
    if (ev.key.kind != 0 &&
        shard_of_[static_cast<std::size_t>(ev.actor)] != shard) {
      // The globally next slice belongs to another shard; its worker
      // was notified at the last boundary.
      cv_.wait(lk);
      continue;
    }
    heap_.pop();
    run_event(ev, &seq_exec_,
              &shards_[static_cast<std::size_t>(shard)].ctx);
    // Apply cross-shard effects before the next pop so the heap state
    // every later event sees matches the single-threaded run, and so a
    // cross-shard unpark can never be mistaken for a deadlock.
    drain_mailboxes();
    if (error_) stop_ = true;
    cv_.notify_all();
  }
  cv_.notify_all();
}

Engine::Key Engine::shard_commit(int s) const {
  // Heap/executing part, published by the owning worker into commit_.
  Key c = commit_[static_cast<std::size_t>(s)];
  // Undrained inbox items bound what s may still schedule: an item
  // stamped tau from shard q cannot produce an effect before
  // tau + L[q][s] (the hand-off invariant of DESIGN.md §14).
  for (int q = 0; q < nshards_; ++q) {
    const auto& box = mailboxes_[static_cast<std::size_t>(q * nshards_ + s)];
    if (box.empty()) continue;
    const Key bound{box.front().t + lookahead_in(q, s), -1, -1, -1};
    if (bound < c) c = bound;
  }
  return c;
}

void Engine::publish_commit(int s) {
  const ShardRt& rt = shards_[static_cast<std::size_t>(s)];
  Key c = Key::infinite();
  if (rt.executing) {
    c = rt.exec_key;
  } else if (!rt.heap.empty()) {
    c = rt.heap.top().key;
  }
  commit_[static_cast<std::size_t>(s)] = c;
}

void Engine::run_event_exclusive(Event ev, int shard) {
  // Lookahead: this worker owns the shard's heap, fibers and actor
  // slots outright for the whole run; no lock is held around the event.
  // Cross-shard effects relock inside post_stamped().
  assert_exclusive();
  ShardRt& rt = shards_[static_cast<std::size_t>(shard)];
  run_event(ev, &rt.exec, &rt.ctx);
}

void Engine::lookahead_worker(int shard) {
  tl_la_engine = this;
  tl_la_shard = shard;
  ShardRt& rt = shards_[static_cast<std::size_t>(shard)];
  util::MutexLock lk(mu_);
  publish_commit(shard);
  cv_.notify_all();
  // An undrained item occupies its emitting slice's position in the
  // sequenced pop order: key (stamp t, emitter kind, src actor), with b
  // at its minimum so a tie against a still-pending event of the same
  // (t, kind, actor) resolves item-first (the emitter already popped, so
  // its effects precede anything still pending at an equal key).
  const auto item_pos = [](const RemoteEvent& e) {
    return Key{e.t, e.kind, e.src_actor,
               std::numeric_limits<std::int64_t>::min()};
  };
  while (!stop_) {
    // 1) Drain this shard's inbox heads in merged (t, kind, src, seq)
    //    order once every shard's commit clock has passed the item's
    //    position: no event that sorts before the emitter can still be
    //    pending machine-wide, so no smaller-position effect can appear.
    int best_q = -1;
    for (int q = 0; q < nshards_; ++q) {
      const auto& box =
          mailboxes_[static_cast<std::size_t>(q * nshards_ + shard)];
      if (box.empty()) continue;
      if (best_q < 0) {
        best_q = q;
        continue;
      }
      const auto& cur = box.front();
      const auto& best =
          mailboxes_[static_cast<std::size_t>(best_q * nshards_ + shard)]
              .front();
      if (item_pos(cur) < item_pos(best) ||
          (item_pos(cur) == item_pos(best) && cur.seq < best.seq)) {
        best_q = q;
      }
    }
    if (best_q >= 0) {
      auto& box =
          mailboxes_[static_cast<std::size_t>(best_q * nshards_ + shard)];
      const Key pos = item_pos(box.front());
      bool stable = true;
      for (int x = 0; x < nshards_ && stable; ++x) {
        stable = pos < shard_commit(x);
      }
      if (stable) {
        RemoteEvent item = std::move(box.front());
        box.pop_front();
        --pending_remote_;
        // The item executes with the emitting event's identity (see
        // drain_mailboxes()); in_item arms the horizon soundness checks
        // in post_at(). It runs under mu_: it only serves this shard's
        // ingress queues and schedules one event onto this shard's heap.
        rt.exec = ExecCtx{item.t,           item.src_actor,   item.seq,
                          /*posts_left=*/1, /*in_item=*/true, item.t,
                          best_q,           item.kind};
        item.apply();
        rt.exec = ExecCtx{};
        ++la_stats_.items_drained;
        publish_commit(shard);
        cv_.notify_all();
        continue;
      }
    }
    // 2) Execute the local heap top inside the horizon.
    if (rt.heap.empty()) {
      bool all_idle = pending_remote_ == 0;
      for (int x = 0; all_idle && x < nshards_; ++x) {
        all_idle = commit_[static_cast<std::size_t>(x)].t ==
                   std::numeric_limits<SimTime>::infinity();
      }
      if (all_idle) {
        stop_ = true;
        break;
      }
      ++la_stats_.horizon_waits;
      cv_.wait(lk);
      continue;
    }
    const Key k = rt.heap.top().key;
    bool can_run = true;
    if (k.kind == 2) {
      // Global-class slice: runs only as the machine-wide minimum, so
      // access to shared global state is serialized in exactly the
      // sequenced order (the commit hand-off through mu_ provides the
      // happens-before edge between consecutive global slices).
      for (int x = 0; can_run && x < nshards_; ++x) {
        if (x == shard) continue;
        can_run = k < shard_commit(x);
      }
      // The shard's own undrained inbox items also bound the global
      // order: an item emitted by a local slice at the same time sorts
      // before this slice in the sequenced pop order, and its apply may
      // touch the same resources a global slice touches (e.g. a NIC
      // ingress charge racing a PFS read's ingress charge). It must
      // drain first.
      for (int q = 0; can_run && q < nshards_; ++q) {
        const auto& box =
            mailboxes_[static_cast<std::size_t>(q * nshards_ + shard)];
        if (box.empty()) continue;
        can_run = k < item_pos(box.front());
      }
    } else {
      // Local event: free to run anywhere under the horizon — every
      // peer's commit bound plus the lookahead window into this shard,
      // and this shard's own undrained inbox bounds.
      for (int x = 0; can_run && x < nshards_; ++x) {
        if (x == shard) continue;
        can_run = k.t < shard_commit(x).t + lookahead_in(x, shard);
      }
      for (int q = 0; can_run && q < nshards_; ++q) {
        const auto& box =
            mailboxes_[static_cast<std::size_t>(q * nshards_ + shard)];
        if (box.empty()) continue;
        can_run = k.t < box.front().t + lookahead_in(q, shard);
      }
    }
    if (!can_run) {
      ++la_stats_.horizon_waits;
      cv_.wait(lk);
      continue;
    }
    const Event ev = rt.heap.top();
    rt.heap.pop();
    rt.executing = true;
    rt.exec_key = k;
    publish_commit(shard);
    ++la_stats_.slices;
    cv_.notify_all();
    lk.unlock();
    rt.frontier = k.t;
    run_event_exclusive(ev, shard);
    lk.lock();
    rt.executing = false;
    if (rt.error) {
      if (!error_) error_ = rt.error;
      rt.error = nullptr;
    }
    if (error_) stop_ = true;
    publish_commit(shard);
    cv_.notify_all();
  }
  stop_ = true;
  cv_.notify_all();
  tl_la_engine = nullptr;
  tl_la_shard = -1;
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
  // Callable from inside an event or before run() — both paths have
  // exclusive access to the target slot (under lookahead the machine
  // only wakes same-shard actors, from delivery events).
  assert_exclusive();
  auto& slot = actors_.at(static_cast<std::size_t>(actor_id));
  MCIO_CHECK_MSG(slot.state != State::kDone,
                 "unpark of finished actor " << actor_id);
  const ExecCtx* ctx = exec_ctx();
  if (la_active_) {
    MCIO_CHECK_MSG(
        shard_of_[static_cast<std::size_t>(actor_id)] == tl_la_shard,
        "lookahead unpark of cross-shard actor " << actor_id);
  }
  // A wakeup can never rewind behind the event that issued it: the pop
  // order stays monotone, which the commit clocks rely on.
  if (ctx->src >= 0) not_before = std::max(not_before, ctx->t);
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
  assert_exclusive();  // queried from inside an event (or before run())
  return actors_.at(static_cast<std::size_t>(actor_id)).state ==
         State::kParked;
}

Engine::LookaheadStats Engine::lookahead_stats() const {
  const util::MutexLock lk(mu_);
  return la_stats_;
}

SimTime Engine::makespan() const {
  SimTime t = 0.0;
  for (const SimTime f : finish_times_) t = std::max(t, f);
  return t;
}

bool Engine::sync_boundary(int id, int kind) {
  if (nshards_ == 1) {
    const SimTime now = actors_[static_cast<std::size_t>(id)].actor->now();
    if (heap_.empty() || Key{now, kind, id, -1} < heap_.top().key) {
      // The classic loop would pop this very slice next (keys are
      // unique, so nothing else can tie with it). Replay the boundary
      // without the heap round trip or the fiber switches: the
      // observers see the same yielded/resumed pair, and the new slice
      // gets the context run_event() would build for it, with the
      // actor's seq counter carried over.
      observer_->on_actor_yielded(id, now);
      seq_exec_ = ExecCtx{now, id, seq_exec_.next_seq, /*posts_left=*/-1};
      seq_exec_.kind = kind;
      observer_->on_actor_resumed(id, now);
      return true;
    }
  }
  enqueue_slice(id, kind);
  return false;
}

bool Engine::park_boundary(int id) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  if (slot.wake_token) {
    // An unpark raced ahead of this park (cross-shard wakeups, or a
    // waker that ran while we were still runnable): consume the token
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
  auto& slot = actors_[static_cast<std::size_t>(id)];
  if (nshards_ > 1) {
    const int shard = shard_of_[static_cast<std::size_t>(id)];
    slot.fiber->yield_to(&shards_[static_cast<std::size_t>(shard)].ctx);
    return;
  }
  slot.fiber->yield_to(&main_ctx_);
}

void Engine::enqueue_slice(int id, int kind) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  slot.state = State::kReady;
  const Key key{slot.actor->now(), kind, id, -1};
  if (la_active_) {
    shards_[static_cast<std::size_t>(
                shard_of_[static_cast<std::size_t>(id)])]
        .heap.push(Event{key, id, 0});
    return;
  }
  heap_.push(Event{key, id, 0});
}

void assert_global_interaction(const char* what) {
  const Engine* e = tl_la_engine;
  if (e == nullptr) return;  // sequenced scheduler or outside run()
  // Reading this shard's runtime state is safe without mu_: the calling
  // thread IS the owning worker (fibers are thread-pinned).
  const Engine::ShardRt& rt =
      e->shards_[static_cast<std::size_t>(tl_la_shard)];
  MCIO_CHECK_MSG(
      rt.executing && rt.exec_key.kind == 2,
      what << " touched from a non-global event under the lookahead "
              "scheduler (kind "
           << (rt.executing ? rt.exec_key.kind : -2)
           << ") — the caller must actor.sync() first or results become "
              "scheduler-dependent");
}

}  // namespace mcio::sim
