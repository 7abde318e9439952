// Simulation kernel: virtual-time scheduling order, park/unpark,
// determinism, deadlock detection and bandwidth-queue behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/topology.h"
#include "util/check.h"
#include "verify/observer.h"

namespace mcio::sim {
namespace {

TEST(Engine, RunsActorsToCompletion) {
  Engine engine;
  std::vector<int> done;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([i, &done](Actor& a) {
      a.advance(0.1 * (5 - i));
      done.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(done.size(), 5u);
  EXPECT_EQ(engine.finish_times().size(), 5u);
  EXPECT_NEAR(engine.makespan(), 0.5, 1e-12);
}

TEST(Engine, SyncOrdersByVirtualTime) {
  // Actors advance different amounts, then sync; the order in which they
  // pass the sync point must follow virtual clocks, not spawn order.
  Engine engine;
  std::vector<int> order;
  const double delays[] = {0.3, 0.1, 0.2};
  for (int i = 0; i < 3; ++i) {
    engine.spawn([i, &delays, &order](Actor& a) {
      a.advance(delays[i]);
      a.sync();
      order.push_back(i);
    });
  }
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 0);
}

TEST(Engine, ParkAndUnparkTransfersControl) {
  Engine engine;
  bool woke = false;
  const int sleeper = engine.spawn([&](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke = true;
    EXPECT_GE(a.now(), 2.5);
  });
  engine.spawn([&, sleeper](Actor& a) {
    a.advance(2.5);
    a.sync();
    EXPECT_TRUE(a.engine().is_parked(sleeper));
    a.engine().unpark(sleeper, a.now());
  });
  engine.run();
  EXPECT_TRUE(woke);
}

TEST(Engine, DeadlockDetected) {
  Engine engine;
  engine.spawn(
      // mcio-analyze: allow(unobserved-park) -- deliberate deadlock test
      [](Actor& a) { a.park(); });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, ActorExceptionPropagates) {
  Engine engine;
  engine.spawn([](Actor&) { throw util::Error("boom"); });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, DeterministicFinishTimes) {
  auto run_once = [] {
    Engine engine;
    for (int i = 0; i < 8; ++i) {
      engine.spawn([i](Actor& a) {
        for (int k = 0; k < 10; ++k) {
          a.advance(0.01 * ((i + k) % 3 + 1));
          a.sync();
        }
      });
    }
    engine.run();
    return engine.finish_times();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, AdvanceToNeverMovesBackwards) {
  Engine engine;
  engine.spawn([](Actor& a) {
    a.advance(1.0);
    a.advance_to(0.5);
    EXPECT_DOUBLE_EQ(a.now(), 1.0);
    a.advance_to(2.0);
    EXPECT_DOUBLE_EQ(a.now(), 2.0);
  });
  engine.run();
}

/// Records the slice boundaries the engine reports, in order.
class SliceRecorder : public verify::Observer {
 public:
  struct Boundary {
    char what;  ///< 'R' resumed, 'Y' yielded
    int actor;
    SimTime clock;
    friend bool operator==(const Boundary&, const Boundary&) = default;
  };

  void on_actor_resumed(int actor, double clock) override {
    log.push_back({'R', actor, clock});
  }
  void on_actor_yielded(int actor, double clock) override {
    log.push_back({'Y', actor, clock});
  }

  std::vector<Boundary> log;
};

struct BoundaryRun {
  std::vector<SliceRecorder::Boundary> log;
  std::vector<std::uint32_t> tokens;  ///< timed events in pop order
  std::vector<SimTime> finish;
};

/// Three actors exercising every yield shape. The classic loop elides
/// the syncs whose slice would pop straight back; the sharded sequenced
/// loop never elides. Both must report the same slice boundaries.
BoundaryRun run_boundary_scenario(int threads) {
  Engine::Options opt;
  opt.threads = threads;
  Engine engine(opt);
  SliceRecorder rec;
  engine.set_observer(&rec);
  BoundaryRun out;
  engine.set_timed_handler([&engine, &out](int target, std::uint32_t token) {
    out.tokens.push_back(token);
    if (engine.is_parked(target)) engine.unpark(target, 0.0);
  });
  // Actor 0 parks until the first delivery (t = 3) wakes it.
  engine.spawn([](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    EXPECT_DOUBLE_EQ(a.now(), 3.0);
  });
  engine.spawn([&engine](Actor& a) {
    a.advance(1.0);
    a.sync();  // actor 2 still queued at t = 0: a real yield
    engine.post_at(0, 3.0, 1);
    engine.post_at(0, 3.0, 2);
    a.sync_local();  // (1, 1, 1) sorts below actor 2's (1, 2, 2): elided
    // Seq continues across the elided boundary, so this delivery keys
    // after tokens 1 and 2 at the same time and source.
    engine.post_at(0, 3.0, 3);
    a.advance(1.0);
    a.sync();
    a.advance(3.0);
    a.sync();  // behind the deliveries at t = 3: a real yield
    // Alone from here on: back-to-back syncs, all elided.
    a.sync();
    a.advance(0.5);
    a.sync_local();
    engine.post_at(2, 6.0, 4);  // actor 2 is done: no wakeup
  });
  engine.spawn([](Actor& a) {
    a.advance(1.0);
    a.sync();  // equal clock with actor 1, higher id: a real yield
  });
  engine.run();
  out.log = rec.log;
  out.finish = engine.finish_times();
  return out;
}

TEST(Engine, YieldElisionKeepsSliceBoundaries) {
  using B = SliceRecorder::Boundary;
  const std::vector<B> expected = {
      {'R', 0, 0.0}, {'Y', 0, 0.0},  // parks
      {'R', 1, 0.0}, {'Y', 1, 1.0},  // sync behind actor 2's t = 0 slice
      {'R', 2, 0.0}, {'Y', 2, 1.0},  // equal clocks: actor 1 goes first
      {'R', 1, 1.0}, {'Y', 1, 1.0},  // posts, elided sync_local ...
      {'R', 1, 1.0}, {'Y', 1, 2.0},  // ... posts, sync behind actor 2
      {'R', 2, 1.0}, {'Y', 2, 1.0},  // actor 2 finishes
      {'R', 1, 2.0}, {'Y', 1, 5.0},  // sync behind the t = 3 deliveries
      {'R', 0, 3.0}, {'Y', 0, 3.0},  // woken by token 1, finishes
      {'R', 1, 5.0}, {'Y', 1, 5.0},  // lone: elided sync
      {'R', 1, 5.0}, {'Y', 1, 5.5},  // lone: elided sync_local
      {'R', 1, 5.5}, {'Y', 1, 5.5},  // finishes
  };
  const BoundaryRun classic = run_boundary_scenario(1);
  EXPECT_EQ(classic.log, expected);
  EXPECT_EQ(classic.tokens, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(classic.finish, (std::vector<SimTime>{3.0, 5.5, 1.0}));

  const BoundaryRun sharded = run_boundary_scenario(2);
  EXPECT_EQ(sharded.log, classic.log);
  EXPECT_EQ(sharded.tokens, classic.tokens);
  EXPECT_EQ(sharded.finish, classic.finish);
}

TEST(BandwidthQueue, ServeAndQueueing) {
  BandwidthQueue q("test", 100.0);  // 100 B/s
  const SimTime t1 = q.serve(0.0, 50.0);
  EXPECT_DOUBLE_EQ(t1, 0.5);
  // Second request queues behind the first even if it "starts" earlier.
  const SimTime t2 = q.serve(0.1, 100.0);
  EXPECT_DOUBLE_EQ(t2, 1.5);
  // A request after idle time starts immediately.
  const SimTime t3 = q.serve(10.0, 100.0);
  EXPECT_DOUBLE_EQ(t3, 11.0);
  EXPECT_EQ(q.total_requests(), 3u);
  EXPECT_DOUBLE_EQ(q.total_bytes(), 250.0);
}

TEST(BandwidthQueue, LatencyAndScale) {
  BandwidthQueue q("test", 100.0, 0.25);
  EXPECT_DOUBLE_EQ(q.serve(0.0, 100.0), 1.25);
  // bw_scale halves the effective bandwidth; extra latency adds on top.
  EXPECT_DOUBLE_EQ(q.serve(10.0, 100.0, 0.5, 0.5), 10.0 + 0.25 + 0.5 + 2.0);
  EXPECT_THROW(q.serve(0.0, 10.0, 0.0), util::Error);
}

TEST(BandwidthQueue, Utilization) {
  BandwidthQueue q("test", 100.0);
  q.serve(0.0, 100.0);
  EXPECT_NEAR(q.utilization(2.0), 0.5, 1e-12);
  // Oversubscription beyond the horizon is reported raw, not clamped;
  // only the presentation helper caps at 1.0.
  EXPECT_NEAR(q.utilization(0.5), 2.0, 1e-12);
  EXPECT_NEAR(q.utilization_clamped(0.5), 1.0, 1e-12);
  EXPECT_NEAR(q.utilization_clamped(2.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(q.utilization(0.0), 0.0);
  q.reset_accounting();
  EXPECT_DOUBLE_EQ(q.busy_time(), 0.0);
}

TEST(Cluster, TopologyMapping) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.ranks_per_node = 4;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.total_ranks(), 12);
  EXPECT_EQ(cluster.node_of_rank(0), 0);
  EXPECT_EQ(cluster.node_of_rank(3), 0);
  EXPECT_EQ(cluster.node_of_rank(4), 1);
  EXPECT_EQ(cluster.node_of_rank(11), 2);
  EXPECT_THROW(cluster.node_of_rank(12), util::Error);
  EXPECT_EQ(cluster.first_rank_on_node(2), 8);
  EXPECT_EQ(cluster.ranks_on_node(1),
            (std::vector<int>{4, 5, 6, 7}));
}

TEST(Cluster, DistinctResourcesPerNode) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster cluster(cfg);
  cluster.nic_out(0).serve(0.0, 1e6);
  EXPECT_GT(cluster.nic_out(0).next_free(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.nic_out(1).next_free(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.membus(0).next_free(), 0.0);
}

}  // namespace
}  // namespace mcio::sim
