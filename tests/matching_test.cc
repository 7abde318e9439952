// Message-matching semantics the O(1) endpoint must preserve: per-
// (communicator, source, tag) FIFO order under heavy interleaving,
// unexpected/posted crossover, wildcard-source receives and their
// arbitration against exact receives, isolation between communicators,
// collective-tag reservation at the 28-bit wrap boundary, and end-to-end
// determinism of a figure-shaped run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <vector>

#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "metrics/collective_stats.h"
#include "mpi/comm.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "workloads/ior.h"

namespace mcio::mpi {
namespace {

sim::ClusterConfig small_cluster(int nodes = 2, int ppn = 2) {
  sim::ClusterConfig c;
  c.num_nodes = nodes;
  c.ranks_per_node = ppn;
  return c;
}

void send_i32(Comm& comm, int dst, int tag, std::int32_t v) {
  comm.send(dst, tag,
            util::ConstPayload::real(
                reinterpret_cast<const std::byte*>(&v), sizeof(v)));
}

std::int32_t recv_i32(Comm& comm, int src, int tag,
                      Status* status = nullptr) {
  std::int32_t v = -1;
  comm.recv(src, tag,
            util::Payload::real(reinterpret_cast<std::byte*>(&v),
                                sizeof(v)),
            status);
  return v;
}

// Many live (source, tag) keys at once, receives posted in a different
// order than the sends: each key's stream must still arrive FIFO.
TEST(Matching, FifoPerSourceAndTagAcrossManyKeys) {
  Machine machine(small_cluster(2, 2));
  machine.run(4, [](Rank& rank) {
    constexpr int kTags = 8;
    constexpr int kRounds = 5;
    Comm& world = rank.world();
    if (rank.rank() != 3) {
      for (int r = 0; r < kRounds; ++r) {
        for (int t = 0; t < kTags; ++t) {
          send_i32(world, 3, t, rank.rank() * 10000 + t * 100 + r);
        }
      }
    } else {
      // Drain tags high-to-low and sources in reverse, so nearly every
      // receive has to dig past newer messages of sibling keys.
      for (int t = kTags - 1; t >= 0; --t) {
        for (int src = 2; src >= 0; --src) {
          for (int r = 0; r < kRounds; ++r) {
            EXPECT_EQ(recv_i32(world, src, t),
                      src * 10000 + t * 100 + r);
          }
        }
      }
    }
  });
}

// Both crossover directions: a message parked as unexpected before any
// receive exists, and a receive posted before the message is sent.
TEST(Matching, UnexpectedAndPostedCrossover) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    Comm& world = rank.world();
    if (rank.rank() == 0) {
      send_i32(world, 1, 11, 111);  // lands unexpected
      world.barrier();
      world.barrier();  // peer's irecv is posted before this barrier
      send_i32(world, 1, 12, 222);
    } else {
      world.barrier();  // tag 11 already sent: unexpected path
      Status st;
      EXPECT_EQ(recv_i32(world, 0, 11, &st), 111);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 11);
      std::int32_t v = -1;
      Request r = world.irecv(0, 12,
                              util::Payload::real(
                                  reinterpret_cast<std::byte*>(&v),
                                  sizeof(v)));
      world.barrier();  // tag 12 sent only after this: posted path
      world.wait(r, &st);
      EXPECT_EQ(v, 222);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 12);
    }
  });
}

// Wildcard receives collect every source exactly once, with a status
// that identifies who actually matched.
TEST(Matching, WildcardSourceCollectsAllSenders) {
  Machine machine(small_cluster(2, 2));
  machine.run(4, [](Rank& rank) {
    Comm& world = rank.world();
    if (rank.rank() != 0) {
      send_i32(world, 0, 7, 1000 + rank.rank());
    } else {
      std::vector<bool> seen(world.size(), false);
      for (int i = 0; i < 3; ++i) {
        Status st;
        const std::int32_t v = recv_i32(world, kAnySource, 7, &st);
        EXPECT_EQ(v, 1000 + st.source);
        EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
    }
  });
}

// An exact-source receive posted before a wildcard must win its source's
// message no matter which message arrives first (posting-order
// arbitration among eligible receives).
TEST(Matching, ExactReceivePostedBeforeWildcardWinsItsSource) {
  Machine machine(small_cluster(3, 1));
  machine.run(3, [](Rank& rank) {
    Comm& world = rank.world();
    if (rank.rank() == 0) {
      std::int32_t exact = -1, wild = -1;
      Request r_exact = world.irecv(
          2, 7,
          util::Payload::real(reinterpret_cast<std::byte*>(&exact),
                              sizeof(exact)));
      Request r_wild = world.irecv(
          kAnySource, 7,
          util::Payload::real(reinterpret_cast<std::byte*>(&wild),
                              sizeof(wild)));
      world.barrier();
      Status st_exact, st_wild;
      world.wait(r_exact, &st_exact);
      world.wait(r_wild, &st_wild);
      EXPECT_EQ(exact, 1002);
      EXPECT_EQ(st_exact.source, 2);
      EXPECT_EQ(wild, 1001);
      EXPECT_EQ(st_wild.source, 1);
    } else {
      world.barrier();
      send_i32(world, 0, 7, 1000 + rank.rank());
    }
  });
}

// The same tag on different communicators must never cross-match, even
// when the "wrong" communicator's message arrived first.
TEST(Matching, CommunicatorsIsolateEqualTags) {
  Machine machine(small_cluster(2, 2));
  machine.run(4, [](Rank& rank) {
    Comm& world = rank.world();
    Comm dup = world.dup();
    if (rank.rank() == 0) {
      send_i32(world, 1, 5, 50);
      send_i32(dup, 1, 5, 60);
    } else if (rank.rank() == 1) {
      // Drain the dup's message first although the world's arrived first.
      EXPECT_EQ(recv_i32(dup, 0, 5), 60);
      EXPECT_EQ(recv_i32(world, 0, 5), 50);
    }

    // Split comms: same tag, disjoint groups.
    Comm half = world.split(rank.rank() % 2, rank.rank());
    if (half.rank() == 0) {
      send_i32(half, 1, 5, 500 + rank.rank() % 2);
    } else {
      EXPECT_EQ(recv_i32(half, 0, 5), 500 + rank.rank() % 2);
    }
  });
}

// A reserved block may not straddle the 28-bit collective-tag wrap:
// its tail would alias tags from the start of the window.
TEST(Matching, ReserveTagsSkipsWindowInsteadOfWrapping) {
  Machine machine(small_cluster(1, 1));
  machine.run(1, [](Rank& rank) {
    Comm& world = rank.world();
    constexpr std::int64_t kTagSpace = 1ll << 28;
    const int b1 = world.reserve_tags(static_cast<int>(kTagSpace - 5));
    EXPECT_EQ(b1 & 0x0fffffff, 0);
    // 10 tags no longer fit before the wrap; the block must start in a
    // fresh window, not straddle it.
    const int b2 = world.reserve_tags(10);
    const std::int64_t off = b2 & 0x0fffffff;
    EXPECT_EQ(off, 0);
    EXPECT_LE(off + 10, kTagSpace);
  });
}

// One figure-shaped configuration (IOR interleaved, both drivers, two
// memory points), formatted with full precision. Two fresh runs must be
// byte-identical — the determinism contract every fast-path change in
// the simulator has to keep.
std::string figure_shaped_run() {
  std::ostringstream out;
  out << std::hexfloat;
  const sim::ClusterConfig cluster = small_cluster(2, 3);
  const int nranks = 6;
  workloads::IorConfig w;
  w.block_size = 256ull << 10;
  w.transfer_size = 32ull << 10;
  w.segments = 1;
  w.interleaved = true;

  for (const std::uint64_t mem : {std::uint64_t{1} << 20,
                                  std::uint64_t{256} << 10}) {
    for (const bool use_mccio : {false, true}) {
      Machine machine(cluster);
      pfs::PfsConfig pcfg;
      pcfg.num_osts = 4;
      pcfg.stripe_unit = 64ull << 10;
      pcfg.store_data = false;
      pfs::Pfs fs(machine.cluster(), pcfg);
      node::MemoryVariance var;
      var.relative_stdev = 0.5;
      node::MemoryManager memory(cluster, mem, var, 20120512);

      io::TwoPhaseDriver two_phase;
      core::MccioDriver mccio{core::MccioConfig{}};
      io::CollectiveDriver* driver =
          use_mccio ? static_cast<io::CollectiveDriver*>(&mccio)
                    : &two_phase;
      io::Hints hints;
      hints.cb_buffer_size = mem;

      metrics::CollectiveStats wstats, rstats;
      machine.run(nranks, [&](Rank& rank) {
        io::AccessPlan plan = workloads::ior_plan(
            rank.rank(), nranks, w,
            util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
        io::MPIFile file(rank, rank.world(),
                         io::MPIFile::Services{&fs, &memory}, "/det",
                         /*create=*/true, hints, driver);
        file.set_stats(&wstats);
        file.write_all_plan(plan);
        rank.world().barrier();
        if (rank.rank() == 0) fs.flush_locality();
        rank.world().barrier();
        file.set_stats(&rstats);
        file.read_all_plan(plan);
        rank.world().barrier();
        if (rank.rank() == 0) {
          out << mem << ' ' << use_mccio << ' ' << rank.actor().now();
        }
      });
      for (const metrics::CollectiveStats* s : {&wstats, &rstats}) {
        out << ' ' << s->num_aggregators() << ' ' << s->num_groups()
            << ' ' << s->shuffle_intra_node() << ' '
            << s->shuffle_inter_node() << ' ' << s->io_bytes() << ' '
            << s->rmw_bytes() << ' ' << s->buffer_stats().stdev();
      }
      out << '\n';
    }
  }
  return out.str();
}

// The in-flight slab: slots freed out of order are reused before the
// slab grows, across chunk boundaries, and every envelope comes back
// intact.
TEST(Matching, EnvelopeSlabReusesSlotsOutOfOrder) {
  EnvelopeSlab slab;
  const auto stash_tagged = [&slab](int tag) {
    Envelope env;
    env.tag = tag;
    env.body = util::OwnedPayload(util::ConstPayload::real(
        reinterpret_cast<const std::byte*>(&tag), sizeof(tag)));
    return slab.stash(std::move(env));
  };
  constexpr int kFirst = 600;  // spans three chunks
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < kFirst; ++i) slots.push_back(stash_tagged(i));
  // Take every third envelope, newest first.
  std::vector<std::uint32_t> freed;
  for (int i = kFirst - 1; i >= 0; i -= 3) {
    const Envelope env = slab.take(slots[static_cast<std::size_t>(i)]);
    EXPECT_EQ(env.tag, i);
    int payload = -1;
    std::memcpy(&payload, env.body.view().data, sizeof(payload));
    EXPECT_EQ(payload, i);
    freed.push_back(slots[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(slab.in_flight(), static_cast<std::size_t>(kFirst) - freed.size());
  // New envelopes land in freed slots only: no slot index beyond the
  // first round's high-water mark appears.
  std::vector<std::uint32_t> reused;
  for (std::size_t i = 0; i < freed.size(); ++i) {
    reused.push_back(stash_tagged(kFirst + static_cast<int>(i)));
    EXPECT_LT(reused.back(), static_cast<std::uint32_t>(kFirst));
  }
  std::sort(freed.begin(), freed.end());
  std::vector<std::uint32_t> sorted_reused = reused;
  std::sort(sorted_reused.begin(), sorted_reused.end());
  EXPECT_EQ(sorted_reused, freed);
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(slab.take(reused[i]).tag, kFirst + static_cast<int>(i));
  }
  for (int i = 0; i < kFirst; ++i) {
    if (i % 3 == (kFirst - 1) % 3) continue;  // taken above
    EXPECT_EQ(slab.take(slots[static_cast<std::size_t>(i)]).tag, i);
  }
  EXPECT_EQ(slab.in_flight(), 0u);
}

// Many deliveries to one rank in flight at once, arriving in a different
// order than they were sent: large inter-node messages queue on the NIC
// while small same-node messages overtake them. Several bursts free and
// reuse slab slots; every message must still match its receive.
void run_in_flight_bursts(Rank& rank) {
  constexpr int kBursts = 4;
  constexpr int kPerSender = 40;
  constexpr int kTag = 5;
  Comm& world = rank.world();
  // Ranks 0 and 1 sit on node 0, ranks 2 (sender) and 3 (receiver) on
  // node 1. Message i of burst b from sender s carries s * 1000 + b * 100
  // + i in its first word; node 0's senders pad it to 64 KiB.
  for (int burst = 0; burst < kBursts; ++burst) {
    if (rank.rank() != 3) {
      const std::size_t bytes = rank.node() == 0 ? 64u << 10 : 64u;
      std::vector<std::int32_t> buf(bytes / sizeof(std::int32_t), 0);
      for (int i = 0; i < kPerSender; ++i) {
        buf[0] = rank.rank() * 1000 + burst * 100 + i;
        world.send(3, kTag,
                   util::ConstPayload::real(
                       reinterpret_cast<const std::byte*>(buf.data()),
                       bytes));
      }
    } else {
      std::vector<std::int32_t> buf((64u << 10) / sizeof(std::int32_t));
      std::vector<int> next(3, 0);
      std::vector<int> source_order;
      sim::SimTime last_arrival = 0.0;
      for (int m = 0; m < 3 * kPerSender; ++m) {
        Status st;
        world.recv(kAnySource, kTag,
                   util::Payload::real(
                       reinterpret_cast<std::byte*>(buf.data()),
                       buf.size() * sizeof(std::int32_t)),
                   &st);
        // Any-source matching follows arrival order ...
        EXPECT_GE(st.arrival, last_arrival);
        last_arrival = st.arrival;
        // ... and each source's stream stays FIFO.
        const auto src = static_cast<std::size_t>(st.source);
        EXPECT_EQ(buf[0], st.source * 1000 + burst * 100 + next[src]);
        ++next[src];
        source_order.push_back(st.source);
      }
      EXPECT_EQ(next,
                (std::vector<int>{kPerSender, kPerSender, kPerSender}));
      // Arrival order is not send order: the same-node sender's small
      // messages overtake node 0's queued large ones.
      EXPECT_EQ(source_order.front(), 2);
      EXPECT_NE(source_order.back(), 2);
    }
    world.barrier();
  }
}

// Runs the bursts on the classic loop and with one slab per node shard,
// sequenced and under lookahead.
TEST(Matching, ManyInFlightDeliveriesArriveOutOfOrder) {
  for (const auto& [shards, lookahead] :
       {std::pair{1, false}, std::pair{2, false}, std::pair{2, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << shards << " lookahead=" << lookahead);
    Machine machine(small_cluster(2, 2));
    machine.set_sim_shards(shards);
    machine.set_sim_lookahead(lookahead);
    machine.run(4, run_in_flight_bursts);
  }
}

// A run that aborts with deliveries still in flight must leave the
// machine reusable: the next run starts from empty slabs and endpoints.
// The abort comes from the first delivery (it overflows the posted
// receive), after every rank body has returned, so 49 envelopes are
// still stashed when run() throws.
TEST(Matching, RunAbortedMidFlightThenRunsCleanly) {
  for (const auto& [shards, lookahead] :
       {std::pair{1, false}, std::pair{2, false}, std::pair{2, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << shards << " lookahead=" << lookahead);
    Machine machine(small_cluster(2, 2));
    machine.set_sim_shards(shards);
    machine.set_sim_lookahead(lookahead);
    EXPECT_THROW(machine.run(4,
                             [](Rank& rank) {
                               Comm& world = rank.world();
                               if (rank.rank() == 0) {
                                 for (int i = 0; i < 50; ++i) {
                                   send_i32(world, 3, 9, i);
                                 }
                               } else if (rank.rank() == 3) {
                                 std::int16_t small = 0;
                                 world.irecv(0, 9,
                                             util::Payload::real(
                                                 reinterpret_cast<std::byte*>(
                                                     &small),
                                                 sizeof(small)));
                               }
                             }),
                 util::Error);
    std::vector<std::int32_t> got;
    machine.run(4, [&got](Rank& rank) {
      Comm& world = rank.world();
      if (rank.rank() == 0) {
        for (int i = 0; i < 50; ++i) send_i32(world, 3, 9, 100 + i);
      } else if (rank.rank() == 3) {
        for (int i = 0; i < 50; ++i) got.push_back(recv_i32(world, 0, 9));
      }
    });
    std::vector<std::int32_t> want;
    for (int i = 0; i < 50; ++i) want.push_back(100 + i);
    EXPECT_EQ(got, want);
  }
}

TEST(Matching, FigureShapedRunIsDeterministic) {
  const std::string first = figure_shaped_run();
  const std::string second = figure_shaped_run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mcio::mpi
