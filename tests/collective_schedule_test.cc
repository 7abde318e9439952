// Cross-checks the schedule-driven collectives (mpi/schedule.h) against
// the fiber loops over point-to-point that they replaced. The loops live
// on here only as reference implementations over the public Comm API:
// the dissemination barrier, the binomial gather of the wire bundle, and
// the binomial broadcast of that bundle as a framed blob. Both sides must
// agree bit for bit on results, final clocks, audit counters and every
// node's NIC/membus/shm queue state, with clock skew and interfering
// traffic on the same NICs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpi/comm.h"
#include "mpi/machine.h"
#include "util/check.h"
#include "verify/auditor.h"

namespace mcio::mpi {
namespace {

// --- reference implementations over the public p2p API ---

void ref_barrier(Comm& c) {
  const int tag = c.reserve_tags(1);
  const auto p = c.size();
  std::byte token{};
  for (int k = 1; k < p; k <<= 1) {
    const int to = (c.rank() + k) % p;
    const int from = (c.rank() - k % p + p) % p;
    Request r = c.irecv(from, tag, util::Payload::real(&token, 0));
    c.send(to, tag, util::ConstPayload::real(&token, 0));
    c.wait(r);
  }
}

std::uint64_t read_u64(const std::vector<std::byte>& in, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + pos, sizeof(v));
  return v;
}

void write_u64(std::vector<std::byte>& out, std::size_t pos,
               std::uint64_t v) {
  std::memcpy(out.data() + pos, &v, sizeof(v));
}

/// One-item wire bundle: u64 count, u64 rank, u64 len, bytes.
std::vector<std::byte> wire_item(int rank, std::span<const std::byte> b) {
  std::vector<std::byte> w(3 * sizeof(std::uint64_t) + b.size());
  write_u64(w, 0, 1);
  write_u64(w, 8, static_cast<std::uint64_t>(rank));
  write_u64(w, 16, b.size());
  if (!b.empty()) std::memcpy(w.data() + 24, b.data(), b.size());
  return w;
}

/// Binomial gather of the flat wire bundle at `root`.
std::vector<std::byte> ref_gather_wire(Comm& c, int tag, int root,
                                       std::span<const std::byte> mine) {
  const auto p = c.size();
  const int relative = (c.rank() - root + p) % p;
  std::vector<std::byte> acc = wire_item(c.rank(), mine);
  std::uint64_t count = 1;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        const auto child = c.recv_blob((src_rel + root) % p, tag);
        count += read_u64(child, 0);
        acc.insert(acc.end(), child.begin() + 8, child.end());
        write_u64(acc, 0, count);
      }
    } else {
      c.send_blob(((relative & ~mask) + root) % p, tag, acc);
      return {};
    }
  }
  return acc;
}

/// Binomial broadcast of `wire` from `root` as a framed blob: the same
/// messages, charges and order as Comm::bcast_shared.
std::vector<std::byte> ref_bcast_wire(Comm& c, int tag, int root,
                                      std::vector<std::byte> wire) {
  const auto p = c.size();
  const int relative = (c.rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      wire = c.recv_blob((relative - mask + root) % p, tag);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (relative + mask < p) {
      c.send_blob((relative + mask + root) % p, tag, wire);
    }
  }
  return wire;
}

std::shared_ptr<const Gathered> ref_allgather(Comm& c,
                                              std::span<const std::byte> b) {
  const int tag = c.reserve_tags(2);
  auto wire = ref_bcast_wire(c, tag + 1, 0, ref_gather_wire(c, tag, 0, b));
  return std::make_shared<const Gathered>(wire, c.size());
}

template <typename T>
std::span<const std::byte> bytes_of(const T& v) {
  return {reinterpret_cast<const std::byte*>(&v), sizeof(T)};
}

/// A bundle the broadcast root owns: one i64 item per rank.
std::vector<std::byte> root_wire(int p, std::int64_t salt) {
  std::vector<std::byte> w(sizeof(std::uint64_t));
  write_u64(w, 0, static_cast<std::uint64_t>(p));
  for (int r = p - 1; r >= 0; --r) {  // any item order parses
    const std::int64_t v = salt * 1000 + r;
    const auto item = wire_item(r, bytes_of(v));
    w.insert(w.end(), item.begin() + 8, item.end());
  }
  return w;
}

// --- the scenario, run through the library or the reference ---

/// Deterministic per-rank clock skew, up to about 100 µs.
double skew(int rank, int step) {
  const auto h = static_cast<std::uint32_t>(rank * 2654435761u +
                                            static_cast<unsigned>(step) *
                                                40503u);
  return static_cast<double>(h % 1000) * 1e-7;
}

class Collectives {
 public:
  explicit Collectives(bool reference) : reference_(reference) {}

  void barrier(Comm& c) const {
    if (reference_) {
      ref_barrier(c);
    } else {
      c.barrier();
    }
  }

  std::shared_ptr<const Gathered> allgather(Comm& c, std::int64_t v) const {
    return reference_ ? ref_allgather(c, bytes_of(v))
                      : c.allgather_shared(v);
  }

  double allreduce_max(Comm& c, double v) const {
    if (!reference_) return c.allreduce_max(v);
    const auto all = ref_allgather(c, bytes_of(v));
    double m = all->as<double>().front();
    for (const double x : all->as<double>()) m = std::max(m, x);
    return m;
  }

  std::shared_ptr<const Gathered> bcast(Comm& c, int root,
                                        std::int64_t salt) const {
    const bool at_root = c.rank() == root;
    if (reference_) {
      const int tag = c.reserve_tags(1);
      auto wire = ref_bcast_wire(
          c, tag, root, at_root ? root_wire(c.size(), salt)
                                : std::vector<std::byte>{});
      return std::make_shared<const Gathered>(wire, c.size());
    }
    std::shared_ptr<const Gathered> mine;
    if (at_root) {
      mine = std::make_shared<const Gathered>(root_wire(c.size(), salt),
                                              c.size());
    }
    return c.bcast_shared(std::move(mine), root);
  }

 private:
  bool reference_;
};

/// Appends a Gathered's i64 items and the caller's clock to `log`.
void record(std::vector<double>& log, const Gathered& g, double clock) {
  for (const std::int64_t x : g.as<std::int64_t>()) {
    log.push_back(static_cast<double>(x));
  }
  log.push_back(clock);
}

/// The collectives under test on `c`, with skew between them.
void exercise(const Collectives& coll, Comm& c, sim::Actor& actor,
              int salt, std::vector<double>& log) {
  actor.advance(skew(c.rank(), salt));
  coll.barrier(c);
  log.push_back(actor.now());
  actor.advance(skew(c.rank(), salt + 1));
  record(log, *coll.allgather(c, c.rank() * 10 + salt), actor.now());
  log.push_back(coll.allreduce_max(c, skew(c.rank(), salt + 2)));
  log.push_back(actor.now());
  // Non-zero roots where the size allows.
  for (const int root : {c.size() - 1, c.size() / 3}) {
    actor.advance(skew(c.rank(), salt + 3 + root));
    record(log, *coll.bcast(c, root, salt + root), actor.now());
  }
  coll.barrier(c);
  log.push_back(actor.now());
}

struct QueueState {
  std::uint64_t requests = 0;
  double next_free = 0.0;
  friend bool operator==(const QueueState&, const QueueState&) = default;
};

struct Outcome {
  std::vector<std::vector<double>> log;  ///< per rank: results and clocks
  std::vector<sim::SimTime> finish;
  std::uint64_t slices = 0;
  std::uint64_t messages = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t waits = 0;
  std::vector<QueueState> queues;  ///< per node: nic_out, nic_in, membus, shm
};

Outcome run_scenario(int p, bool reference) {
  sim::ClusterConfig cfg;
  cfg.ranks_per_node = 4;
  cfg.num_nodes = (p + 3) / 4;
  Machine machine(cfg);
  verify::Auditor audit;
  audit.set_deferred(true);
  machine.set_observer(&audit);
  const Collectives coll(reference);
  Outcome out;
  out.log.resize(static_cast<std::size_t>(p));
  out.finish = machine.run(p, [&](Rank& rank) {
    auto& log = out.log[static_cast<std::size_t>(rank.rank())];
    Comm& world = rank.world();
    sim::Actor& actor = rank.actor();
    // Interfering traffic: a 64 KiB message per rank in flight on the
    // same NICs and membus while the collectives run.
    const int noise_tag = world.reserve_tags(1);
    const int shift = p / 2 + 1;
    world.send((rank.rank() + shift) % p, noise_tag,
               util::ConstPayload::virtual_bytes(64 << 10));
    exercise(coll, world, actor, 1, log);
    // Sub-communicators, ranks reordered by key.
    Comm sub = world.split(rank.rank() % 3, -rank.rank());
    exercise(coll, sub, actor, 7, log);
    world.recv((rank.rank() - shift % p + p) % p, noise_tag,
               util::Payload::virtual_bytes(64 << 10));
    log.push_back(actor.now());
  });
  const verify::AuditCounters& k = audit.counters();
  out.slices = k.slices;
  out.messages = k.messages;
  out.unexpected = k.unexpected;
  out.waits = k.waits;
  sim::Cluster& cl = machine.cluster();
  for (int n = 0; n < cfg.num_nodes; ++n) {
    for (sim::BandwidthQueue* q : {&cl.nic_out(n), &cl.nic_in(n),
                                   &cl.membus(n), &cl.shm(n)}) {
      out.queues.push_back(QueueState{q->total_requests(), q->next_free()});
    }
  }
  machine.set_observer(nullptr);
  return out;
}

void expect_identical(const Outcome& lib, const Outcome& ref) {
  EXPECT_EQ(lib.log, ref.log);
  EXPECT_EQ(lib.finish, ref.finish);
  EXPECT_EQ(lib.slices, ref.slices);
  EXPECT_EQ(lib.messages, ref.messages);
  EXPECT_EQ(lib.unexpected, ref.unexpected);
  EXPECT_EQ(lib.waits, ref.waits);
  EXPECT_TRUE(lib.queues == ref.queues);
}

class ScheduleMatchesFiberLoops : public ::testing::TestWithParam<int> {};

// The engine has one scheduler; the name is kept so test ids stay stable.
TEST_P(ScheduleMatchesFiberLoops, InEverySchedulerMode) {
  const int p = GetParam();
  const Outcome lib = run_scenario(p, /*reference=*/false);
  const Outcome ref = run_scenario(p, /*reference=*/true);
  expect_identical(lib, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScheduleMatchesFiberLoops,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20, 21, 22, 23, 24, 25, 26, 27,
                                           28, 29, 30, 31, 32, 33, 64, 65));

// --- deadlock text and result lifetime ---

/// Runs `body` on 4 ranks, expecting a deadlock; returns its message.
std::string deadlock_text(const std::function<void(Rank&)>& body,
                          std::uint64_t* world_id) {
  sim::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.ranks_per_node = 2;
  Machine machine(cfg);
  verify::Auditor audit;
  audit.set_deferred(true);
  machine.set_observer(&audit);
  std::string text;
  try {
    machine.run(4, body);
    ADD_FAILURE() << "expected a deadlock";
  } catch (const util::Error& e) {
    text = e.what();
  }
  *world_id = machine.world_group()->id;
  machine.set_observer(nullptr);
  return text;
}

std::string blocked(int rank, int src, std::uint64_t comm) {
  // The first collective tag of a communicator.
  return "\n  rank " + std::to_string(rank) + ": blocked in recv(src=" +
         std::to_string(src) + ", tag=536870912, comm=" +
         std::to_string(comm) + ")";
}

TEST(ScheduleDeadlock, BarrierOneRankNeverEnters) {
  std::string text[2];
  std::uint64_t id = 0;
  for (const bool reference : {false, true}) {
    const Collectives coll(reference);
    text[reference] = deadlock_text(
        [&](Rank& rank) {
          if (rank.rank() != 3) coll.barrier(rank.world());
        },
        &id);
  }
  EXPECT_EQ(text[0], text[1]);
  const std::string want = "simulation deadlock; parked actors: 0 1 2" +
                           std::string("\naudit: blocked fibers:") +
                           blocked(0, 3, id) + blocked(1, 3, id) +
                           blocked(2, 0, id);
  EXPECT_NE(text[0].find(want), std::string::npos) << text[0];
}

TEST(ScheduleDeadlock, BroadcastParentNeverSends) {
  std::string text[2];
  std::uint64_t id = 0;
  for (const bool reference : {false, true}) {
    const Collectives coll(reference);
    text[reference] = deadlock_text(
        [&](Rank& rank) {
          if (rank.rank() != 1) coll.bcast(rank.world(), /*root=*/1, 0);
        },
        &id);
  }
  EXPECT_EQ(text[0], text[1]);
  const std::string want = "simulation deadlock; parked actors: 0 2 3" +
                           std::string("\naudit: blocked fibers:") +
                           blocked(0, 3, id) + blocked(2, 1, id) +
                           blocked(3, 1, id);
  EXPECT_NE(text[0].find(want), std::string::npos) << text[0];
}

TEST(ScheduleLifetime, NoSharedResultOutlivesTheCall) {
  constexpr int kRanks = 13;
  sim::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.ranks_per_node = 4;
  Machine machine(cfg);
  std::vector<std::shared_ptr<const Gathered>> held(kRanks);
  long count_after = -1;
  machine.run(kRanks, [&](Rank& rank) {
    held[static_cast<std::size_t>(rank.rank())] =
        rank.world().allgather_shared(std::int64_t{rank.rank()});
    // Past this barrier every rank has returned from the allgather and
    // every broadcast message has been consumed.
    rank.world().barrier();
    if (rank.rank() == 0) count_after = held[0].use_count();
  });
  // One reference per rank, none left in a schedule or an envelope.
  EXPECT_EQ(count_after, kRanks);
  for (const auto& g : held) EXPECT_EQ(g.get(), held[0].get());
}

}  // namespace
}  // namespace mcio::mpi
