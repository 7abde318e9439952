// Cluster topology: nodes, rank placement and per-node resources.
//
// Defaults model the paper's testbed: 2×6-core Xeon nodes (12 ranks/node),
// 24 GB per node, DDR InfiniBand (~1.5 GB/s per port).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/resource.h"
#include "sim/time.h"

namespace mcio::sim {

struct ClusterConfig {
  int num_nodes = 10;
  int ranks_per_node = 12;

  // Network.
  double nic_bandwidth = 1.5e9;     ///< bytes/s each direction per node
  SimTime nic_latency = 2.0e-6;     ///< per-message wire latency
  SimTime send_overhead = 1.0e-6;   ///< CPU time to post a send
  SimTime recv_overhead = 1.0e-6;   ///< CPU time to complete a receive

  // Node memory system.
  double membus_bandwidth = 25.0e9;  ///< off-chip memory bandwidth per node
  std::uint64_t node_memory = 24ull << 30;  ///< physical memory per node
  double swap_bandwidth = 50.0e6;    ///< paging device bandwidth

  // Intra-node shared-memory channel: co-located ranks hand payloads to
  // their node leader through a per-node staging queue so the combine is
  // charged against a real resource — members pay one pass through the
  // stage instead of getting it for free: page-remap transports clear the
  // NIC but still cross the memory system once.
  double shm_bandwidth = 20.0e9;   ///< bytes/s per node, all ranks shared
  SimTime shm_latency = 0.3e-6;    ///< per-message kernel/queue overhead
  /// CPU time to post a shm send: a ring-buffer enqueue, not a NIC
  /// doorbell — an order of magnitude below send_overhead.
  SimTime shm_send_overhead = 0.1e-6;

  // Far-memory (disaggregated) channel: an aggregation buffer borrowed
  // from a donor node is reached over the fabric at RDMA-class speed —
  // well below the local memory bus, far above the paging device. The
  // queue sits donor-side (one per node), so concurrent borrowers of the
  // same donor contend for its fabric port like NIC traffic does.
  double fabric_mem_bandwidth = 6.0e9;  ///< bytes/s per donor node
  SimTime fabric_mem_latency = 1.5e-6;  ///< per-access one-way latency

  int total_ranks() const { return num_nodes * ranks_per_node; }
};

/// Owns the per-node contended resources and the rank→node mapping (block
/// placement: ranks 0..ppn-1 on node 0, and so on — MPICH default).
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  int num_nodes() const { return config_.num_nodes; }
  int total_ranks() const { return config_.total_ranks(); }

  int node_of_rank(int rank) const;
  /// Ranks hosted on `node`, in rank order.
  std::vector<int> ranks_on_node(int node) const;
  /// Lowest rank on `node`.
  int first_rank_on_node(int node) const;

  BandwidthQueue& nic_out(int node);
  BandwidthQueue& nic_in(int node);
  BandwidthQueue& membus(int node);
  /// The node's shared-memory staging channel (node-leader combines).
  BandwidthQueue& shm(int node);
  /// The node's donor-side far-memory port (borrowed-buffer fills/drains).
  BandwidthQueue& fabric(int node);

  void reset_accounting();

 private:
  ClusterConfig config_;
  std::vector<BandwidthQueue> nic_out_;
  std::vector<BandwidthQueue> nic_in_;
  std::vector<BandwidthQueue> membus_;
  std::vector<BandwidthQueue> shm_;
  std::vector<BandwidthQueue> fabric_;
};

}  // namespace mcio::sim
