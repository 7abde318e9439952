#include "observe.h"

#include <iomanip>

namespace mcio::perfbench {

void CountingTee::on_engine_start(int num_actors) {
  next_->on_engine_start(num_actors);
}

void CountingTee::on_actor_resumed(int actor, double clock) {
  ++counts_.slices;
  next_->on_actor_resumed(actor, clock);
}

void CountingTee::on_actor_yielded(int actor, double clock) {
  next_->on_actor_yielded(actor, clock);
}

std::string CountingTee::describe_deadlock(std::span<const int> stuck) {
  return next_->describe_deadlock(stuck);
}

void CountingTee::on_message_delivered(std::uint64_t comm_id, int src,
                                       int dst_world, int tag,
                                       std::uint64_t bytes, bool matched) {
  ++counts_.messages;
  counts_.bytes += bytes;
  if (!matched) ++counts_.unexpected;
  next_->on_message_delivered(comm_id, src, dst_world, tag, bytes, matched);
}

void CountingTee::on_wait_begin(int actor, std::uint64_t comm_id,
                                int src_world, int tag) {
  ++counts_.waits;
  next_->on_wait_begin(actor, comm_id, src_world, tag);
}

void CountingTee::on_wait_end(int actor) { next_->on_wait_end(actor); }

void CountingTee::on_orphan_message(int dst_world, std::uint64_t comm_id,
                                    int src, int tag, std::uint64_t bytes) {
  next_->on_orphan_message(dst_world, comm_id, src, tag, bytes);
}

void CountingTee::on_orphan_recv(int dst_world, std::uint64_t comm_id,
                                 int src, int tag) {
  next_->on_orphan_recv(dst_world, comm_id, src, tag);
}

void CountingTee::on_lease_grant(const void* mgr, int node,
                                 std::uint64_t bytes) {
  ++counts_.lease_grants;
  next_->on_lease_grant(mgr, node, bytes);
}

void CountingTee::on_lease_release(const void* mgr, int node,
                                   std::uint64_t bytes) {
  next_->on_lease_release(mgr, node, bytes);
}

void CountingTee::on_manager_destroyed(const void* mgr) {
  next_->on_manager_destroyed(mgr);
}

void CountingTee::on_pfs_write(const void* fs, int file,
                               std::uint64_t offset, std::uint64_t len) {
  ++counts_.pfs_writes;
  next_->on_pfs_write(fs, file, offset, len);
}

void CountingTee::on_pfs_read(const void* fs, int file, std::uint64_t offset,
                              std::uint64_t len) {
  ++counts_.pfs_reads;
  next_->on_pfs_read(fs, file, offset, len);
}

void CountingTee::on_pfs_destroyed(const void* fs) {
  next_->on_pfs_destroyed(fs);
}

void CountingTee::on_collective_begin(const void* fs, int file,
                                      bool is_write, int participants,
                                      int rank,
                                      std::span<const util::Extent> extents) {
  next_->on_collective_begin(fs, file, is_write, participants, rank, extents);
}

void CountingTee::on_collective_end(const void* fs, int file, bool is_write,
                                    int rank) {
  next_->on_collective_end(fs, file, is_write, rank);
}

void CountingTee::on_run_end() { next_->on_run_end(); }

void CountingTee::on_run_aborted() { next_->on_run_aborted(); }

int SpanTrace::open(std::string name, int parent, double start) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), parent, start, start});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanTrace::close(int id, double end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = end;
}

void SpanTrace::write_json(std::ostream& os) const {
  const double base = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent << std::setprecision(9)
       << ", \"start_s\": " << s.start - base
       << ", \"end_s\": " << s.end - base << "}";
  }
  os << "\n]}\n";
}

}  // namespace mcio::perfbench
