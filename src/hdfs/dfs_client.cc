#include "src/hdfs/dfs_client.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/hdfs/datanode.h"
#include "src/util/log.h"

namespace hogsim::hdfs {

void DfsOp::Cancel() {
  if (state_ == nullptr || state_->finished) return;
  state_->cancelled = true;
  state_->finished = true;
  if (state_->abort) {
    auto abort = std::move(state_->abort);
    abort();
  }
}

DfsClient::DfsClient(Namenode& namenode)
    : nn_(namenode),
      sim_(namenode.simulation()),
      net_(namenode.network()),
      ins_(namenode.simulation().obs().metrics()) {}

namespace {

// Pipeline-recovery backoff: min(cap, base * 2^n) plus jitter so that the
// many clients a site-scale preemption hits do not all re-ask the namenode
// in the same tick. The jitter draw is derived from (block, retry) alone —
// it never touches a run RNG, so recovery does not perturb the draw
// sequence any other component sees.
constexpr SimDuration kRecoveryBackoffBase = kSecond / 2;
constexpr SimDuration kRecoveryBackoffCap = 8 * kSecond;

SimDuration RecoveryDelay(BlockId block, int retry) {
  SimDuration backoff = kRecoveryBackoffBase;
  for (int i = 0; i < retry && backoff < kRecoveryBackoffCap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kRecoveryBackoffCap);
  Rng jitter(0x7F4A7C15ull ^ (static_cast<std::uint64_t>(block) << 8) ^
             static_cast<std::uint64_t>(retry));
  return backoff + jitter.UniformInt(0, kRecoveryBackoffBase - 1);
}

}  // namespace

DfsOp DfsClient::ReadBlock(net::NodeId reader, BlockId block,
                           ReadCallback done) {
  DfsOp op;
  op.state_ = std::make_shared<DfsOp::State>();

  // Locality-ordered replica list: local node, then same site, then rest.
  std::vector<DatanodeId> holders = nn_.BlockHolders(block);
  std::vector<DatanodeId> order;
  auto add_matching = [&](auto&& pred) {
    for (DatanodeId dn : holders) {
      if (std::find(order.begin(), order.end(), dn) == order.end() &&
          pred(dn)) {
        order.push_back(dn);
      }
    }
  };
  add_matching([&](DatanodeId dn) {
    return nn_.datanode(dn).net_node == reader;
  });
  add_matching([&](DatanodeId dn) {
    return net_.site_of(nn_.datanode(dn).net_node) == net_.site_of(reader);
  });
  add_matching([](DatanodeId) { return true; });

  TryReadReplica(op.state_, reader, block, std::move(order), 0,
                 std::move(done));
  return op;
}

void DfsClient::TryReadReplica(std::shared_ptr<DfsOp::State> state,
                               net::NodeId reader, BlockId block,
                               std::vector<DatanodeId> order,
                               std::size_t index, ReadCallback done) {
  if (state->cancelled) return;
  if (!nn_.available()) {
    // Master outage (§III.B): the file system is unavailable; block and
    // retry rather than fail — no data is lost.
    auto handle = sim_.ScheduleAfter(
        10 * kSecond,
        [this, state, reader, block, order, index, done]() mutable {
          TryReadReplica(state, reader, block, std::move(order), index,
                         std::move(done));
        });
    state->abort = [&sim = sim_, handle]() mutable { sim.Cancel(handle); };
    return;
  }
  const Bytes size = nn_.BlockSize(block);
  auto finish = [state, done](bool ok, bool local) {
    if (state->cancelled) return;
    state->finished = true;
    state->abort = nullptr;
    done(ok, local);
  };
  if (index >= order.size()) {
    finish(false, false);
    return;
  }
  const DatanodeId dn = order[index];
  Datanode* daemon = nn_.datanode(dn).daemon;
  auto next = [this, state, reader, block, order, index,
               done](SimDuration delay) mutable {
    auto handle = sim_.ScheduleAfter(
        delay, [this, state, reader, block, order = std::move(order), index,
                done = std::move(done)]() mutable {
          TryReadReplica(state, reader, block, std::move(order), index + 1,
                         std::move(done));
        });
    state->abort = [&sim = sim_, handle]() mutable { sim.Cancel(handle); };
  };

  if (daemon == nullptr || !daemon->process_alive()) {
    // Connection refused: fail fast, costing one round trip.
    next(2 * net_.Latency(reader, nn_.datanode(dn).net_node));
    return;
  }
  if (!daemon->can_serve()) {
    // Zombie datanode (§IV.D.1): it accepts the connection but cannot read
    // its deleted block directory; the client wastes a timeout.
    next(nn_.config().read_retry_timeout);
    return;
  }
  if (daemon->net_node() == reader) {
    // Node-local read straight off the local disk.
    const auto op = daemon->disk().Read(size, [this, finish, size] {
      local_read_bytes_ += size;
      finish(true, true);
    });
    state->abort = [daemon, op] { daemon->disk().Cancel(op); };
    return;
  }
  // Remote read: the serving datanode reads from its disk, then streams the
  // block to the reader.
  const auto disk_op = daemon->disk().Read(size, [this, state, reader, block,
                                                  order, index, done, daemon,
                                                  size, finish]() mutable {
    if (state->cancelled) return;
    const net::FlowId flow = net_.StartFlow(
        daemon->net_node(), reader, size,
        [this, state, reader, block, order = std::move(order), index,
         done = std::move(done), size, finish](bool ok) mutable {
          if (state->cancelled) return;
          if (ok) {
            remote_read_bytes_ += size;
            finish(true, false);
          } else {
            TryReadReplica(state, reader, block, std::move(order), index + 1,
                           std::move(done));
          }
        });
    state->abort = [&net = net_, flow] { net.CancelFlow(flow); };
  });
  state->abort = [daemon, disk_op] { daemon->disk().Cancel(disk_op); };
}

DfsOp DfsClient::WriteBlock(net::NodeId writer, FileId file, Bytes size,
                            Callback done) {
  DfsOp op;
  op.state_ = std::make_shared<DfsOp::State>();
  RunPipeline(op.state_, writer, file, size, 0, std::move(done));
  return op;
}

void DfsClient::RunPipeline(std::shared_ptr<DfsOp::State> state,
                            net::NodeId writer, FileId file, Bytes size,
                            int attempt, Callback done) {
  if (state->cancelled) return;
  if (!nn_.available()) {
    // Block on the master outage without consuming a write attempt.
    auto handle = sim_.ScheduleAfter(
        10 * kSecond, [this, state, writer, file, size, attempt, done] {
          RunPipeline(state, writer, file, size, attempt, done);
        });
    state->abort = [&sim = sim_, handle]() mutable { sim.Cancel(handle); };
    return;
  }
  auto finish = [state, done](bool ok) {
    if (state->cancelled) return;
    state->finished = true;
    state->abort = nullptr;
    done(ok);
  };
  if (!nn_.FileExists(file)) {
    // Fail the write from its own event, so WriteBlock never calls back
    // before it has returned the op.
    auto handle = sim_.ScheduleAfter(0, [finish] { finish(false); });
    state->abort = [&sim = sim_, handle]() mutable { sim.Cancel(handle); };
    return;
  }

  const int replication = nn_.FileReplication(file);
  const DatanodeId writer_dn = nn_.DatanodeAt(writer);
  const std::vector<DatanodeId> targets =
      nn_.ChooseTargets(replication, writer_dn, {}, size);
  if (targets.empty()) {
    if (attempt + 1 < kMaxWriteAttempts) {
      auto handle = sim_.ScheduleAfter(
          kSecond, [this, state, writer, file, size, attempt, done] {
            RunPipeline(state, writer, file, size, attempt + 1, done);
          });
      state->abort = [&sim = sim_, handle]() mutable { sim.Cancel(handle); };
    } else {
      HOG_LOG(kWarn, sim_.now(), "dfs")
          << "write failed: no targets for " << size << " bytes";
      finish(false);
    }
    return;
  }

  // Reserve space on every pipeline member up front (the policy only
  // proposed nodes that had room at selection time).
  for (DatanodeId t : targets) {
    const bool ok = nn_.datanode(t).daemon->disk().Reserve(size);
    assert(ok);
    (void)ok;
  }

  struct Pipeline {
    BlockId block;
    std::vector<DatanodeId> targets;
    std::vector<net::FlowId> flows;
    std::vector<storage::FairQueue::OpId> writes;
    std::vector<char> succeeded;
    std::vector<char> recovering;  // hop waiting out a recovery backoff
    std::vector<char> replaced;    // hop's target was swapped at least once
    std::vector<sim::EventHandle> retries;
    int outstanding = 0;
    int recoveries = 0;  // replacement budget consumed
  };
  auto p = std::make_shared<Pipeline>();
  p->block = nn_.AllocateBlock(file, size);
  p->targets = targets;
  p->flows.assign(targets.size(), net::kInvalidFlow);
  p->writes.assign(targets.size(), storage::FairQueue::kInvalidOp);
  p->succeeded.assign(targets.size(), 0);
  p->recovering.assign(targets.size(), 0);
  p->replaced.assign(targets.size(), 0);
  p->retries.assign(targets.size(), {});
  p->outstanding = static_cast<int>(targets.size());

  auto settle = [this, state, p, writer, file, size, attempt, done,
                 finish](std::size_t i, bool ok) {
    p->flows[i] = net::kInvalidFlow;
    p->writes[i] = storage::FairQueue::kInvalidOp;
    p->succeeded[i] = ok ? 1 : 0;
    if (!ok) {
      Datanode* daemon = nn_.datanode(p->targets[i]).daemon;
      if (daemon != nullptr) daemon->disk().Release(size);
    }
    if (--p->outstanding > 0) return;
    // Pipeline drained: commit the successful replica set.
    std::vector<DatanodeId> holders;
    for (std::size_t j = 0; j < p->targets.size(); ++j) {
      if (p->succeeded[j]) holders.push_back(p->targets[j]);
    }
    if (!holders.empty()) {
      nn_.CommitBlock(p->block, holders);
      finish(true);
      return;
    }
    nn_.AbandonBlock(p->block);
    if (attempt + 1 < kMaxWriteAttempts) {
      RunPipeline(state, writer, file, size, attempt + 1, done);
    } else {
      finish(false);
    }
  };

  state->abort = [this, p, size] {
    for (std::size_t i = 0; i < p->targets.size(); ++i) {
      if (p->retries[i].pending()) sim_.Cancel(p->retries[i]);
      const bool pending = p->flows[i] != net::kInvalidFlow ||
                           p->writes[i] != storage::FairQueue::kInvalidOp ||
                           p->recovering[i];
      if (p->flows[i] != net::kInvalidFlow) net_.CancelFlow(p->flows[i]);
      Datanode* daemon = nn_.datanode(p->targets[i]).daemon;
      if (daemon == nullptr) continue;
      if (p->writes[i] != storage::FairQueue::kInvalidOp) {
        daemon->disk().Cancel(p->writes[i]);
      }
      // Release reservations for hops that completed (the block is being
      // abandoned), were still in flight, or held a replacement
      // reservation across a recovery backoff; settled failures already
      // released theirs.
      if (p->succeeded[i] || pending) daemon->disk().Release(size);
    }
    nn_.AbandonBlock(p->block);
  };

  // Hop launch / recovery machinery. `launch` streams hop i from its
  // nearest live upstream member and writes to the hop target's disk;
  // `recover` swaps a failed hop's target for a namenode-chosen
  // replacement and relaunches after a capped exponential backoff. The
  // two reference each other weakly: strong references live only in
  // in-flight flow callbacks and scheduled retry events, so the pair frees
  // itself once the pipeline settles.
  auto launch = std::make_shared<std::function<void(std::size_t)>>();
  auto recover = std::make_shared<std::function<void(std::size_t)>>();

  // The nearest upstream member with a settled or in-flight replica (the
  // writer if none): where a relaunched hop streams from.
  auto upstream = [this, p, writer](std::size_t i) -> net::NodeId {
    for (std::size_t j = i; j-- > 0;) {
      const bool active = p->flows[j] != net::kInvalidFlow ||
                          p->writes[j] != storage::FairQueue::kInvalidOp;
      if (p->succeeded[j] || active) return nn_.datanode(p->targets[j]).net_node;
    }
    return writer;
  };

  *recover = [this, state, p, writer, size, settle,
              weak_launch = std::weak_ptr<std::function<void(std::size_t)>>(
                  launch),
              weak_self = std::weak_ptr<std::function<void(std::size_t)>>(
                  recover)](std::size_t i) {
    if (state->cancelled) return;
    auto launch_fn = weak_launch.lock();
    auto self = weak_self.lock();
    // Budget spent, master down, or the machinery gone: drop the replica
    // and let the block commit with the surviving members.
    if (launch_fn == nullptr || p->recoveries >= kMaxPipelineRecoveries ||
        !nn_.available()) {
      ins_.recovery_failed.Add();
      settle(i, false);
      return;
    }
    const std::vector<DatanodeId> replacement =
        nn_.ChooseTargets(1, nn_.DatanodeAt(writer), p->targets, size);
    if (replacement.empty() ||
        !nn_.datanode(replacement.front()).daemon->disk().Reserve(size)) {
      ins_.recovery_failed.Add();
      settle(i, false);
      return;
    }
    // The failed member keeps no reservation; the replacement holds one
    // from here on (the abort path knows via `recovering`).
    Datanode* old = nn_.datanode(p->targets[i]).daemon;
    if (old != nullptr) old->disk().Release(size);
    p->targets[i] = replacement.front();
    p->replaced[i] = 1;
    p->recovering[i] = 1;
    const int retry = p->recoveries++;
    p->retries[i] = sim_.ScheduleAfter(
        RecoveryDelay(p->block, retry), [state, p, i, launch_fn, self] {
          (void)self;  // holds the recover closure across the backoff
          if (state->cancelled) return;
          p->recovering[i] = 0;
          (*launch_fn)(i);
        });
  };

  *launch = [this, state, p, size, settle, upstream,
             weak_self = std::weak_ptr<std::function<void(std::size_t)>>(
                 launch),
             weak_recover = std::weak_ptr<std::function<void(std::size_t)>>(
                 recover)](std::size_t i) {
    auto recover_fn = weak_recover.lock();
    auto self = weak_self.lock();
    const net::NodeId from = upstream(i);
    const net::NodeId to = nn_.datanode(p->targets[i]).net_node;
    p->flows[i] = net_.StartFlow(
        from, to, size,
        [this, p, i, size, state, settle, recover_fn, self](bool ok) {
          (void)self;  // keeps the launch/recover pair alive while in flight
          if (state->cancelled) return;
          p->flows[i] = net::kInvalidFlow;
          Datanode* daemon = nn_.datanode(p->targets[i]).daemon;
          if (!ok || daemon == nullptr || !daemon->can_serve()) {
            ins_.hop_failed.Add();
            if (recover_fn != nullptr) {
              (*recover_fn)(i);
            } else {
              settle(i, false);
            }
            return;
          }
          const auto op = daemon->disk().Write(
              size, [this, settle, recover_fn, self, p, i] {
                (void)self;
                // The ack of a member that died (or zombified) while the
                // block was still hitting its platters never reaches the
                // client — re-validate before counting the replica.
                Datanode* now = nn_.datanode(p->targets[i]).daemon;
                if (now == nullptr || !now->can_serve()) {
                  ins_.hop_failed.Add();
                  if (recover_fn != nullptr) {
                    (*recover_fn)(i);
                  } else {
                    settle(i, false);
                  }
                  return;
                }
                if (p->replaced[i]) ins_.recovered.Add();
                settle(i, true);
              });
          if (op == storage::FairQueue::kInvalidOp) {
            ins_.hop_failed.Add();
            if (recover_fn != nullptr) {
              (*recover_fn)(i);
            } else {
              settle(i, false);
            }
            return;
          }
          p->writes[i] = op;
        });
  };

  // Launch every hop of the pipeline. Hop i streams from the previous
  // pipeline member (the writer for hop 0); the hop's target then writes
  // the block to its local disk. Hops run concurrently, approximating
  // HDFS's cut-through pipelining.
  for (std::size_t i = 0; i < targets.size(); ++i) (*launch)(i);
}

}  // namespace hogsim::hdfs
