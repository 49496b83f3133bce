#include "src/storage/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hogsim::storage {

FairQueue::FairQueue(sim::Simulation& sim, Rate rate)
    : sim_(sim),
      rate_(rate),
      completions_(sim, [this](OpId id) { Finish(id); }) {
  assert(rate > 0);
}

FairQueue::OpId FairQueue::Submit(Bytes bytes, std::function<void()> done) {
  AdvanceAll();
  const OpId id = next_op_++;
  Op& op = ops_.try_emplace(id).first->second;
  op.remaining = static_cast<double>(std::max<Bytes>(bytes, 0));
  op.last_update = sim_.now();
  op.done = std::move(done);
  RescheduleAll();
  return id;
}

void FairQueue::Cancel(OpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  AdvanceAll();
  completions_.Erase(it->second.due);
  ops_.erase(it);
  RescheduleAll();
}

void FairQueue::CancelAll() {
  completions_.Clear();  // first: it unschedules the ops' slots
  ops_.clear();
}

void FairQueue::Freeze(SimDuration duration) {
  if (duration <= 0) return;
  // Bank progress earned before the freeze, at the pre-freeze share.
  AdvanceAll();
  const SimTime until = sim_.now() + duration;
  if (until <= frozen_until_) return;  // an active freeze already covers it
  frozen_until_ = until;
  RescheduleAll();
}

void FairQueue::AdvanceAll() {
  if (ops_.empty()) return;
  const SimTime now = sim_.now();
  const Rate share = rate_ / static_cast<double>(ops_.size());
  for (auto& [id, op] : ops_) {
    // Frozen spans earn no progress: an op only advances from the later of
    // its last update and the thaw (frozen_until_ is 0 when never frozen).
    const SimTime from = std::max(op.last_update, frozen_until_);
    if (now > from) {
      op.remaining -= share * ToSeconds(now - from);
      if (op.remaining < 0.0) op.remaining = 0.0;
    }
    op.last_update = now;
  }
}

void FairQueue::RescheduleAll() {
  if (!ops_.empty()) {
    const Rate share = rate_ / static_cast<double>(ops_.size());
    const SimTime start = std::max(sim_.now(), frozen_until_);
    for (auto& [id, op] : ops_) {
      const auto remaining = static_cast<Bytes>(std::ceil(op.remaining));
      const SimDuration eta = TransferTime(remaining, share);
      completions_.Set(op.due, id, start + eta);
    }
  }
  completions_.Arm();
}

void FairQueue::Finish(OpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  // Advance while the finishing op still counts toward the share, so the
  // survivors' progress over the last interval uses the correct rate.
  AdvanceAll();
  std::function<void()> done = std::move(it->second.done);
  ops_.erase(it);
  RescheduleAll();
  if (done) done();
}

Disk::Disk(sim::Simulation& sim, Bytes capacity, Rate bandwidth)
    : capacity_(capacity), queue_(sim, bandwidth) {
  assert(capacity > 0);
}

bool Disk::Reserve(Bytes bytes) {
  assert(bytes >= 0);
  if (used_ + bytes > capacity_) return false;
  used_ += bytes;
  return true;
}

void Disk::Release(Bytes bytes) {
  assert(bytes >= 0);
  used_ -= bytes;
  assert(used_ >= 0);
}

FairQueue::OpId Disk::Read(Bytes bytes, std::function<void()> done) {
  return queue_.Submit(bytes, std::move(done));
}

FairQueue::OpId Disk::Write(Bytes bytes, std::function<void()> done) {
  if (!writable_) return FairQueue::kInvalidOp;
  return queue_.Submit(bytes, std::move(done));
}

}  // namespace hogsim::storage
