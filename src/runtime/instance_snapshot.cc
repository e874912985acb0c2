#include "runtime/instance_snapshot.h"

#include <mutex>
#include <utility>
#include <vector>

namespace adept {

std::shared_ptr<const InstanceSnapshot> SnapshotTable::Get(
    InstanceId id) const {
  const Stripe& stripe = StripeOf(id);
  std::lock_guard<SpinLock> lock(stripe.mu);
  auto it = stripe.entries.find(id.value());
  return it == stripe.entries.end() ? nullptr : it->second;
}

std::shared_ptr<const InstanceSnapshot> SnapshotTable::Publish(
    std::shared_ptr<InstanceSnapshot> snapshot) {
  Stripe& stripe = StripeOf(snapshot->id);
  std::shared_ptr<const InstanceSnapshot> previous;
  {
    std::lock_guard<SpinLock> lock(stripe.mu);
    auto& slot = stripe.entries[snapshot->id.value()];
    previous = std::move(slot);
    snapshot->version = (previous == nullptr ? 0 : previous->version) + 1;
    slot = std::move(snapshot);
  }
  if (previous == nullptr) ++size_;
  return previous;
}

std::shared_ptr<const InstanceSnapshot> SnapshotTable::Erase(InstanceId id) {
  Stripe& stripe = StripeOf(id);
  std::shared_ptr<const InstanceSnapshot> previous;
  {
    std::lock_guard<SpinLock> lock(stripe.mu);
    auto it = stripe.entries.find(id.value());
    if (it == stripe.entries.end()) return nullptr;
    previous = std::move(it->second);
    stripe.entries.erase(it);
  }
  --size_;
  return previous;
}

void SnapshotTable::Collect(
    std::vector<std::shared_ptr<const InstanceSnapshot>>* out) const {
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<SpinLock> lock(stripe.mu);
    for (const auto& [_, snapshot] : stripe.entries) {
      out->push_back(snapshot);
    }
  }
}

}  // namespace adept
