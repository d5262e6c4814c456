#include "runtime/coord.h"

#include <algorithm>
#include <charconv>

#include "sim/metrics.h"

namespace crew::runtime {

namespace {
/// FNV-1a: deterministic across platforms and runs (std::hash is not
/// guaranteed to be), so a class's shard is stable everywhere.
uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::string_view kMeAcquire = "me.acquire";
constexpr std::string_view kMeRelease = "me.release";
constexpr std::string_view kMeGrantPrefix = "me.grant:";

/// Parses all of `text` as a decimal integer.
bool ParseWhole(std::string_view text, int32_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}
}  // namespace

std::vector<const MutexReq*> CoordinationSpec::MutexesOf(
    const std::string& workflow, StepId step) const {
  std::vector<const MutexReq*> out;
  for (const MutexReq& req : mutexes) {
    for (const auto& [wf, s] : req.critical_steps) {
      if (wf == workflow && s == step) {
        out.push_back(&req);
        break;
      }
    }
  }
  return out;
}

std::vector<const RollbackDepReq*> CoordinationSpec::RollbackDepsLeading(
    const std::string& workflow) const {
  std::vector<const RollbackDepReq*> out;
  for (const RollbackDepReq& req : rollback_deps) {
    if (req.workflow_a == workflow) out.push_back(&req);
  }
  return out;
}

int CoordinationSpec::RequirementCount(const std::string& workflow) const {
  int count = 0;
  for (const RelativeOrderReq& req : relative_orders) {
    if (req.workflow_a == workflow || req.workflow_b == workflow) {
      count += static_cast<int>(req.step_pairs.size());
    }
  }
  for (const MutexReq& req : mutexes) {
    for (const auto& [wf, step] : req.critical_steps) {
      if (wf == workflow) ++count;
    }
  }
  for (const RollbackDepReq& req : rollback_deps) {
    if (req.workflow_a == workflow || req.workflow_b == workflow) ++count;
  }
  return count;
}

ConflictTracker::ConflictTracker(const CoordinationSpec* spec, int shards)
    : spec_(spec),
      shard_count_(shards < 1 ? 1 : shards),
      shards_(new Shard[static_cast<size_t>(shard_count_)]) {}

int ConflictTracker::ShardOf(const std::string& workflow) const {
  return static_cast<int>(HashName(workflow) %
                          static_cast<uint64_t>(shard_count_));
}

ConflictTracker::ShardLock::ShardLock(const ConflictTracker* tracker,
                                      std::vector<int> indices)
    : tracker_(tracker), indices_(std::move(indices)) {
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()),
                 indices_.end());
  for (int index : indices_) {
    Shard& shard = tracker_->shards_[index];
    if (!shard.mu.try_lock()) {
      shard.contended.fetch_add(1, std::memory_order_relaxed);
      shard.mu.lock();
    }
    shard.acquires.fetch_add(1, std::memory_order_relaxed);
  }
}

ConflictTracker::ShardLock::~ShardLock() {
  for (auto it = indices_.rbegin(); it != indices_.rend(); ++it) {
    tracker_->shards_[*it].mu.unlock();
  }
}

std::vector<RoBinding> ConflictTracker::OnInstanceStart(
    const InstanceId& instance) {
  // Lock the shard of the new instance's class plus every class it has a
  // relative-order requirement against: the binding snapshot then has
  // the same atomicity the old global mutex gave it, while instances of
  // unrelated classes proceed through other shards untouched.
  std::vector<int> involved{ShardOf(instance.workflow)};
  for (const RelativeOrderReq& req : spec_->relative_orders) {
    if (req.workflow_b == instance.workflow) {
      involved.push_back(ShardOf(req.workflow_a));
    } else if (req.workflow_a == instance.workflow) {
      involved.push_back(ShardOf(req.workflow_b));
    }
  }
  ShardLock lock(this, std::move(involved));

  std::vector<RoBinding> bindings;
  for (const RelativeOrderReq& req : spec_->relative_orders) {
    // The new instance may play role B (lagging behind a live A instance)
    // or role A (lagging behind a live earlier B instance, when the
    // requirement relates a class to itself or classes started
    // interleaved). Ordering follows start order: earlier leads.
    auto bind_against = [&](const std::string& lead_class, bool new_is_a) {
      const auto& live = shards_[ShardOf(lead_class)].live;
      auto it = live.find(lead_class);
      if (it == live.end() || it->second.empty()) return;
      const InstanceId& lead = it->second.back();
      if (lead == instance) return;
      RoBinding binding;
      binding.leading = lead;
      binding.lagging = instance;
      for (const auto& [step_a, step_b] : req.step_pairs) {
        // Pair is (A-step, B-step); map onto (lead step, lag step).
        binding.step_pairs.emplace_back(new_is_a ? step_b : step_a,
                                        new_is_a ? step_a : step_b);
      }
      bindings.push_back(std::move(binding));
    };
    if (req.workflow_b == instance.workflow) {
      bind_against(req.workflow_a, /*new_is_a=*/false);
    } else if (req.workflow_a == instance.workflow) {
      bind_against(req.workflow_b, /*new_is_a=*/true);
    }
  }
  shards_[ShardOf(instance.workflow)].live[instance.workflow].push_back(
      instance);
  return bindings;
}

std::vector<std::pair<InstanceId, StepId>>
ConflictTracker::RollbackDependents(const InstanceId& instance,
                                    StepId to_step) const {
  std::vector<int> involved;
  for (const RollbackDepReq& req : spec_->rollback_deps) {
    if (req.workflow_a == instance.workflow) {
      involved.push_back(ShardOf(req.workflow_b));
    }
  }
  if (involved.empty()) return {};
  ShardLock lock(this, std::move(involved));

  std::vector<std::pair<InstanceId, StepId>> out;
  for (const RollbackDepReq& req : spec_->rollback_deps) {
    if (req.workflow_a != instance.workflow) continue;
    // Dependency triggers when rolling back to or above step_a.
    if (req.step_a != kInvalidStep && to_step > req.step_a) continue;
    const auto& live = shards_[ShardOf(req.workflow_b)].live;
    auto it = live.find(req.workflow_b);
    if (it == live.end()) continue;
    for (const InstanceId& dependent : it->second) {
      if (dependent == instance) continue;
      out.emplace_back(dependent, req.step_b);
    }
  }
  return out;
}

void ConflictTracker::OnInstanceEnd(const InstanceId& instance) {
  ShardLock lock(this, {ShardOf(instance.workflow)});
  auto& live = shards_[ShardOf(instance.workflow)].live;
  auto it = live.find(instance.workflow);
  if (it == live.end()) return;
  auto& list = it->second;
  list.erase(std::remove(list.begin(), list.end(), instance), list.end());
}

int64_t ConflictTracker::total_acquires() const {
  int64_t sum = 0;
  for (int i = 0; i < shard_count_; ++i) {
    sum += shards_[i].acquires.load(std::memory_order_relaxed);
  }
  return sum;
}

int64_t ConflictTracker::total_contended() const {
  int64_t sum = 0;
  for (int i = 0; i < shard_count_; ++i) {
    sum += shards_[i].contended.load(std::memory_order_relaxed);
  }
  return sum;
}

void ConflictTracker::ExportStats(sim::Metrics* metrics) const {
  metrics->AddCounter("conflict_tracker.shards", shard_count_);
  metrics->AddCounter("conflict_tracker.acquires", total_acquires());
  metrics->AddCounter("conflict_tracker.contended", total_contended());
}

std::string EncodeMeRequest(MeRequestKind kind, const InstanceId& instance,
                            const std::string& resource, StepId step,
                            NodeId requester) {
  AddRuleMsg msg;
  msg.instance = instance;
  msg.rule_id =
      std::string(kind == MeRequestKind::kAcquire ? kMeAcquire : kMeRelease);
  msg.condition_source = resource;
  msg.action_step = step;
  msg.trigger_events = {std::to_string(requester)};
  return msg.Serialize();
}

std::string EncodeMeGrant(const InstanceId& instance,
                          const std::string& resource, StepId step) {
  AddEventMsg msg;
  msg.instance = instance;
  msg.event_token = std::string(kMeGrantPrefix) + resource + ":S" +
                    std::to_string(step);
  return msg.Serialize();
}

MeRequestKind MeRequestKindOf(const AddRuleMsg& msg) {
  if (msg.rule_id == kMeAcquire) return MeRequestKind::kAcquire;
  if (msg.rule_id == kMeRelease) return MeRequestKind::kRelease;
  return MeRequestKind::kNone;
}

NodeId CheckedRequester(const AddRuleMsg& msg, NodeId from) {
  NodeId named = kInvalidNode;
  if (msg.trigger_events.empty() ||
      !ParseWhole(msg.trigger_events[0], &named) || named != from) {
    return kInvalidNode;
  }
  return named;
}

bool IsMeGrant(std::string_view token) {
  return token.substr(0, kMeGrantPrefix.size()) == kMeGrantPrefix;
}

std::optional<MeGrant> DecodeMeGrant(std::string_view token) {
  if (!IsMeGrant(token)) return std::nullopt;
  size_t colon = token.rfind(":S");
  if (colon == std::string_view::npos || colon < kMeGrantPrefix.size()) {
    return std::nullopt;
  }
  MeGrant grant;
  if (!ParseWhole(token.substr(colon + 2), &grant.step)) return std::nullopt;
  grant.resource = std::string(token.substr(
      kMeGrantPrefix.size(), colon - kMeGrantPrefix.size()));
  return grant;
}

MutexTable::Acquired MutexTable::Acquire(const std::string& resource,
                                         const Holder& requester) {
  Lock& lock = locks_[resource];
  if (!lock.held) {
    lock.held = true;
    lock.holder = requester;
    return Acquired::kGranted;
  }
  if (lock.holder.instance == requester.instance &&
      lock.holder.step == requester.step) {
    return Acquired::kAlreadyHeld;
  }
  lock.waiters.push_back(requester);
  return Acquired::kQueued;
}

bool MutexTable::Release(const std::string& resource,
                         const InstanceId& instance, StepId step,
                         Holder* next,
                         const std::function<bool(const Holder&)>& accept) {
  *next = Holder{};
  Lock& lock = locks_[resource];
  if (!lock.held || !(lock.holder.instance == instance) ||
      lock.holder.step != step) {
    return false;
  }
  lock.held = false;
  while (!lock.waiters.empty()) {
    Holder waiter = std::move(lock.waiters.front());
    lock.waiters.pop_front();
    if (accept && !accept(waiter)) continue;
    lock.held = true;
    lock.holder = waiter;
    *next = std::move(waiter);
    break;
  }
  return true;
}

bool MutexClaims::Release(StepId step, const std::string& resource) {
  auto it = claims_.find({step, resource});
  if (it == claims_.end()) return false;
  bool granted = it->second;
  claims_.erase(it);
  return granted;
}

std::vector<StepId> MutexClaims::GrantedSteps() const {
  std::vector<StepId> steps;
  for (const auto& [claim, granted] : claims_) {
    if (granted && (steps.empty() || steps.back() != claim.first)) {
      steps.push_back(claim.first);
    }
  }
  return steps;
}

}  // namespace crew::runtime
