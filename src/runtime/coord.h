#ifndef CREW_RUNTIME_COORD_H_
#define CREW_RUNTIME_COORD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/schema.h"
#include "runtime/wire.h"

namespace crew::sim {
class Metrics;
}  // namespace crew::sim

namespace crew::runtime {

/// The three coordinated-execution building blocks of §3, declared at the
/// class (schema) level and bound to concrete instance pairs at start
/// time.

/// Relative ordering: conflicting step pairs of two workflow classes must
/// execute in the same relative order. The first pair establishes which
/// instance leads; subsequent pairs inherit the direction.
struct RelativeOrderReq {
  std::string id;
  std::string workflow_a;
  std::string workflow_b;
  /// (step in A, step in B) pairs, first pair = ordering-establishing.
  std::vector<std::pair<StepId, StepId>> step_pairs;
};

/// Mutual exclusion: the named steps (across classes) must never execute
/// concurrently; modelled as a logical resource acquired for the step's
/// duration.
struct MutexReq {
  std::string id;
  std::string resource;
  std::vector<std::pair<std::string, StepId>> critical_steps;  // (wf, step)
};

/// Rollback dependency: when an instance of `workflow_a` rolls back to or
/// past `step_a`, bound instances of `workflow_b` must roll back to
/// `step_b`.
struct RollbackDepReq {
  std::string id;
  std::string workflow_a;
  StepId step_a = kInvalidStep;
  std::string workflow_b;
  StepId step_b = kInvalidStep;
};

/// All coordinated-execution requirements of a deployed system.
struct CoordinationSpec {
  std::vector<RelativeOrderReq> relative_orders;
  std::vector<MutexReq> mutexes;
  std::vector<RollbackDepReq> rollback_deps;

  std::vector<const MutexReq*> MutexesOf(const std::string& workflow,
                                         StepId step) const;
  std::vector<const RollbackDepReq*> RollbackDepsLeading(
      const std::string& workflow) const;

  /// Total per-step coordination intensity (me+ro+rd in the paper's
  /// Table 3 terms) for a workflow class, used for reporting.
  int RequirementCount(const std::string& workflow) const;
};

/// A concrete binding between two live instances, produced when a new
/// instance starts against the latest prior conflicting instance (order
/// processing semantics: earlier instance leads).
struct RoBinding {
  InstanceId leading;
  InstanceId lagging;
  /// (leading step, lagging step) pairs.
  std::vector<std::pair<StepId, StepId>> step_pairs;
};

/// Tracks the newest instance per workflow class and mints RO bindings
/// for new instances. Used by the front end / engines at instance start.
///
/// Thread-safe and *sharded*: parallel control shares one tracker across
/// all engines, which under the live runtime (src/rt) call in from their
/// own worker threads concurrently. Live-instance state is partitioned
/// into shards by a deterministic hash (FNV-1a) of the workflow class
/// name, each shard behind its own mutex, so engines serialize only when
/// they touch genuinely conflicting classes. Operations spanning several
/// classes (an RO binding reads the lead class while registering the new
/// one) lock their shard set in index order, which makes the cross-shard
/// case deadlock-free and exactly as atomic as the old global mutex.
class ConflictTracker {
 public:
  static constexpr int kDefaultShards = 16;

  explicit ConflictTracker(const CoordinationSpec* spec,
                           int shards = kDefaultShards);

  /// Registers the new instance and returns the RO bindings created
  /// against previously started instances (the new instance lags).
  std::vector<RoBinding> OnInstanceStart(const InstanceId& instance);

  /// Rollback-dependency fan-out: instances of workflow_b started while
  /// an instance of workflow_a was live. Returns (dependent instance,
  /// rollback-to step) pairs for a rollback of `instance` to `to_step`.
  std::vector<std::pair<InstanceId, StepId>> RollbackDependents(
      const InstanceId& instance, StepId to_step) const;

  /// Removes a terminated instance from conflict consideration.
  void OnInstanceEnd(const InstanceId& instance);

  int shard_count() const { return shard_count_; }
  /// Which shard `workflow` maps to (exposed for tests asserting that
  /// disjoint classes land on disjoint shards).
  int ShardOf(const std::string& workflow) const;

  /// Lock acquisitions across all shards, and how many of them found the
  /// shard mutex already held (lock-level contention).
  int64_t total_acquires() const;
  int64_t total_contended() const;
  /// Adds "conflict_tracker.{shards,acquires,contended}" counters.
  void ExportStats(sim::Metrics* metrics) const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    /// Live instances per class, in start order. Guarded by mu.
    std::map<std::string, std::vector<InstanceId>> live;
    std::atomic<int64_t> acquires{0};
    std::atomic<int64_t> contended{0};
  };

  /// RAII multi-shard lock: sorts and dedupes the shard indices, locks
  /// ascending, and counts try_lock misses as contention.
  class ShardLock {
   public:
    ShardLock(const ConflictTracker* tracker, std::vector<int> indices);
    ~ShardLock();
    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;

   private:
    const ConflictTracker* tracker_;
    std::vector<int> indices_;  // sorted, unique
  };

  const CoordinationSpec* spec_;
  const int shard_count_;
  std::unique_ptr<Shard[]> shards_;
};

// ---- mutual-exclusion protocol ----
//
// A step asks its resource's arbiter for the lock and hands it back when
// it completes or fails. Requests ride AddRule (rule id "me.acquire" or
// "me.release", the resource as condition text, the step as action, the
// requesting node as the one trigger event); a grant rides AddEvent as
// the token "me.grant:<resource>:S<step>".

enum class MeRequestKind { kNone, kAcquire, kRelease };

std::string EncodeMeRequest(MeRequestKind kind, const InstanceId& instance,
                            const std::string& resource, StepId step,
                            NodeId requester);
std::string EncodeMeGrant(const InstanceId& instance,
                          const std::string& resource, StepId step);

/// kNone for an AddRule that is no ME request (an RO registration).
MeRequestKind MeRequestKindOf(const AddRuleMsg& msg);

/// The node an AddRule-borne request (ME or RO registration) acts for:
/// the sender `from`, if the message names it as its first trigger event
/// in whole decimal; kInvalidNode otherwise, and the caller drops the
/// request (a misnamed requester would get a lock it never releases).
NodeId CheckedRequester(const AddRuleMsg& msg, NodeId from);

struct MeGrant {
  std::string resource;
  StepId step = kInvalidStep;
};
/// True for any AddEvent token of the grant family.
bool IsMeGrant(std::string_view token);
/// nullopt for a malformed grant token.
std::optional<MeGrant> DecodeMeGrant(std::string_view token);

/// The arbiter's lock table: per resource one holder and a FIFO of
/// waiters, each an (instance, step) at the node that asked.
class MutexTable {
 public:
  struct Holder {
    InstanceId instance;
    StepId step = kInvalidStep;
    NodeId node = kInvalidNode;
  };
  enum class Acquired { kGranted, kAlreadyHeld, kQueued };

  Acquired Acquire(const std::string& resource, const Holder& requester);

  /// Frees `resource` if (instance, step) holds it and hands it to the
  /// first waiter `accept` takes, dropping the ones it refuses. Returns
  /// false when (instance, step) did not hold it. `*next` is the new
  /// holder, with node kInvalidNode when the lock stays free.
  bool Release(const std::string& resource, const InstanceId& instance,
               StepId step, Holder* next,
               const std::function<bool(const Holder&)>& accept = {});

  void Clear() { locks_.clear(); }

 private:
  struct Lock {
    bool held = false;
    Holder holder;
    std::deque<Holder> waiters;
  };
  std::map<std::string, Lock> locks_;
};

/// The requester's side for one instance: the locks its steps asked for
/// and, of those, the ones granted.
class MutexClaims {
 public:
  bool Granted(StepId step, const std::string& resource) const {
    auto it = claims_.find({step, resource});
    return it != claims_.end() && it->second;
  }
  /// True when the claim is new, i.e. the caller must send the request.
  bool Request(StepId step, const std::string& resource) {
    return claims_.emplace(std::make_pair(step, resource), false).second;
  }
  void Grant(StepId step, const std::string& resource) {
    claims_[{step, resource}] = true;
  }
  /// Drops the claim; true when it was granted, i.e. the caller must hand
  /// the lock back.
  bool Release(StepId step, const std::string& resource);
  /// Steps holding a lock, ascending: an ending instance releases them.
  std::vector<StepId> GrantedSteps() const;

 private:
  /// (step, resource) -> granted (else pending).
  std::map<std::pair<StepId, std::string>, bool> claims_;
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_COORD_H_
