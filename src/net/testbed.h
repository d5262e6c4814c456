#ifndef CREW_NET_TESTBED_H_
#define CREW_NET_TESTBED_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "central/agent.h"
#include "central/engine.h"
#include "dist/agent.h"
#include "dist/frontend.h"
#include "model/deployment.h"
#include "net/topology.h"
#include "rt/runtime.h"
#include "runtime/coord.h"
#include "runtime/placement.h"
#include "runtime/programs.h"

namespace crew::net {

struct TestbedOptions {
  /// Control architecture: "central", "parallel" or "dist".
  std::string mode = "dist";
  int num_engines = 2;  ///< parallel only
  int num_agents = 5;
  /// Pending-rule timeout (ticks). The default suppresses §5.2 overdue
  /// probes so equivalence runs count the same messages as sim/rt.
  sim::Time pending_timeout = 5000;
  /// dist: directory for durable per-agent AGDBs (empty = in-memory).
  std::string agdb_dir;
  /// Instance placement policy: "static" (legacy), "rr", "hash" or
  /// "least" (see runtime/placement.h). Every endpoint must agree.
  std::string placement = "static";
  /// 0 = the standard mixed workload (Good/Flaky/Doomed[/Par]).
  /// N > 0 = N all-committing 4-step classes "Wf0".."Wf<N-1>" whose
  /// eligibility windows are offset per class, so a cluster-wide sweep
  /// spreads load over every agent instead of the first few.
  int num_classes = 0;
};

/// Builds the slice of a standard mixed workload deployment that one
/// endpoint hosts. The System wrappers (CentralSystem &c.) assemble every
/// node against one backend; across processes each endpoint must
/// construct only its own engines/agents, while agreeing byte-for-byte
/// on the shared inputs — schemas, eligibility tables, coordination
/// spec — which this class derives deterministically from its options.
///
/// Workload (rt_test's equivalence mix): Good = 4-step sequence,
/// Flaky = fails once then commits via OnFail retry, Doomed =
/// deterministically aborts, Par (central/parallel only) = split-join.
///
/// Node-id layout per mode:
///   central:  engine 1, thin agents 2..1+A
///   parallel: engines 1..E (must all share one endpoint — they share an
///             in-memory conflict tracker), thin agents E+1..E+A
///   dist:     front end 0, full agents 1..A
class Testbed : public central::ParallelTopology {
 public:
  /// Every logical node id of the deployment, for topology authoring.
  static std::vector<NodeId> AllNodes(const TestbedOptions& options);

  /// Canonical multi-process layout over `num_endpoints` Unix sockets in
  /// `dir` ("ep<i>.sock"): the control side (front end / engines) at
  /// endpoint 0, agents round-robin over the rest. Shared by
  /// crew_launch and the process tests so every process derives the
  /// same mapping.
  static Result<Topology> UnixTopology(const TestbedOptions& options,
                                       const std::string& dir,
                                       int num_endpoints);

  /// Constructs the local fragment: only nodes at `self` get objects
  /// (and cells, via backend->ContextFor). With an all-nodes-at-self
  /// topology this degenerates to the single-process assembly.
  Testbed(sim::Backend* backend, const Topology& topology,
          const Endpoint& self, TestbedOptions options);
  ~Testbed() override;

  /// Schema name of the i-th workload instance (1-based).
  std::string ScheduleSchema(int i) const;
  runtime::WorkflowState ExpectedState(const std::string& schema) const;

  /// Node whose worker must run the start call for this instance.
  NodeId StartNode(const std::string& schema, int64_t number) const;
  bool Hosts(NodeId id) const { return local_.count(id) != 0; }

  /// Starts an instance; must run on StartNode's worker (Post there).
  /// For dist, verifies the front end assigned the expected number.
  Status StartInstance(const std::string& schema, int64_t number);

  /// Whether this endpoint holds the instance's authoritative terminal
  /// state (central: the engine; parallel: the owner engine; dist: the
  /// coordination agent).
  bool Authoritative(const InstanceId& instance) const;
  /// Node id holding that authoritative state (kInvalidNode if unknown).
  NodeId AuthorityNode(const InstanceId& instance) const;
  runtime::WorkflowState Terminal(const InstanceId& instance) const;

  /// Sums over local engines/agents only.
  int64_t committed_count() const;
  int64_t aborted_count() const;

  /// dist mode: installs Agent::RecoverFromLog as each local agent's
  /// runtime recovery hook, so SetNodeDown(id, false) replays the WAL
  /// before the parked backlog — the in-process twin of killing and
  /// restarting the agent's crew_node process.
  void InstallRecoveryHooks(rt::Runtime* runtime);

  // ---- central::ParallelTopology (parallel mode) ----
  NodeId OwnerEngine(const InstanceId& instance) const override;
  NodeId LockOwnerEngine(const std::string& resource) const override;
  std::vector<NodeId> AllEngines() const override;

  const std::vector<NodeId>& agent_ids() const { return agent_ids_; }

  /// The placement policy in effect (null when options.placement is
  /// "static"). crew_node's "feed" verb pushes cluster load samples here.
  runtime::PlacementPolicy* placement() { return placement_.get(); }
  /// dist mode only (and only on the endpoint hosting node 0).
  dist::FrontEnd* front_end() { return front_end_.get(); }

 private:
  const model::CompiledSchemaPtr* FindSchema(const std::string& name) const;
  central::WorkflowEngine* ParallelOwner(const InstanceId& instance) const;
  /// dist: node holding the authoritative terminal state under the
  /// active placement policy (see Authoritative()).
  NodeId DistAuthority(const InstanceId& instance) const;

  TestbedOptions options_;
  std::set<NodeId> local_;
  std::vector<NodeId> engine_ids_;  // parallel
  std::vector<NodeId> agent_ids_;

  runtime::ProgramRegistry programs_;
  std::unique_ptr<runtime::PlacementPolicy> placement_;
  model::Deployment deployment_;
  runtime::CoordinationSpec coordination_;
  std::map<std::string, model::CompiledSchemaPtr> schemas_;

  // central / parallel
  std::unique_ptr<runtime::ConflictTracker> tracker_;
  std::vector<std::unique_ptr<central::WorkflowEngine>> engines_;
  std::vector<std::unique_ptr<central::ThinAgent>> thin_agents_;

  // dist
  std::unique_ptr<dist::FrontEnd> front_end_;
  std::vector<std::unique_ptr<dist::Agent>> agents_;
};

}  // namespace crew::net

#endif  // CREW_NET_TESTBED_H_
