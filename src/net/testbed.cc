#include "net/testbed.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "common/logging.h"
#include "model/builder.h"

namespace crew::net {
namespace {

model::CompiledSchemaPtr Compile(Result<model::Schema> schema) {
  if (!schema.ok()) {
    CREW_LOG(Error) << "testbed schema build failed: "
                    << schema.status().ToString();
    std::abort();
  }
  auto compiled = model::CompiledSchema::Compile(std::move(schema).value());
  if (!compiled.ok()) {
    CREW_LOG(Error) << "testbed schema compile failed: "
                    << compiled.status().ToString();
    std::abort();
  }
  return compiled.value();
}

model::CompiledSchemaPtr GoodSchema() {
  model::SchemaBuilder b("Good");
  std::vector<StepId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(b.AddTask("T" + std::to_string(i + 1), "noop"));
  }
  b.Sequence(ids);
  return Compile(b.Build());
}

model::CompiledSchemaPtr FlakySchema() {
  model::SchemaBuilder b("Flaky");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "flaky");
  b.Sequence({s1, s2});
  b.OnFail(s2, s1, /*max_attempts=*/3);
  return Compile(b.Build());
}

model::CompiledSchemaPtr DoomedSchema() {
  model::SchemaBuilder b("Doomed");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "fail_always");
  b.Sequence({s1, s2});
  b.OnFail(s2, s1, /*max_attempts=*/2);
  return Compile(b.Build());
}

/// Sweep workload class k: a Good-shaped 4-step sequence under its own
/// name, so a num_classes run exercises many schemas whose eligibility
/// windows (offset per class) jointly cover every agent.
model::CompiledSchemaPtr ClassSchema(int k) {
  model::SchemaBuilder b("Wf" + std::to_string(k));
  std::vector<StepId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(b.AddTask("T" + std::to_string(i + 1), "noop"));
  }
  b.Sequence(ids);
  return Compile(b.Build());
}

model::CompiledSchemaPtr ParSchema() {
  model::SchemaBuilder b("Par");
  StepId s1 = b.AddTask("split", "noop");
  StepId s2 = b.AddTask("left", "noop");
  StepId s3 = b.AddTask("right", "noop");
  StepId s4 = b.AddTask("join", "noop");
  b.Parallel(s1, {{s2, s2}, {s3, s3}}, s4);
  return Compile(b.Build());
}

void SetEligibleRoundRobin(model::Deployment* deployment,
                           const std::vector<NodeId>& ids,
                           const model::CompiledSchema& schema,
                           int eligible = 2, int offset = 0) {
  for (StepId s = 1; s <= schema.schema().num_steps(); ++s) {
    std::vector<NodeId> agents;
    for (int k = 0; k < eligible; ++k) {
      agents.push_back(ids[(s - 1 + k + offset) % ids.size()]);
    }
    std::sort(agents.begin(), agents.end());
    deployment->SetEligible(schema.schema().name(), s, agents);
  }
}

}  // namespace

std::vector<NodeId> Testbed::AllNodes(const TestbedOptions& options) {
  std::vector<NodeId> out;
  if (options.mode == "dist") {
    out.push_back(kFrontEndNode);
    for (int i = 0; i < options.num_agents; ++i) out.push_back(1 + i);
    return out;
  }
  int engines = options.mode == "parallel" ? options.num_engines : 1;
  for (int i = 0; i < engines; ++i) out.push_back(1 + i);
  for (int i = 0; i < options.num_agents; ++i) {
    out.push_back(engines + 1 + i);
  }
  return out;
}

Result<Topology> Testbed::UnixTopology(const TestbedOptions& options,
                                       const std::string& dir,
                                       int num_endpoints) {
  if (num_endpoints < 1) {
    return Status::InvalidArgument("need at least one endpoint");
  }
  std::vector<Endpoint> endpoints;
  for (int i = 0; i < num_endpoints; ++i) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = dir + "/ep" + std::to_string(i) + ".sock";
    endpoints.push_back(std::move(endpoint));
  }
  Topology topology;
  std::set<NodeId> pinned;
  // Control side at endpoint 0: the dist front end, the central engine,
  // or all parallel engines (they share an in-memory tracker).
  if (options.mode == "dist") {
    CREW_RETURN_IF_ERROR(topology.Add(kFrontEndNode, endpoints[0]));
    pinned.insert(kFrontEndNode);
  } else {
    int engines = options.mode == "parallel" ? options.num_engines : 1;
    for (int i = 0; i < engines; ++i) {
      CREW_RETURN_IF_ERROR(topology.Add(1 + i, endpoints[0]));
      pinned.insert(1 + i);
    }
  }
  int spread = 0;
  for (NodeId id : AllNodes(options)) {
    if (pinned.count(id) != 0) continue;
    const Endpoint& endpoint =
        num_endpoints == 1
            ? endpoints[0]
            : endpoints[1 + (spread++ % (num_endpoints - 1))];
    CREW_RETURN_IF_ERROR(topology.Add(id, endpoint));
  }
  return topology;
}

Testbed::Testbed(sim::Backend* backend, const Topology& topology,
                 const Endpoint& self, TestbedOptions options)
    : options_(std::move(options)) {
  for (NodeId id : topology.NodesAt(self)) local_.insert(id);

  // ---- shared deterministic inputs (identical on every endpoint) ----
  programs_.RegisterBuiltins();
  programs_.RegisterFailFirstN("flaky", 1);
  std::vector<model::CompiledSchemaPtr> all;
  if (options_.num_classes > 0) {
    for (int k = 0; k < options_.num_classes; ++k) {
      all.push_back(ClassSchema(k));
    }
  } else {
    all = {GoodSchema(), FlakySchema(), DoomedSchema()};
    if (options_.mode != "dist") all.push_back(ParSchema());
  }

  runtime::PlacementKind kind = runtime::PlacementKind::kStatic;
  if (!runtime::ParsePlacementKind(options_.placement, &kind)) {
    CREW_LOG(Error) << "testbed: unknown placement '" << options_.placement
                    << "'";
    std::abort();
  }
  // A sticky policy lives on the placer (the dist front end); the other
  // control modes keep their legacy deterministic owner rule, which any
  // endpoint can re-derive without shared state.
  if (kind != runtime::PlacementKind::kStatic &&
      (options_.mode == "dist" ||
       kind != runtime::PlacementKind::kLeastLoaded)) {
    placement_ = runtime::MakePlacementPolicy(kind);
  }

  int engines = options_.mode == "parallel" ? options_.num_engines
                : options_.mode == "central" ? 1
                                             : 0;
  for (int i = 0; i < engines; ++i) engine_ids_.push_back(1 + i);
  NodeId first_agent = options_.mode == "dist" ? 1 : engines + 1;
  for (int i = 0; i < options_.num_agents; ++i) {
    agent_ids_.push_back(first_agent + i);
  }
  int class_offset = 0;
  for (const auto& schema : all) {
    SetEligibleRoundRobin(&deployment_, agent_ids_, *schema, /*eligible=*/2,
                          options_.num_classes > 0 ? class_offset++ : 0);
    schemas_[schema->schema().name()] = schema;
  }

  // ---- local fragment ----
  if (options_.mode == "dist") {
    if (Hosts(kFrontEndNode)) {
      sim::Context* context = backend->ContextFor(kFrontEndNode);
      front_end_ = std::make_unique<dist::FrontEnd>(
          kFrontEndNode, context, &deployment_, &coordination_);
      if (placement_) front_end_->set_placement(placement_.get());
      context->tracer().SetNodeName(kFrontEndNode, "front-end-0");
    }
    dist::AgentOptions agent_options;
    agent_options.pending_timeout = options_.pending_timeout;
    agent_options.agdb_dir = options_.agdb_dir;
    for (NodeId id : agent_ids_) {
      if (!Hosts(id)) continue;
      sim::Context* context = backend->ContextFor(id);
      agents_.push_back(std::make_unique<dist::Agent>(
          id, context, &programs_, &deployment_, &coordination_,
          agent_ids_, agent_options));
      context->tracer().SetNodeName(id, "agent-" + std::to_string(id));
    }
    for (const auto& schema : all) {
      if (front_end_) front_end_->RegisterSchema(schema);
      for (auto& agent : agents_) agent->RegisterSchema(schema);
    }
    return;
  }

  bool any_engine_local = false;
  bool all_engines_local = true;
  for (NodeId id : engine_ids_) {
    if (Hosts(id)) {
      any_engine_local = true;
    } else {
      all_engines_local = false;
    }
  }
  if (any_engine_local && !all_engines_local) {
    // Parallel engines share an in-memory conflict tracker; splitting
    // them across processes is a topology authoring error.
    CREW_LOG(Error) << "testbed: parallel engines must share one endpoint";
    std::abort();
  }
  if (any_engine_local) {
    if (options_.mode == "parallel") {
      tracker_ = std::make_unique<runtime::ConflictTracker>(&coordination_);
    }
    for (NodeId id : engine_ids_) {
      sim::Context* context = backend->ContextFor(id);
      engines_.push_back(std::make_unique<central::WorkflowEngine>(
          id, context, &programs_, &deployment_, &coordination_,
          central::EngineOptions{}));
      if (options_.mode == "parallel") {
        engines_.back()->set_shared_tracker(tracker_.get());
        engines_.back()->set_topology(this);
      }
      context->tracer().SetNodeName(id, "engine-" + std::to_string(id));
    }
  }
  for (NodeId id : agent_ids_) {
    if (!Hosts(id)) continue;
    sim::Context* context = backend->ContextFor(id);
    thin_agents_.push_back(
        std::make_unique<central::ThinAgent>(id, context, &programs_));
    context->tracer().SetNodeName(id, "agent-" + std::to_string(id));
  }
  for (const auto& schema : all) {
    for (auto& engine : engines_) engine->RegisterSchema(schema);
  }
}

Testbed::~Testbed() = default;

std::string Testbed::ScheduleSchema(int i) const {
  if (options_.num_classes > 0) {
    return "Wf" + std::to_string(i % options_.num_classes);
  }
  if (options_.mode == "dist") {
    switch (i % 3) {
      case 0: return "Doomed";
      case 1: return "Good";
      default: return "Flaky";
    }
  }
  switch (i % 4) {
    case 0: return "Doomed";
    case 1: return "Good";
    case 2: return "Flaky";
    default: return "Par";
  }
}

runtime::WorkflowState Testbed::ExpectedState(
    const std::string& schema) const {
  return schema == "Doomed" ? runtime::WorkflowState::kAborted
                            : runtime::WorkflowState::kCommitted;
}

NodeId Testbed::StartNode(const std::string& schema, int64_t number) const {
  if (options_.mode == "dist") return kFrontEndNode;
  if (options_.mode == "parallel") return OwnerEngine({schema, number});
  return 1;
}

Status Testbed::StartInstance(const std::string& schema, int64_t number) {
  if (options_.mode == "dist") {
    if (!front_end_) {
      return Status::FailedPrecondition("front end is not hosted here");
    }
    Result<InstanceId> id = front_end_->StartWorkflow(schema, {});
    CREW_RETURN_IF_ERROR(id.status());
    if (id.value().number != number) {
      return Status::Internal(
          "front end numbered instance " +
          std::to_string(id.value().number) + ", expected " +
          std::to_string(number));
    }
    return Status::OK();
  }
  central::WorkflowEngine* owner = ParallelOwner({schema, number});
  if (owner == nullptr) {
    return Status::FailedPrecondition("owner engine is not hosted here");
  }
  return owner->StartWorkflow(schema, number, {});
}

NodeId Testbed::DistAuthority(const InstanceId& instance) const {
  const model::CompiledSchemaPtr* schema = FindSchema(instance.workflow);
  if (schema == nullptr) return kInvalidNode;
  if (placement_ != nullptr) {
    if (placement_->kind() == runtime::PlacementKind::kLeastLoaded) {
      // The sticky decision lives only on the front end; route authority
      // there and answer from its status ledger.
      return kFrontEndNode;
    }
    NodeId owner = placement_->Owner(
        instance, deployment_.Eligible(instance.workflow,
                                       (*schema)->schema().start_step()));
    if (owner != kInvalidNode) return owner;
  }
  Result<NodeId> agent = deployment_.CoordinationAgent(**schema);
  return agent.ok() ? agent.value() : kInvalidNode;
}

bool Testbed::Authoritative(const InstanceId& instance) const {
  if (options_.mode == "dist") {
    NodeId authority = DistAuthority(instance);
    return authority != kInvalidNode && Hosts(authority);
  }
  if (options_.mode == "parallel") return Hosts(OwnerEngine(instance));
  return Hosts(1);
}

NodeId Testbed::AuthorityNode(const InstanceId& instance) const {
  if (options_.mode == "dist") return DistAuthority(instance);
  if (options_.mode == "parallel") return OwnerEngine(instance);
  return 1;
}

runtime::WorkflowState Testbed::Terminal(const InstanceId& instance) const {
  if (options_.mode == "dist") {
    NodeId authority = DistAuthority(instance);
    if (authority == kInvalidNode) return runtime::WorkflowState::kUnknown;
    if (authority == kFrontEndNode) {
      return front_end_ ? front_end_->KnownStatus(instance)
                        : runtime::WorkflowState::kUnknown;
    }
    for (const auto& agent : agents_) {
      if (agent->id() == authority) {
        return agent->CoordinationStatus(instance);
      }
    }
    return runtime::WorkflowState::kUnknown;
  }
  central::WorkflowEngine* owner = ParallelOwner(instance);
  if (owner == nullptr) return runtime::WorkflowState::kUnknown;
  return owner->QueryStatus(instance);
}

int64_t Testbed::committed_count() const {
  int64_t sum = 0;
  for (const auto& engine : engines_) sum += engine->committed_count();
  for (const auto& agent : agents_) sum += agent->committed_count();
  return sum;
}

int64_t Testbed::aborted_count() const {
  int64_t sum = 0;
  for (const auto& engine : engines_) sum += engine->aborted_count();
  for (const auto& agent : agents_) sum += agent->aborted_count();
  return sum;
}

void Testbed::InstallRecoveryHooks(rt::Runtime* runtime) {
  for (auto& agent : agents_) {
    dist::Agent* raw = agent.get();
    runtime->SetRecoveryHook(raw->id(), [raw]() { raw->RecoverFromLog(); });
  }
}

NodeId Testbed::OwnerEngine(const InstanceId& instance) const {
  if (engine_ids_.empty()) return 1;
  if (placement_ != nullptr) {
    NodeId owner = placement_->Owner(instance, engine_ids_);
    if (owner != kInvalidNode) return owner;
  }
  return engine_ids_[static_cast<size_t>(instance.number) %
                     engine_ids_.size()];
}

NodeId Testbed::LockOwnerEngine(const std::string& resource) const {
  if (engine_ids_.empty()) return 1;
  return engine_ids_[std::hash<std::string>()(resource) %
                     engine_ids_.size()];
}

std::vector<NodeId> Testbed::AllEngines() const { return engine_ids_; }

const model::CompiledSchemaPtr* Testbed::FindSchema(
    const std::string& name) const {
  auto it = schemas_.find(name);
  return it == schemas_.end() ? nullptr : &it->second;
}

central::WorkflowEngine* Testbed::ParallelOwner(
    const InstanceId& instance) const {
  if (engines_.empty()) return nullptr;
  if (options_.mode == "central") return engines_.front().get();
  // Parallel engines are all local (ids 1..E in construction order), so
  // the owner id maps straight to an index.
  return engines_[static_cast<size_t>(OwnerEngine(instance) - 1)].get();
}

}  // namespace crew::net
