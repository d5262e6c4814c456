#include "net/cluster.h"

#include <thread>

namespace crew::net {

Cluster::Cluster(Topology topology, rt::RuntimeOptions runtime_options,
                 SocketTransportOptions transport_options)
    : topology_(std::move(topology)) {
  for (const Endpoint& endpoint : topology_.Endpoints()) {
    nodes_.push_back(std::make_unique<NetNode>(
        topology_, endpoint, runtime_options, transport_options));
  }
}

Cluster::~Cluster() { Shutdown(); }

Status Cluster::Bind() {
  for (auto& node : nodes_) {
    CREW_RETURN_IF_ERROR(node->Bind());
  }
  return Status::OK();
}

void Cluster::Start() {
  for (auto& node : nodes_) node->Start();
}

bool Cluster::WaitConnected(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (auto& node : nodes_) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() < 0) remaining = std::chrono::milliseconds(0);
    if (!node->WaitConnected(remaining)) return false;
  }
  return true;
}

void Cluster::Quiesce() {
  for (;;) {
    bool quiet = true;
    int64_t admitted = 0;
    for (auto& node : nodes_) {
      quiet = quiet && node->LooksQuiet();
      admitted += node->AdmittedWork();
    }
    if (!quiet) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // Second sweep: no admission anywhere in between means no task or
    // frame was in flight past the first sweep.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    bool still_quiet = true;
    int64_t admitted_again = 0;
    for (auto& node : nodes_) {
      still_quiet = still_quiet && node->LooksQuiet();
      admitted_again += node->AdmittedWork();
    }
    if (still_quiet && admitted_again == admitted) return;
  }
}

void Cluster::Shutdown() {
  for (auto& node : nodes_) node->Shutdown();
}

NetNode* Cluster::At(const Endpoint& endpoint) {
  for (auto& node : nodes_) {
    if (node->self() == endpoint) return node.get();
  }
  return nullptr;
}

std::vector<NetNode*> Cluster::nodes() {
  std::vector<NetNode*> out;
  out.reserve(nodes_.size());
  for (auto& node : nodes_) out.push_back(node.get());
  return out;
}

sim::Metrics Cluster::MergedMetrics() const {
  sim::Metrics merged;
  for (const auto& node : nodes_) {
    merged.MergeFrom(node->runtime().MergedMetrics());
  }
  return merged;
}

}  // namespace crew::net
