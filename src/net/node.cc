#include "net/node.h"

#include "common/logging.h"

namespace crew::net {

NetNode::NetNode(const Topology& topology, const Endpoint& self,
                 rt::RuntimeOptions runtime_options,
                 SocketTransportOptions transport_options)
    : runtime_(runtime_options) {
  transport_ = std::make_unique<SocketTransport>(
      topology, self,
      [this](sim::Message message) {
        NodeId to = message.to;
        Status status = runtime_.DeliverRemote(std::move(message));
        if (!status.ok()) {
          CREW_LOG(Warn) << "net: inbound frame for node " << to
                         << " dropped: " << status.ToString();
        }
      },
      transport_options);
  runtime_.SetRemoteRouter(transport_.get());
  // Flow spans and HELLO clock samples use the runtime's serializing
  // tracer and tick clock, so transport records land in the same shard
  // and timebase as the cells' own spans.
  transport_->InstallTelemetry(runtime_.tracer(),
                               [this] { return runtime_.now(); });
}

NetNode::~NetNode() { Shutdown(); }

Status NetNode::Bind() { return transport_->Bind(); }

void NetNode::Start() {
  if (started_) return;
  started_ = true;
  runtime_.Start();
  transport_->Start();
}

bool NetNode::WaitConnected(std::chrono::milliseconds timeout) {
  return transport_->WaitConnected(timeout);
}

bool NetNode::LooksQuiet() const {
  return runtime_.LooksQuiet() && transport_->Idle();
}

int64_t NetNode::AdmittedWork() const { return runtime_.AdmittedWork(); }

void NetNode::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  transport_->Shutdown();
  runtime_.Shutdown();
}

}  // namespace crew::net
