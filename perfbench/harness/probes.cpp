#include "probes.hpp"

#include <chrono>

#include "net/tcp.hpp"
#include "util/error.hpp"

namespace pb {

iw::Frame TimingChannel::call(iw::MsgType type, iw::Buffer& payload) {
  auto t = static_cast<uint8_t>(type);
  if (counters_ != nullptr) {
    counters_->calls[t & 63].fetch_add(1, std::memory_order_relaxed);
  }
  Tracer& tracer = Tracer::global();
  uint64_t id = tracer.open(span_name_, Side::kClient);
  try {
    iw::Frame response = inner_->call(type, payload);
    tracer.close(id, request_key(session_, response.request_id), t);
    return response;
  } catch (...) {
    tracer.close(id, 0, t);
    throw;
  }
}

void TimingCore::on_connect(iw::SessionId session, iw::Notifier notify) {
  inner_.on_connect(session, std::move(notify));
  {
    std::lock_guard lock(mu_);
    connected_.push_back(session);
  }
  cv_.notify_all();
}

iw::Frame TimingCore::handle(iw::SessionId session, const iw::Frame& request) {
  auto t = static_cast<uint8_t>(request.type);
  Tracer& tracer = Tracer::global();
  uint64_t id = tracer.open(span_name_, Side::kServer);
  try {
    iw::Frame response = inner_.handle(session, request);
    tracer.close(id, request_key(session, request.request_id), t);
    return response;
  } catch (...) {
    tracer.close(id, 0, t);
    throw;
  }
}

std::shared_ptr<iw::ClientChannel> connect_bound(TimingCore& core, uint16_t port,
                                                 RpcCounters* counters,
                                                 const char* span_name) {
  static std::mutex connect_mu;
  std::lock_guard serial(connect_mu);
  size_t before;
  {
    std::lock_guard lock(core.mu_);
    before = core.connected_.size();
  }
  auto tcp = std::make_shared<iw::TcpClientChannel>(port);
  std::unique_lock lock(core.mu_);
  if (!core.cv_.wait_for(lock, std::chrono::seconds(10),
                         [&] { return core.connected_.size() > before; })) {
    throw iw::Error(iw::ErrorCode::kTimedOut,
                    "server never registered the new connection");
  }
  return std::make_shared<TimingChannel>(std::move(tcp), core.connected_[before],
                                         counters, span_name);
}

}  // namespace pb
