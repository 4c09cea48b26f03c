#include "app/rpc.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "sim/check.h"

namespace acdc::app {

// ---- ConduitRegistry ----

FrameConduit* ConduitRegistry::create(const tcp::Endpoint& client,
                                      const tcp::Endpoint& server) {
  const Key key{client.ip, client.port, server.ip, server.port};
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = map_[key];
  if (e.conduit == nullptr) e.conduit = std::make_unique<FrameConduit>();
  ++e.attached;
  return e.conduit.get();
}

void ConduitRegistry::detach(const tcp::Endpoint& client,
                             const tcp::Endpoint& server) {
  const Key key{client.ip, client.port, server.ip, server.port};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) return;
  if (--it->second.attached <= 0) map_.erase(it);
}

std::size_t ConduitRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

// ---- RpcServer ----

RpcServer::RpcServer(host::Host* host, ConduitRegistry* registry,
                     const tcp::TcpConfig& tcp_config,
                     const RpcServerConfig& config, sim::Rng rng)
    : host_(host),
      registry_(registry),
      config_(config),
      rng_(rng) {
  ACDC_CHECK(config_.workers > 0,
             "rpc server on port %u: workers must be positive (workers=%d)",
             static_cast<unsigned>(config_.port), config_.workers);
  serving_.resize(static_cast<std::size_t>(config_.workers));
  for (int w = config_.workers; w-- > 0;) idle_workers_.push_back(w);
  host_->listen(config_.port, tcp_config,
                [this](tcp::TcpConnection* conn) { on_accept(conn); });
}

void RpcServer::on_accept(tcp::TcpConnection* conn) {
  ++stats_.accepted_conns;
  const std::uint64_t serial = next_serial_++;
  // The entry normally exists already (the client made it before its SYN
  // left), but a non-RPC peer connecting to an RPC port just gets a fresh,
  // forever-empty conduit.
  FrameConduit* conduit = registry_->create(conn->remote(), conn->local());
  conns_[serial] = ConnState{conn, conduit, /*peer_fin=*/false, 0};
  conn->on_deliver = [this, serial, conn, conduit](std::int64_t) {
    for (const RpcFrame& f : conduit->to_server.drain(conn->delivered_bytes())) {
      on_request(serial, f);
    }
  };
  conn->on_peer_fin = [this, serial] {
    ConnState* cs = conns_.find(serial);
    if (cs == nullptr) return;
    cs->peer_fin = true;
    maybe_close(serial);
  };
  conn->on_closed = [this, serial] { teardown(serial); };
}

void RpcServer::on_request(std::uint64_t serial, const RpcFrame& frame) {
  ++stats_.requests;
  // No use of `cs` outlives a call below. Neither start_service() nor
  // maybe_close() erases today (teardown() runs from on_closed, which only
  // a received packet or an abort fires), but nothing here relies on it.
  ConnState* cs = conns_.find(serial);
  assert(cs != nullptr);
  ++cs->outstanding;
  Pending p;
  p.req = Request{frame.id, frame.bytes, frame.deadline, host_->sim()->now()};
  p.conn_serial = serial;
  if (idle_workers_.empty()) {
    if (static_cast<int>(backlog_.size()) >= config_.backlog_limit) {
      // Overload drop: no response is ever sent; the client's deadline
      // timer surfaces the loss.
      ++stats_.rejected;
      --cs->outstanding;
      maybe_close(serial);
      return;
    }
    backlog_.push_back(std::move(p));
    return;
  }
  start_service(std::move(p));
}

void RpcServer::start_service(Pending p) {
  const int worker = idle_workers_.back();
  idle_workers_.pop_back();
  stats_.busy_peak = std::max<std::int64_t>(stats_.busy_peak, busy());
  const sim::Time queue_ns = host_->sim()->now() - p.req.arrival;
  sim::Time service_ns = config_.service_time;
  if (config_.service_jitter_mean > 0) {
    service_ns += rng_.exponential_gap(config_.service_jitter_mean);
  }
  serving_[static_cast<std::size_t>(worker)] =
      InService{std::move(p), queue_ns, service_ns};
  const auto on_done = [this, worker] { end_service(worker); };
  static_assert(sim::EventAction::stores_inline<decltype(on_done)>());
  host_->sim()->schedule(service_ns, on_done);
}

void RpcServer::end_service(int worker) {
  // Copied out: the worker may take the next request below, and a
  // respond() from the handler erases the awaiting entry.
  const InService& served = serving_[static_cast<std::size_t>(worker)];
  const Request req = served.p.req;
  const std::uint64_t key = next_awaiting_++;
  awaiting_[key] = served;
  // Async server model: the worker slot covers the modeled CPU time;
  // downstream I/O (fan-out, nested RPCs) does not hold it.
  idle_workers_.push_back(worker);
  if (!backlog_.empty()) {
    Pending next = std::move(backlog_.front());
    backlog_.pop_front();
    start_service(std::move(next));
  }
  if (handler_) {
    const auto on_respond = [this, key](bool ok, sim::Time downstream_ns) {
      respond(key, ok, downstream_ns);
    };
    // What libstdc++'s std::function stores without allocating.
    static_assert(sizeof(on_respond) <= 16 &&
                  std::is_trivially_copyable_v<decltype(on_respond)>);
    handler_(req, on_respond);
  } else {
    respond(key, true, 0);
  }
}

void RpcServer::respond(std::uint64_t key, bool ok, sim::Time downstream_ns) {
  const InService* found = awaiting_.find(key);
  if (found == nullptr) return;  // already responded
  const InService done = *found;
  awaiting_.erase(key);
  finish(done.p, done.queue_ns, done.service_ns, ok, downstream_ns);
}

void RpcServer::finish(const Pending& p, sim::Time queue_ns,
                       sim::Time service_ns, bool ok,
                       sim::Time downstream_ns) {
  // As in on_request(), no use of `cs` outlives a call that might reach
  // teardown(): send() reads it last, and maybe_close() finds its own.
  ConnState* found = conns_.find(p.conn_serial);
  if (found == nullptr) {
    ++stats_.orphaned;  // connection died while the request was in service
    return;
  }
  ConnState& cs = *found;
  --cs.outstanding;
  using State = tcp::TcpConnection::State;
  const State st = cs.conn->state();
  if (st == State::kClosed || st == State::kDone || st == State::kFinWait ||
      st == State::kLastAck) {
    ++stats_.orphaned;
  } else {
    RpcFrame r;
    r.id = p.req.id;
    std::int64_t bytes = config_.response_bytes;
    if (config_.response_jitter_bytes > 0) {
      bytes += rng_.uniform_int(0, config_.response_jitter_bytes);
    }
    r.bytes = kRpcHeaderBytes + bytes;
    r.ok = ok;
    r.server_cost = TierBreakdown{queue_ns, service_ns, downstream_ns};
    cs.conduit->to_client.push(r);
    cs.conn->send(r.bytes);
    ++stats_.responses;
  }
  maybe_close(p.conn_serial);
}

void RpcServer::maybe_close(std::uint64_t serial) {
  const ConnState* cs = conns_.find(serial);
  if (cs == nullptr) return;
  // Half-close etiquette: answer the client's FIN once every outstanding
  // request for this connection has been responded to (or dropped). The
  // close is the last use of `cs`.
  if (cs->peer_fin && cs->outstanding == 0) cs->conn->close();
}

void RpcServer::teardown(std::uint64_t serial) {
  const ConnState* cs = conns_.find(serial);
  if (cs == nullptr) return;
  // Copied out before the erase, which moves slots under `cs`.
  tcp::TcpConnection* conn = cs->conn;
  registry_->detach(conn->remote(), conn->local());
  conns_.erase(serial);
  host_->release_connection(conn);
}

// ---- RpcClient ----

RpcClient::RpcClient(host::Host* host, ConduitRegistry* registry,
                     net::IpAddr server_ip, net::TcpPort server_port,
                     const tcp::TcpConfig& tcp_config)
    : host_(host), registry_(registry) {
  conn_ = host_->connect(server_ip, server_port, tcp_config);
  local_ = conn_->local();
  remote_ = conn_->remote();
  // Registered before the SYN can reach the server: the SYN leaves this
  // shard on a scheduled NIC event, strictly after this constructor runs.
  conduit_ = registry_->create(local_, remote_);
  conn_->on_deliver = [this](std::int64_t) {
    for (const RpcFrame& f : conduit_->to_client.drain(conn_->delivered_bytes())) {
      on_response(f);
    }
  };
  conn_->on_closed = [this] {
    if (released_) return;
    released_ = true;
    registry_->detach(local_, remote_);
    host_->release_connection(conn_);
  };
}

std::uint64_t RpcClient::call(std::int64_t request_bytes, sim::Time deadline,
                              Callback done) {
  ACDC_CHECK(!close_requested_, "rpc client %s: call() after close()",
             net::ip_to_string(local_.ip).c_str());
  ACDC_CHECK(request_bytes >= 0,
             "rpc client %s: request_bytes must not be negative (%lld)",
             net::ip_to_string(local_.ip).c_str(),
             static_cast<long long>(request_bytes));
  ACDC_CHECK(deadline > 0, "rpc client %s: deadline must be positive (%lld)",
             net::ip_to_string(local_.ip).c_str(),
             static_cast<long long>(deadline));
  const std::uint64_t id = next_id_++;
  ++stats_.issued;
  RpcFrame f;
  f.id = id;
  f.bytes = kRpcHeaderBytes + request_bytes;
  const sim::Time now = host_->sim()->now();
  f.deadline = now + deadline;
  pending_[id] = Pending{std::move(done), now};
  conduit_->to_server.push(f);
  conn_->send(f.bytes);
  host_->sim()->schedule_at(f.deadline, [this, id] { on_deadline(id); });
  return id;
}

void RpcClient::on_response(const RpcFrame& frame) {
  RpcResult r;
  r.ok = frame.ok;
  r.response_bytes = frame.bytes - kRpcHeaderBytes;
  r.server_cost = frame.server_cost;
  // A straggler: its deadline fired first and the result went out as a miss.
  if (!end_call(frame.id, r, stats_.completed)) ++stats_.late;
}

void RpcClient::on_deadline(std::uint64_t id) {
  RpcResult r;
  r.timed_out = true;
  end_call(id, r, stats_.timed_out);  // false: answered in time
}

bool RpcClient::end_call(std::uint64_t id, RpcResult r,
                         std::int64_t& outcome) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return false;
  Pending p = std::move(*found);
  pending_.erase(id);
  ++outcome;
  r.id = id;
  r.latency = host_->sim()->now() - p.issued;
  if (p.done) p.done(r);
  maybe_fin();
  return true;
}

void RpcClient::close() {
  close_requested_ = true;
  maybe_fin();
}

void RpcClient::maybe_fin() {
  if (!close_requested_ || fin_sent_ || pending_.size() != 0) return;
  fin_sent_ = true;
  conn_->close();
}

}  // namespace acdc::app
