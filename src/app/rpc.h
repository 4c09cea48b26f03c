// Request/response RPC over TcpConnection — the bottom layer of the
// closed-loop application tier (DESIGN.md §15).
//
// TcpConnection carries synthetic bytes (no payload contents), so framing
// rides out-of-band: for every frame the sender pushes an RpcFrame record
// into the connection's FrameConduit *before* calling send(), and the
// receiver consumes records as the cumulative in-order delivered byte
// count crosses each frame boundary. The push thus happens-before any
// possible pop — on one shard trivially, across shards via the mailbox
// acquire/release edge the frame's own packets travel through — which
// keeps the scheme both deterministic and clean under TSan. The FIFOs are
// mutex-guarded (cold path; same precedent as stats::FctCollector).
//
// Servers model a worker pool with a bounded accept backlog: requests
// beyond `workers` in service queue up to `backlog_limit`, and overflow is
// dropped on the floor — the client's deadline timer is what surfaces the
// loss, exactly like a SYN-dropped or overloaded real service. Responses
// carry the server-side cost breakdown (queue wait, service time,
// downstream fan-out wall time) back to the client, so per-tier latency
// accounting needs no cross-shard state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "host/host.h"
#include "net/packet.h"
#include "sim/fifo.h"
#include "sim/flat_map.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "tcp/tcp_connection.h"

namespace acdc::app {

// Modeled on-wire size of a frame header (request id + length + deadline).
inline constexpr std::int64_t kRpcHeaderBytes = 16;

// Server-side cost components of one request, echoed to the client in the
// response frame. total() <= client-measured latency (the difference is
// network + client-side time) — the invariant slo_property_test checks.
struct TierBreakdown {
  sim::Time queue_ns = 0;       // backlog wait before a worker picked it up
  sim::Time service_ns = 0;     // modeled CPU service time
  sim::Time downstream_ns = 0;  // wall time spent in nested RPCs / fan-out

  sim::Time total() const { return queue_ns + service_ns + downstream_ns; }
};

// One frame of out-of-band metadata. `bytes` is the full on-wire size of
// the frame (header + payload) and is what the sender passes to send().
struct RpcFrame {
  std::uint64_t id = 0;
  std::int64_t bytes = kRpcHeaderBytes;
  sim::Time deadline = sim::kNoTime;  // absolute; requests only
  bool ok = true;                     // responses: served fully vs degraded
  TierBreakdown server_cost;          // responses: server-side components
};

// One direction of framing over one connection. push() on the sender's
// shard, drain() on the receiver's; see the file comment for why the
// mutex-guarded FIFO is race-free *and* deterministic.
class FrameStream {
 public:
  void push(const RpcFrame& frame) {
    std::lock_guard<std::mutex> lock(mutex_);
    frames_.push_back(frame);
  }

  // Completes every frame that fits inside `delivered_total` cumulative
  // in-order bytes; returns them in stream order.
  std::vector<RpcFrame> drain(std::int64_t delivered_total) {
    std::vector<RpcFrame> done;
    std::lock_guard<std::mutex> lock(mutex_);
    while (!frames_.empty() &&
           consumed_ + frames_.front().bytes <= delivered_total) {
      consumed_ += frames_.front().bytes;
      done.push_back(frames_.front());
      frames_.pop_front();
    }
    return done;
  }

 private:
  std::mutex mutex_;
  sim::Fifo<RpcFrame> frames_;
  std::int64_t consumed_ = 0;  // bytes covered by completed frames
};

// Both directions of one logical RPC channel.
struct FrameConduit {
  FrameStream to_server;
  FrameStream to_client;
};

// Hands a conduit from the client (which creates it before its SYN leaves)
// to the server (which attaches to it when the accept fires), keyed by the
// connection 4-tuple. Entries die when both ends detach. Shared across
// shards, hence the mutex; every insert happens-before the server's attach
// via the SYN's own mailbox edge.
class ConduitRegistry {
 public:
  // Attaches to the 4-tuple's conduit, making it if it does not exist yet.
  FrameConduit* create(const tcp::Endpoint& client, const tcp::Endpoint& server);
  void detach(const tcp::Endpoint& client, const tcp::Endpoint& server);
  std::size_t size() const;

 private:
  struct Key {
    net::IpAddr client_ip = 0;
    net::TcpPort client_port = 0;
    net::IpAddr server_ip = 0;
    net::TcpPort server_port = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return sim::tuple_hash(k.client_ip, k.server_ip, k.client_port,
                             k.server_port);
    }
  };
  struct Entry {
    std::unique_ptr<FrameConduit> conduit;
    int attached = 0;
  };

  mutable std::mutex mutex_;
  // Node-based: the key is 96 bits, wider than sim::FlatMap's integer keys.
  std::unordered_map<Key, Entry, KeyHash> map_;
};

// ---- Server ----

struct RpcServerConfig {
  net::TcpPort port = 7000;
  // Per-request service time: fixed base + exponential jitter.
  sim::Time service_time = sim::microseconds(50);
  sim::Time service_jitter_mean = 0;
  // Response size: fixed base + uniform extra in [0, jitter].
  std::int64_t response_bytes = 2000;
  std::int64_t response_jitter_bytes = 0;
  int workers = 8;          // concurrent in-service requests
  int backlog_limit = 256;  // queued beyond workers; overflow is dropped
};

struct RpcServerStats {
  std::int64_t accepted_conns = 0;
  std::int64_t requests = 0;   // fully-arrived request frames
  std::int64_t responses = 0;  // response frames sent
  std::int64_t rejected = 0;   // dropped on backlog overflow
  std::int64_t orphaned = 0;   // finished after the connection died
  std::int64_t busy_peak = 0;  // max simultaneous in-service requests
};

class RpcServer {
 public:
  // A fully-arrived request as seen by application code.
  struct Request {
    std::uint64_t id = 0;
    std::int64_t bytes = 0;
    sim::Time deadline = sim::kNoTime;  // absolute, propagated from client
    sim::Time arrival = 0;              // last byte delivered
  };
  // Application hook, invoked after the modeled service time. Must call
  // respond(ok, downstream_ns) (synchronously or later); only the first
  // call, from any copy, responds. downstream_ns is added to the echoed
  // TierBreakdown. The default handler responds immediately with ok = true.
  using Respond = std::function<void(bool ok, sim::Time downstream_ns)>;
  using Handler = std::function<void(const Request&, Respond)>;

  // Service timers run on `host`'s simulator.
  RpcServer(host::Host* host, ConduitRegistry* registry,
            const tcp::TcpConfig& tcp_config, const RpcServerConfig& config,
            sim::Rng rng);

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  const RpcServerConfig& config() const { return config_; }
  const RpcServerStats& stats() const { return stats_; }
  host::Host* host() { return host_; }
  // Queued + in-service requests (0 at quiescence).
  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(backlog_.size()) + busy();
  }

 private:
  struct Pending {
    Request req;
    std::uint64_t conn_serial = 0;
  };
  // A request a worker is serving, with its measured queue wait and
  // modeled service time.
  struct InService {
    Pending p;
    sim::Time queue_ns = 0;
    sim::Time service_ns = 0;
  };
  struct ConnState {
    tcp::TcpConnection* conn = nullptr;
    FrameConduit* conduit = nullptr;
    bool peer_fin = false;  // the client's FIN arrived
    int outstanding = 0;    // requests not yet responded to
  };

  void on_accept(tcp::TcpConnection* conn);
  void on_request(std::uint64_t serial, const RpcFrame& frame);
  int busy() const {
    return config_.workers - static_cast<int>(idle_workers_.size());
  }
  void start_service(Pending p);
  void end_service(int worker);
  // The Respond of awaiting_ entry `key`: finishes it on the first call.
  void respond(std::uint64_t key, bool ok, sim::Time downstream_ns);
  void finish(const Pending& p, sim::Time queue_ns, sim::Time service_ns,
              bool ok, sim::Time downstream_ns);
  void maybe_close(std::uint64_t serial);
  void teardown(std::uint64_t serial);

  host::Host* host_;
  ConduitRegistry* registry_;
  RpcServerConfig config_;
  sim::Rng rng_;
  Handler handler_;
  RpcServerStats stats_;

  // By serial. A ConnState pointer from find() dies at the next insert or
  // erase, i.e. at on_accept() or teardown(); see rpc.cc for who holds one.
  sim::FlatMap<std::uint64_t, ConnState> conns_;
  std::uint64_t next_serial_ = 1;
  sim::Fifo<Pending> backlog_;
  // One record per worker, and the workers not serving (a stack). A service
  // timer carries its worker's index rather than the request, which keeps
  // its closure inline in the event slot.
  std::vector<InService> serving_;
  std::vector<int> idle_workers_;
  // Served requests whose handler has not responded yet, by a server-local
  // key. A Respond carries only {this, key}, so it stores inline in its
  // std::function, and the first call erases the entry: later calls find
  // nothing.
  sim::FlatMap<std::uint64_t, InService> awaiting_;
  std::uint64_t next_awaiting_ = 1;
};

// ---- Client ----

struct RpcResult {
  std::uint64_t id = 0;
  bool ok = false;         // response arrived in time, served fully
  bool timed_out = false;  // deadline fired first
  sim::Time latency = 0;   // completion (or deadline) - issue
  std::int64_t response_bytes = 0;
  TierBreakdown server_cost;  // echoed from the server (zero on timeout)
};

struct RpcClientStats {
  std::int64_t issued = 0;
  std::int64_t completed = 0;   // responses delivered in time
  std::int64_t timed_out = 0;
  std::int64_t late = 0;        // responses that arrived after their deadline
};

// One persistent connection to one server; call() multiplexes any number
// of logical callers (the user-population tier packs a whole session group
// onto one client). Every call ends exactly once: by its response or by
// its deadline, whichever comes first.
class RpcClient {
 public:
  using Callback = std::function<void(const RpcResult&)>;

  // Deadline timers run on `host`'s simulator.
  RpcClient(host::Host* host, ConduitRegistry* registry,
            net::IpAddr server_ip, net::TcpPort server_port,
            const tcp::TcpConfig& tcp_config);

  // Issues one request. `deadline` is relative to now and must be
  // positive. `done` always fires exactly once. Returns the request id.
  std::uint64_t call(std::int64_t request_bytes, sim::Time deadline,
                     Callback done);

  // No further calls; FINs once the last outstanding call ends and
  // releases the connection when the close completes. Idempotent.
  void close();

  std::int64_t outstanding() const {
    return static_cast<std::int64_t>(pending_.size());
  }
  bool closed() const { return released_; }
  const RpcClientStats& stats() const { return stats_; }
  tcp::TcpConnection* connection() { return conn_; }

 private:
  struct Pending {
    Callback done;
    sim::Time issued = 0;
  };

  void on_response(const RpcFrame& frame);
  void on_deadline(std::uint64_t id);
  // Ends call `id` with `r`: removes it, counts it in `outcome` and fires
  // its callback. False when the call had already ended.
  bool end_call(std::uint64_t id, RpcResult r, std::int64_t& outcome);
  void maybe_fin();

  host::Host* host_;
  ConduitRegistry* registry_;
  tcp::TcpConnection* conn_ = nullptr;
  FrameConduit* conduit_ = nullptr;
  tcp::Endpoint local_;
  tcp::Endpoint remote_;
  RpcClientStats stats_;

  // Calls not yet ended, by id. The server answers each id at most once,
  // so a response whose id is missing here is a straggler of a call that
  // timed out.
  sim::FlatMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  bool close_requested_ = false;
  bool fin_sent_ = false;
  bool released_ = false;
};

}  // namespace acdc::app
