#include "net/match_server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <utility>
#include <vector>

#include "obs/trace.h"

namespace emx {
namespace net {
namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

MatchServer::MatchServer(serve::MatcherEngine* engine,
                         const ServerOptions& options)
    : engine_(engine),
      options_(options),
      accepted_(registry_.GetCounter("net.accepted")),
      requests_(registry_.GetCounter("net.requests")),
      responses_(registry_.GetCounter("net.responses")),
      bad_frames_(registry_.GetCounter("net.bad_frames")),
      read_timeouts_(registry_.GetCounter("net.read_timeouts")),
      send_errors_(registry_.GetCounter("net.send_errors")),
      stats_probes_(registry_.GetCounter("net.stats_probes")),
      hedge_requests_(registry_.GetCounter("net.hedge_requests")),
      open_connections_(registry_.GetGauge("net.open_connections")) {}

MatchServer::~MatchServer() { Stop(); }

Status MatchServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  if (engine_ == nullptr) {
    return Status::InvalidArgument("MatchServer requires an engine");
  }
  auto listener = ListenTcp(options_.port, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread(&MatchServer::PollLoop, this);
  completion_thread_ = std::thread(&MatchServer::CompletionLoop, this);
  return Status::OK();
}

void MatchServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  pending_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  if (completion_thread_.joinable()) completion_thread_.join();
  conns_.clear();
  listener_.Close();
}

std::string MatchServer::MetricsJson() const {
  std::string out = "{\"server\": ";
  out += registry_.ToJson();
  out += ", \"engine\": ";
  out += engine_->MetricsJson();
  out += "}";
  return out;
}

void MatchServer::PollLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->closed.load(std::memory_order_acquire)) {
        it = conns_.erase(it);
        continue;
      }
      pfds.push_back(pollfd{it->first, POLLIN, 0});
      polled.push_back(it->second);
      ++it;
    }
    open_connections_->Set(static_cast<double>(conns_.size()));

    const int n = ::poll(pfds.data(), pfds.size(), options_.poll_interval_ms);
    if (n < 0 && errno != EINTR) break;
    const Clock::time_point now = Clock::now();

    // New connections (the listener is non-blocking: accept until drained).
    if (pfds[0].revents & POLLIN) {
      while (true) {
        Result<Socket> sock = AcceptTcp(listener_.fd());
        if (!sock.ok()) break;
        if (conns_.size() >= options_.max_connections) continue;  // closes it
        accepted_->Add();
        const int fd = sock.value().fd();
        conns_.emplace(fd, std::make_shared<Conn>(std::move(sock).value()));
      }
    }

    // Reads + frame dispatch.
    for (size_t i = 0; i < polled.size(); ++i) {
      const std::shared_ptr<Conn>& conn = polled[i];
      const pollfd& pfd = pfds[i + 1];
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        conn->closed.store(true, std::memory_order_release);
        continue;
      }
      if (pfd.revents & (POLLIN | POLLHUP)) {
        char buf[4096];
        bool peer_closed = false;
        while (true) {
          const ssize_t r = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
          if (r > 0) {
            if (!conn->frames.has_partial()) conn->partial_since = now;
            conn->frames.Append(buf, static_cast<size_t>(r));
            continue;
          }
          if (r == 0) peer_closed = true;
          break;  // EAGAIN / error / orderly close
        }
        if (!DrainFrames(conn, now)) {
          conn->closed.store(true, std::memory_order_release);
          continue;
        }
        if (!conn->frames.has_partial()) {
          conn->partial_since = Clock::time_point::max();
        }
        if (peer_closed) {
          conn->closed.store(true, std::memory_order_release);
          continue;
        }
      }
      // Slow-loris: a frame that has been partially buffered for longer
      // than the read timeout is never going to finish honestly.
      if (conn->partial_since != Clock::time_point::max() &&
          now - conn->partial_since >
              std::chrono::milliseconds(options_.read_timeout_ms)) {
        read_timeouts_->Add();
        conn->closed.store(true, std::memory_order_release);
      }
    }
  }
  // Completion entries keep their own shared_ptr<Conn>; dropping the map
  // here only closes connections with no responses still in flight.
  conns_.clear();
}

bool MatchServer::DrainFrames(const std::shared_ptr<Conn>& conn,
                              Clock::time_point now) {
  while (true) {
    std::string_view payload;
    bool complete = false;
    const Status st = conn->frames.Next(&payload, &complete);
    if (!st.ok()) {
      bad_frames_->Add();
      obs::TraceInstant("net.server.bad_frame");
      return false;
    }
    if (!complete) return true;
    // A frame completed: the slow-loris clock restarts for whatever partial
    // bytes follow it, so pipelined clients are only timed per-frame.
    conn->partial_since = now;
    auto req = DecodeRequest(payload);
    if (!req.ok()) {
      bad_frames_->Add();
      obs::TraceInstant("net.server.bad_frame");
      return false;
    }
    HandleRequest(conn, req.value(), now);
    // More frames may already be buffered (pipelining): keep draining.
  }
}

void MatchServer::HandleRequest(const std::shared_ptr<Conn>& conn,
                                const MatchRequest& req,
                                Clock::time_point now) {
  if (req.is_stats_probe()) {
    stats_probes_->Add();
    MatchResponse resp;
    resp.trace_id = req.trace_id;
    resp.code = StatusCode::kOk;
    resp.stats_json = MetricsJson();
    WriteResponse(conn, resp);
    return;
  }
  requests_->Add();
  if (req.is_hedge()) hedge_requests_->Add();
  EMX_TRACE_SPAN("net.server.request", [&] {
    return obs::KeyValues(
        {{"trace_id", static_cast<int64_t>(req.trace_id)},
         {"deadline_us", static_cast<int64_t>(req.deadline_us)},
         {"hedge", req.is_hedge() ? 1 : 0}});
  });

  Pending p;
  p.conn = conn;
  p.trace_id = req.trace_id;
  p.received = now;
  p.future = engine_->Submit(req.text_a, req.text_b,
                             static_cast<int64_t>(req.deadline_us));
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(p));
  }
  pending_cv_.notify_one();
}

void MatchServer::CompletionLoop() {
  while (true) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(pending_mu_);
      pending_cv_.wait(lock, [&] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      p = std::move(pending_.front());
      pending_.pop_front();
    }

    // The engine resolves every accepted request (deadline expiry, queue
    // rejection and shutdown all set the promise), so this get() is
    // bounded by the engine's own queue and deadline machinery.
    serve::MatchResult result = p.future.get();

    if (options_.artificial_service_us > 0) {
      // Serialized on this thread by design: the shard's service rate
      // becomes 1/artificial_service_us regardless of host core count.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.artificial_service_us));
    }

    MatchResponse resp;
    resp.trace_id = p.trace_id;
    resp.code = result.status.code();
    resp.message = result.status.message();
    resp.probability = result.probability;
    resp.is_match = result.is_match;
    resp.queue_us = result.queue_us;
    resp.infer_us = result.total_us;
    resp.server_us = ElapsedUs(p.received, Clock::now());
    resp.batch_size = static_cast<uint32_t>(result.batch_size);
    WriteResponse(p.conn, resp);
  }
}

void MatchServer::WriteResponse(const std::shared_ptr<Conn>& conn,
                                const MatchResponse& resp) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  std::string frame;
  EncodeResponse(resp, &frame);
  // Counted before the bytes go out: a client that has received the
  // response (or a stats probe it triggered) must see it reflected in the
  // registry. A failed send backs the count out again.
  responses_->Add();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  const Status st = SendAll(conn->sock.fd(), frame.data(), frame.size());
  if (!st.ok()) {
    responses_->Add(-1);
    send_errors_->Add();
    conn->closed.store(true, std::memory_order_release);
    return;
  }
}

}  // namespace net
}  // namespace emx
