#include "hub/remote/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "common/codec.h"
#include "common/error.h"
#include "hub/remote/protocol.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace chaser::hub::remote {

namespace {


const char* CommandLabel(std::uint64_t cmd) {
  switch (static_cast<Command>(cmd)) {
    case Command::kPublishBatch: return "publish-batch";
    case Command::kTryPoll: return "try-poll";
    case Command::kAbandonPoll: return "abandon-poll";
    case Command::kSetFaultModel: return "set-fault-model";
    case Command::kClear: return "clear";
    case Command::kStats: return "stats";
    case Command::kDrainTransferLog: return "drain-transfer-log";
  }
  return "unknown";
}

/// Per-command dispatch latency. Handles are cached per command value
/// (atomics: several servers' loop threads may race the first lookup, and
/// GetHistogram returns the same histogram for the same name either way) —
/// the registry mutex is only walked on the first frame of each kind.
obs::Histogram& CommandHistogram(std::uint64_t cmd) {
  static std::atomic<obs::Histogram*> cached[8] = {};
  const std::size_t slot = (cmd >= 1 && cmd <= 7) ? cmd : 0;
  obs::Histogram* h = cached[slot].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &obs::Registry::Global().GetHistogram(
        obs::LabeledName("hub_cmd_ns", "cmd", CommandLabel(slot)),
        obs::LatencyBoundsNs());
    cached[slot].store(h, std::memory_order_release);
  }
  return *h;
}

/// Powers-of-four record counts: batch sizing is about order of magnitude.
std::vector<std::uint64_t> BatchBounds() {
  return {1, 4, 16, 64, 256, 1024};
}

void AppendOkFrame(std::string* out, const std::string& body) {
  std::string payload;
  AppendVarint(&payload, static_cast<std::uint64_t>(Status::kOk));
  payload.append(body);
  AppendFrame(out, payload);
}

void AppendErrorFrame(std::string* out, const std::string& message) {
  std::string payload;
  AppendVarint(&payload, static_cast<std::uint64_t>(Status::kError));
  AppendVarint(&payload, message.size());
  payload.append(message);
  AppendFrame(out, payload);
}

}  // namespace

HubServer::HubServer(Options options) : options_(std::move(options)) {}

HubServer::~HubServer() { Stop(); }

void HubServer::Start() {
  if (running()) return;
  listener_ = net::TcpListener::Bind(options_.host, options_.port);
  port_ = listener_.port();
  net::SetNonBlocking(listener_.fd());
  if (::pipe(wake_pipe_) != 0) {
    listener_.Close();
    throw ConfigError("hub server: pipe() failed");
  }
  net::SetNonBlocking(wake_pipe_[0]);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void HubServer::Stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  conns_.clear();
  listener_.Close();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

ServerStats HubServer::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void HubServer::NoteConnError(const std::string& why) {
  static obs::Counter& errors =
      obs::Registry::Global().GetCounter("hub_conn_errors");
  errors.Inc();
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.conn_errors;
  (void)why;  // reason is surfaced through the dropped connection itself
}

void HubServer::NoteHelloError(const std::string& why) {
  static obs::Counter& errors =
      obs::Registry::Global().GetCounter("hub_hello_errors");
  errors.Inc();
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.hello_errors;
  (void)why;
}

void HubServer::FlushWrites(Connection& conn) {
  static obs::Counter& bytes_out =
      obs::Registry::Global().GetCounter("hub_bytes_out_total");
  while (!conn.out.empty()) {
    const ssize_t rc = ::send(conn.sock.fd(), conn.out.data(), conn.out.size(),
                              MSG_NOSIGNAL);
    if (rc > 0) {
      bytes_out.Inc(static_cast<std::uint64_t>(rc));
      conn.out.erase(0, static_cast<std::size_t>(rc));
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (rc < 0 && errno == EINTR) continue;
    conn.sock.Close();  // peer vanished; reaped by the loop
    return;
  }
}

bool HubServer::HandleFrame(Connection& conn, const std::string& payload,
                            std::string* why) {
  if (!conn.hello_done) {
    std::string error;
    if (!DecodeHello(payload, &error)) {
      NoteHelloError(error);
      AppendErrorFrame(&conn.out, error);
      FlushWrites(conn);  // best effort: tell the client why before dropping
      *why = "hello rejected: " + error;
      return false;
    }
    conn.hello_done = true;
    std::string body;
    AppendVarint(&body, kProtocolVersion);
    // Server wall clock at hello time: the client pairs this with its own
    // send/receive timestamps (Cristian's algorithm) to place its trace on
    // the hub's clock. Pre-PR-10 clients ignore the extra varint.
    AppendVarint(&body,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()));
    AppendOkFrame(&conn.out, body);
    conn.session.SetFaultModel(options_.default_fault);
    return true;
  }

  std::size_t pos = 0;
  std::uint64_t cmd = 0;
  if (DecodeVarint(payload.data(), payload.size(), &pos, &cmd) !=
      VarintStatus::kOk) {
    *why = "missing command byte";
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.commands;
  }
  const std::uint64_t t0 = obs::MonotonicNanos();
  const bool ok = DispatchCommand(conn, payload, pos, cmd, why);
  CommandHistogram(cmd).Observe(obs::MonotonicNanos() - t0);
  return ok;
}

bool HubServer::DispatchCommand(Connection& conn, const std::string& payload,
                                std::size_t pos, std::uint64_t cmd,
                                std::string* why) {
  switch (static_cast<Command>(cmd)) {
    case Command::kPublishBatch: {
      std::uint64_t count = 0;
      if (DecodeVarint(payload.data(), payload.size(), &pos, &count) !=
          VarintStatus::kOk) {
        *why = "malformed publish batch";
        return false;
      }
      std::vector<MessageTaintRecord> records;
      records.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        MessageTaintRecord record;
        if (!DecodeRecord(payload, &pos, &record)) {
          *why = "malformed publish record";
          return false;
        }
        records.push_back(std::move(record));
      }
      for (MessageTaintRecord& record : records) {
        conn.session.Publish(std::move(record));
      }
      static obs::Histogram& batch_records =
          obs::Registry::Global().GetHistogram("hub_publish_batch_records",
                                               BatchBounds());
      batch_records.Observe(count);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.records_published += count;
      }
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kTryPoll: {
      MessageId id;
      RecvContext ctx;
      if (!DecodeMessageId(payload, &pos, &id) ||
          !DecodeRecvContext(payload, &pos, &ctx)) {
        *why = "malformed poll";
        return false;
      }
      PollAttempt attempt = conn.session.TryPoll(id, ctx);
      std::string body;
      AppendVarint(&body, static_cast<std::uint64_t>(attempt.status));
      if (attempt.status == PollStatus::kHit) {
        EncodeRecord(&body, *attempt.record);
      }
      AppendOkFrame(&conn.out, body);
      return true;
    }
    case Command::kAbandonPoll: {
      MessageId id;
      if (!DecodeMessageId(payload, &pos, &id)) {
        *why = "malformed abandon";
        return false;
      }
      conn.session.AbandonPoll(id);
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kSetFaultModel: {
      HubFaultModel model;
      if (!DecodeFaultModel(payload, &pos, &model)) {
        *why = "malformed fault model";
        return false;
      }
      conn.session.SetFaultModel(model);
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kClear: {
      conn.session.Clear();
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kStats: {
      std::string body;
      EncodeStats(&body, conn.session.stats());
      AppendOkFrame(&conn.out, body);
      return true;
    }
    case Command::kDrainTransferLog: {
      const std::vector<TransferLogEntry> log = conn.session.DrainTransferLog();
      std::string body;
      AppendVarint(&body, log.size());
      for (const TransferLogEntry& entry : log) EncodeTransferEntry(&body, entry);
      AppendOkFrame(&conn.out, body);
      return true;
    }
  }
  // Unknown commands get a per-command error (forward compatibility) rather
  // than a dropped connection: the framing is intact, only the verb is new.
  AppendErrorFrame(&conn.out, "unknown command " + std::to_string(cmd));
  return true;
}

void HubServer::Loop() {
  static obs::Counter& bytes_in =
      obs::Registry::Global().GetCounter("hub_bytes_in_total");
  static obs::Gauge& conns_open =
      obs::Registry::Global().GetGauge("hub_connections_open");
  static obs::Gauge& out_depth =
      obs::Registry::Global().GetGauge("hub_out_buffer_bytes");
  std::vector<pollfd> fds;
  char buf[64 * 1024];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->sock.fd(), events, 0});
    }
    // Connections accepted below are NOT in fds; only this many were polled.
    const std::size_t polled_conns = conns_.size();
    const int rc = ::poll(fds.data(), fds.size(), 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; shut down rather than spin
    }
    if (fds[1].revents & POLLIN) {
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = listener_.Accept();
        if (cfd < 0) break;
        net::SetNonBlocking(cfd);
        auto conn = std::make_unique<Connection>();
        conn->sock = net::TcpSocket(cfd);
        conns_.push_back(std::move(conn));
        conns_open.Add(1);
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_accepted;
      }
    }
    for (std::size_t i = 0; i < polled_conns; ++i) {
      Connection& conn = *conns_[i];
      const pollfd& pfd = fds[i + 2];
      bool drop = false;
      bool protocol_error = false;
      std::string why;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) drop = true;
      if (!drop && (pfd.revents & POLLIN)) {
        for (;;) {
          const ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
          if (n > 0) {
            bytes_in.Inc(static_cast<std::uint64_t>(n));
            conn.decoder.Feed(buf, static_cast<std::size_t>(n));
            if (static_cast<ssize_t>(sizeof(buf)) != n) break;
            continue;
          }
          if (n == 0) {
            drop = true;  // orderly EOF; a torn trailing frame is just dropped
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          drop = true;
          break;
        }
        std::string payload;
        while (!drop) {
          const net::FrameDecoder::Result r = conn.decoder.Next(&payload);
          if (r == net::FrameDecoder::Result::kNeedMore) break;
          if (r == net::FrameDecoder::Result::kError) {
            drop = true;
            protocol_error = true;
            why = conn.decoder.error();
            break;
          }
          if (!HandleFrame(conn, payload, &why)) {
            drop = true;
            // A rejected hello was already counted by NoteHelloError —
            // hello_done still false here — so only post-hello failures
            // land in conn_errors. The two counters partition the drops.
            protocol_error = conn.hello_done;
            break;
          }
          if (conn.out.size() > options_.max_out_bytes) {
            drop = true;
            protocol_error = true;
            why = "response queue overflow (client not reading)";
            break;
          }
        }
      }
      if (!drop && (pfd.revents & POLLOUT)) FlushWrites(conn);
      if (!drop && !conn.sock.valid()) drop = true;  // flush hit a dead peer
      if (!drop && !conn.out.empty()) FlushWrites(conn);
      if (drop) {
        if (protocol_error) NoteConnError(why);
        {
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_dropped;
        }
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        conns_open.Add(-1);
        --i;
        // fds no longer lines up with conns_, so stop processing this round.
        break;
      }
    }
    // Backpressure visibility: total queued-but-unsent response bytes across
    // this server's connections, published as a delta against the shared
    // gauge (see published_out_bytes_).
    std::int64_t out_total = 0;
    for (const auto& conn : conns_) {
      out_total += static_cast<std::int64_t>(conn->out.size());
    }
    out_depth.Add(out_total - published_out_bytes_);
    published_out_bytes_ = out_total;
  }
  // Shutdown: retire this server's contribution to the shared gauges.
  out_depth.Add(-published_out_bytes_);
  published_out_bytes_ = 0;
  conns_open.Add(-static_cast<std::int64_t>(conns_.size()));
}

}  // namespace chaser::hub::remote
