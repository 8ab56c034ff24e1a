// Poll-multiplexed wire client — see wire.h.

#include "wire.h"

#include <poll.h>

#include <cstdio>
#include <ctime>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

using slpspan::net::FrameType;

/// One phase in flight: sends requests, reads and decodes reply frames,
/// and fills the phase's results.
struct WireClient::InFlight {
  struct Pending {
    size_t index = 0;
    uint32_t conn = 0;
    uint64_t due_abs_ns = 0;
  };

  WireClient& client;
  const WireNames& names;
  WirePhase& phase;
  const uint64_t start_ns = NowNs();
  std::unordered_map<uint64_t, Pending> pending;  // by request id
  bool failed = false;

  InFlight(WireClient& c, const WireNames& n, WirePhase& p)
      : client(c), names(n), phase(p) {}

  /// Sends phase.requests[index] on `conn`; the latency clock starts at
  /// due_abs_ns.
  void Send(size_t index, uint32_t conn, uint64_t due_abs_ns) {
    const WireRequest& r = phase.requests[index];
    slpspan::net::RequestFrame frame;
    frame.id = client.next_id_++;
    frame.op = r.op;
    frame.priority = r.priority;
    frame.limit = r.limit;
    frame.document = names.document(r.doc);
    frame.pattern = names.pattern(r.pattern);
    std::string wire;
    slpspan::net::AppendRequest(frame, &wire);
    const uint64_t now = NowNs();
    phase.results[index].lag_ms =
        static_cast<double>(now - std::min(now, due_abs_ns)) * 1e-6;
    if (!slpspan::net::SendAll(client.fds_[conn].get(), wire.data(),
                               wire.size())
             .ok()) {
      Fail("send failed");
      return;
    }
    pending.emplace(frame.id, Pending{index, conn, due_abs_ns});
  }

  void Fail(const char* what) {
    if (!failed) std::fprintf(stderr, "perfbench: wire error: %s\n", what);
    failed = true;
    ++phase.wire_errors;
  }

  /// Waits up to `timeout_ns` for replies and handles every complete frame;
  /// `on_done(conn)` runs after each Done frame.
  template <typename OnDone>
  void Poll(uint64_t timeout_ns, OnDone&& on_done) {
    std::vector<pollfd> fds(client.fds_.size());
    for (size_t i = 0; i < fds.size(); ++i) {
      fds[i] = pollfd{client.fds_[i].get(), POLLIN, 0};
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000ull),
                static_cast<long>(timeout_ns % 1000000000ull)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    char buf[65536];
    for (size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool would_block = false;
      slpspan::Result<size_t> n = slpspan::net::RecvSome(
          client.fds_[c].get(), buf, sizeof buf, &would_block);
      if (!n.ok() || (n.value() == 0 && !would_block)) {
        Fail("connection closed");
        continue;
      }
      std::string& rb = client.buffers_[c];
      rb.append(buf, n.value());
      const uint64_t now = NowNs();
      size_t off = 0;
      while (rb.size() - off >= slpspan::net::kFrameHeaderBytes) {
        const slpspan::net::FrameHeader h = slpspan::net::DecodeHeader(
            reinterpret_cast<const uint8_t*>(rb.data() + off));
        if (h.payload_size > slpspan::net::kMaxOutboundPayload) {
          Fail("oversized frame");
          rb.clear();
          off = 0;
          break;
        }
        const size_t total = slpspan::net::kFrameHeaderBytes + h.payload_size;
        if (rb.size() - off < total) break;
        const uint8_t* payload = reinterpret_cast<const uint8_t*>(
            rb.data() + off + slpspan::net::kFrameHeaderBytes);
        HandleFrame(h.type, payload, h.payload_size, now, on_done);
        off += total;
      }
      rb.erase(0, off);
    }
  }

  template <typename OnDone>
  void HandleFrame(uint8_t type, const uint8_t* payload, size_t size,
                   uint64_t now, OnDone&& on_done) {
    switch (static_cast<FrameType>(type)) {
      case FrameType::kHello:
        return;
      case FrameType::kPage: {
        slpspan::Result<slpspan::net::PageFrame> page =
            slpspan::net::DecodePage(payload, size);
        if (!page.ok()) return Fail("undecodable page");
        auto it = pending.find(page.value().id);
        if (it == pending.end()) return Fail("page for unknown id");
        WireResult& r = phase.results[it->second.index];
        if (r.tuples_received == 0) r.first_page = page.value().tuples;
        r.tuples_received += page.value().tuples.size();
        return;
      }
      case FrameType::kDone: {
        slpspan::Result<slpspan::net::DoneFrame> done =
            slpspan::net::DecodeDone(payload, size);
        if (!done.ok()) return Fail("undecodable done frame");
        auto it = pending.find(done.value().id);
        if (it == pending.end()) return Fail("done for unknown id");
        const Pending p = it->second;
        pending.erase(it);
        WireResult& r = phase.results[p.index];
        r.done = true;
        r.code = done.value().code;
        r.nonempty = done.value().nonempty;
        r.count = done.value().count_value;
        r.tuples_streamed = done.value().tuples_streamed;
        r.latency_ms = static_cast<double>(now - p.due_abs_ns) * 1e-6;
        r.done_s = static_cast<double>(now - start_ns) * 1e-9;
        on_done(p.conn);
        return;
      }
      default:
        return Fail("unexpected frame type");
    }
  }

  /// Waits (bounded) until every sent request has its Done frame.
  void Drain() {
    const uint64_t deadline = NowNs() + 60'000'000'000ull;
    while (!pending.empty() && !failed && NowNs() < deadline) {
      Poll(100'000'000ull, [](uint32_t) {});
    }
    if (!pending.empty()) Fail("requests never completed");
  }
};

bool WireClient::Connect(uint16_t port, uint32_t connections) {
  for (uint32_t i = 0; i < connections; ++i) {
    slpspan::Result<slpspan::net::OwnedFd> fd =
        slpspan::net::ConnectTcp("127.0.0.1", port);
    if (!fd.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   fd.status().message().c_str());
      return false;
    }
    fds_.push_back(std::move(fd).value());
    buffers_.emplace_back();
  }
  return true;
}

WirePhase WireClient::RunClosed(const WireNames& names,
                                const std::function<WireRequest()>& next,
                                double seconds) {
  WirePhase phase;
  InFlight d(*this, names, phase);
  const uint64_t start = d.start_ns;
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  auto send_next = [&](uint32_t conn) {
    phase.requests.push_back(next());
    phase.results.emplace_back();
    d.Send(phase.requests.size() - 1, conn, NowNs());
  };
  for (uint32_t c = 0; c < fds_.size(); ++c) send_next(c);
  while (!d.failed && NowNs() < stop) {
    d.Poll(10'000'000ull, [&](uint32_t conn) {
      if (NowNs() < stop) send_next(conn);
    });
  }
  d.Drain();
  phase.seconds = SecondsSince(start);
  return phase;
}

WirePhase WireClient::RunOpen(const WireNames& names,
                              std::vector<WireRequest> schedule) {
  WirePhase phase;
  phase.results.resize(schedule.size());
  phase.requests = std::move(schedule);
  InFlight d(*this, names, phase);
  const uint64_t start = d.start_ns;
  size_t next = 0;
  while (!d.failed && next < phase.requests.size()) {
    const uint64_t now = NowNs();
    while (next < phase.requests.size() &&
           start + phase.requests[next].due_ns <= now) {
      d.Send(next, static_cast<uint32_t>(next % fds_.size()),
             start + phase.requests[next].due_ns);
      ++next;
    }
    if (next == phase.requests.size()) break;
    const uint64_t due = start + phase.requests[next].due_ns;
    const uint64_t wait = due > NowNs() ? due - NowNs() : 0;
    d.Poll(wait, [](uint32_t) {});
  }
  d.Drain();
  phase.seconds = SecondsSince(start);
  return phase;
}

WirePhase WireClient::RunSerial(const WireNames& names,
                                std::vector<WireRequest> requests) {
  WirePhase phase;
  phase.results.resize(requests.size());
  phase.requests = std::move(requests);
  InFlight d(*this, names, phase);
  const uint64_t start = NowNs();
  for (size_t i = 0; i < phase.requests.size() && !d.failed; ++i) {
    d.Send(i, 0, NowNs());
    d.Drain();
  }
  phase.seconds = SecondsSince(start);
  return phase;
}

}  // namespace perfbench
