// End-to-end tests for the framed-TCP server (include/slpspan/server.h):
// wire round-trips checked against the direct Engine, per-request error
// frames that keep the connection usable, protocol-violation handling
// (malformed and oversized frames close cleanly), connection-level
// backpressure (a stalled reader pauses the stream and bounds server
// memory; resuming delivers every tuple), disconnect-mid-stream ticket
// cancellation, graceful drain with in-flight work, straggler cancellation
// under a tiny drain budget, the max_connections gate, duplicate-id
// rejection, and a concurrent connect/query/close stress the TSan CI job
// runs.

#include "slpspan/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sys/socket.h>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "slp/factory.h"
#include "slp/serialize.h"
#include "slpspan/slpspan.h"
#include "test_util.h"

namespace slpspan {
namespace {

using namespace std::chrono_literals;
using net::CallOptions;
using net::CallResult;
using net::Client;
using net::WireOp;

/// Writes the test corpus into a fresh subdirectory of the gtest temp dir:
///   corpus.slp   — "ab" * 3000 (3000 matches of .*x{ab}.*)
///   blocker.slp  — 'a' * 2^18; unlimited .*x{aa*}.* enumerates ~d^2/2
///                  tuples, so a request on it never finishes on its own.
std::string MakeDocumentRoot(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/slpspan_server_" + name;
  std::filesystem::create_directories(dir);
  std::string corpus;
  for (int i = 0; i < 3000; ++i) corpus += "ab";
  SLPSPAN_CHECK(
      SaveSlpToFile(SlpFromString(corpus).value(), dir + "/corpus.slp").ok());
  SLPSPAN_CHECK(SaveSlpToFile(SlpFromString(std::string(1 << 18, 'a')).value(),
                              dir + "/blocker.slp")
                    .ok());
  return dir;
}

ServerOptions TestOptions(const std::string& root) {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.threads = 2;
  opts.document_root = root;
  opts.alphabet = "ab";
  return opts;
}

Client MustConnect(const Server& server) {
  Result<Client> c = Client::Connect("127.0.0.1", server.port());
  SLPSPAN_CHECK(c.ok());
  return std::move(c).value();
}

/// Spins until `pred` holds or ~5s elapse.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

// ------------------------------------------------------------ round trip ----

TEST(ServerTest, WireResultsMatchDirectEngine) {
  const std::string root = MakeDocumentRoot("roundtrip");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // Direct (in-process) evaluation of the same document and pattern.
  Result<DocumentPtr> doc = Document::FromSlpFile(root + "/corpus.slp");
  ASSERT_TRUE(doc.ok());
  Result<Query> query = Query::Compile(".*x{ab}.*", "ab");
  ASSERT_TRUE(query.ok());
  Engine engine(*query, *doc);
  Result<CountInfo> direct_count = engine.Count();
  ASSERT_TRUE(direct_count.ok());

  Result<CallResult> count =
      client.Call(WireOp::kCount, "corpus", ".*x{ab}.*");
  ASSERT_TRUE(count.ok()) << count.status().message();
  ASSERT_TRUE(count->ok()) << count->message;
  EXPECT_EQ(direct_count->value, count->count_value);
  EXPECT_EQ(direct_count->exact, count->count_exact);
  EXPECT_EQ(3000u, count->count_value);

  Result<CallResult> check =
      client.Call(WireOp::kCheck, "corpus", ".*x{ab}.*");
  ASSERT_TRUE(check.ok());
  ASSERT_TRUE(check->ok());
  EXPECT_TRUE(check->nonempty);

  Result<CallResult> extract = client.Call(WireOp::kExtract, "corpus",
                                           ".*x{ab}.*", {.limit = 4000});
  ASSERT_TRUE(extract.ok());
  ASSERT_TRUE(extract->ok());
  EXPECT_EQ(3000u, extract->tuples_streamed);
  testing_util::ExpectSameTupleSet(engine.ExtractAll(), extract->tuples);
  EXPECT_GT(extract->pages, 1u);  // 3000 tuples at 256/page really paged

  Server::Stats stats = server.stats();
  EXPECT_EQ(3u, stats.requests);
  EXPECT_EQ(extract->pages, stats.pages_sent);
  EXPECT_EQ(3000u, stats.tuples_sent);
  EXPECT_EQ(0u, stats.bad_frames);
  server.Stop();
}

// --------------------------------------------------- per-request failures ----

TEST(ServerTest, RequestErrorsKeepConnectionUsable) {
  const std::string root = MakeDocumentRoot("reqerr");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // Unknown document: error kDone, connection survives.
  Result<CallResult> missing =
      client.Call(WireOp::kCount, "nosuchdoc", ".*x{ab}.*");
  ASSERT_TRUE(missing.ok()) << missing.status().message();
  EXPECT_FALSE(missing->ok());

  // Path-escaping document ref: rejected before touching the filesystem.
  Result<CallResult> escape =
      client.Call(WireOp::kCount, "../corpus", ".*x{ab}.*");
  ASSERT_TRUE(escape.ok());
  EXPECT_FALSE(escape->ok());
  EXPECT_EQ(static_cast<uint8_t>(StatusCode::kInvalidArgument), escape->code);

  // Unparseable pattern: compile error travels back as the done status.
  Result<CallResult> badpat = client.Call(WireOp::kCount, "corpus", "x{(");
  ASSERT_TRUE(badpat.ok());
  EXPECT_FALSE(badpat->ok());

  // A pattern whose determinization blows past the 16-bit state cap: the
  // compile used to abort the whole server; now it is a kNotSupported done.
  std::string blowup = "x{(a|b)*a";
  for (int g = 0; g < 20; ++g) blowup += "(a|b)";
  blowup += "}";
  Result<CallResult> toobig = client.Call(WireOp::kCount, "corpus", blowup);
  ASSERT_TRUE(toobig.ok()) << toobig.status().message();
  EXPECT_FALSE(toobig->ok());
  EXPECT_EQ(static_cast<uint8_t>(StatusCode::kNotSupported), toobig->code);

  // The same connection still serves good requests afterwards.
  Result<CallResult> good = client.Call(WireOp::kCount, "corpus", ".*x{ab}.*");
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good->ok());
  EXPECT_EQ(3000u, good->count_value);
  server.Stop();
}

// ---------------------------------------------------- protocol violations ----

/// Reads frames off a raw blocking socket until the peer closes, returning
/// the frame types seen (used after provoking a protocol error).
std::vector<uint8_t> ReadFrameTypesUntilEof(int fd) {
  std::string buf;
  char tmp[4096];
  for (;;) {
    bool would_block = false;
    Result<size_t> n = net::RecvSome(fd, tmp, sizeof(tmp), &would_block);
    if (!n.ok() || (!would_block && n.value() == 0)) break;
    buf.append(tmp, n.value());
  }
  std::vector<uint8_t> types;
  size_t off = 0;
  while (buf.size() - off >= net::kFrameHeaderBytes) {
    net::FrameHeader h = net::DecodeHeader(
        reinterpret_cast<const uint8_t*>(buf.data() + off));
    if (buf.size() - off < net::kFrameHeaderBytes + h.payload_size) break;
    types.push_back(h.type);
    off += net::kFrameHeaderBytes + h.payload_size;
  }
  return types;
}

TEST(ServerTest, OversizedFrameGetsErrorFrameAndClose) {
  const std::string root = MakeDocumentRoot("oversize");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Result<net::OwnedFd> fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  // Header declaring a payload over the inbound cap; no payload follows.
  std::string bad(net::kFrameHeaderBytes, '\0');
  const uint32_t huge = net::kMaxInboundPayload + 1;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  bad[4] = static_cast<char>(net::FrameType::kRequest);
  ASSERT_TRUE(net::SendAll(fd->get(), bad.data(), bad.size()).ok());

  std::vector<uint8_t> types = ReadFrameTypesUntilEof(fd->get());
  ASSERT_FALSE(types.empty());
  EXPECT_EQ(static_cast<uint8_t>(net::FrameType::kHello), types.front());
  EXPECT_EQ(static_cast<uint8_t>(net::FrameType::kError), types.back());
  EXPECT_TRUE(Eventually([&] { return server.stats().bad_frames >= 1; }));
  EXPECT_TRUE(Eventually([&] { return server.stats().active_connections == 0; }));
  server.Stop();
}

TEST(ServerTest, MalformedPayloadGetsErrorFrameAndClose) {
  const std::string root = MakeDocumentRoot("malformed");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Result<net::OwnedFd> fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  // Well-formed header, garbage request payload (truncated mid-field).
  std::string bad(net::kFrameHeaderBytes + 3, '\xff');
  const uint32_t size = 3;
  std::memcpy(bad.data(), &size, sizeof(size));
  bad[4] = static_cast<char>(net::FrameType::kRequest);
  ASSERT_TRUE(net::SendAll(fd->get(), bad.data(), bad.size()).ok());

  std::vector<uint8_t> types = ReadFrameTypesUntilEof(fd->get());
  ASSERT_FALSE(types.empty());
  EXPECT_EQ(static_cast<uint8_t>(net::FrameType::kError), types.back());
  EXPECT_TRUE(Eventually([&] { return server.stats().bad_frames >= 1; }));
  server.Stop();
}

TEST(ServerTest, DuplicateInFlightRequestIdRejected) {
  const std::string root = MakeDocumentRoot("dupid");
  ServerOptions opts = TestOptions(root);
  opts.threads = 1;
  opts.drain_timeout = 100ms;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  Result<net::OwnedFd> fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  // Two requests with the same id while the first is still in flight (the
  // blocker never finishes by itself). The duplicate must be answered with
  // an error kDone without disturbing the original.
  net::RequestFrame req;
  req.id = 42;
  req.op = WireOp::kExtract;
  req.document = "blocker";
  req.pattern = ".*x{aa*}.*";
  std::string wire;
  net::AppendRequest(req, &wire);
  net::AppendRequest(req, &wire);
  net::AppendCancel(42, &wire);
  ASSERT_TRUE(net::SendAll(fd->get(), wire.data(), wire.size()).ok());

  // Provoke a close so the frame reader terminates.
  std::string bad(net::kFrameHeaderBytes, '\0');
  const uint32_t huge = net::kMaxInboundPayload + 1;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  bad[4] = static_cast<char>(net::FrameType::kRequest);
  ASSERT_TRUE(net::SendAll(fd->get(), bad.data(), bad.size()).ok());

  std::vector<uint8_t> types = ReadFrameTypesUntilEof(fd->get());
  const size_t dones = static_cast<size_t>(
      std::count(types.begin(), types.end(),
                 static_cast<uint8_t>(net::FrameType::kDone)));
  EXPECT_GE(dones, 2u);  // duplicate rejection + cancelled original
  server.Stop();
}

// ----------------------------------------------------------- backpressure ----

TEST(ServerTest, StalledReaderBoundsMemoryThenResumesToCompletion) {
  const std::string root = MakeDocumentRoot("stall");
  ServerOptions opts = TestOptions(root);
  opts.write_buffer_bytes = 16 << 10;  // small budget so the stall bites
  opts.page_tuples = 64;
  // Pin the server's kernel send buffer: with SO_SNDBUF left to autotune,
  // tcp_wmem can absorb the whole multi-MB stream and the user-space
  // write queue never fills.
  opts.socket_sndbuf_bytes = 16 << 10;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // Shrink the client's receive window so the kernel cannot absorb the
  // stream on the test's behalf — the stall must reach the server.
  int small = 4096;
  ASSERT_EQ(0, setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &small,
                          sizeof(small)));

  // A bounded 400k-tuple stream (a few MB on the wire): far beyond the
  // 16 KiB write budget, but finite so the resumed stream completes.
  std::atomic<uint64_t> counted{0};
  CallOptions call;
  call.limit = 400000;
  call.on_page = [&](const std::vector<SpanTuple>& page) {
    counted += page.size();
  };
  Result<uint64_t> id =
      client.Send(WireOp::kExtract, "blocker", ".*x{aa*}.*", call);
  ASSERT_TRUE(id.ok());

  // Stall: do not read. The worker must hit the write budget and pause.
  ASSERT_TRUE(Eventually([&] {
    return server.stats().backpressure_pauses >= 1;
  })) << "worker never paused on the full write queue";

  // While paused, server-side buffering stays bounded by the budget (plus
  // one in-flight page frame of slack).
  Server::Stats paused = server.stats();
  EXPECT_LE(paused.max_write_queue_bytes,
            opts.write_buffer_bytes + (size_t{8} << 10));

  // Resume reading (with the window restored so the drain is not throttled
  // by zero-window probe timers): every tuple arrives and the request
  // completes cleanly.
  int big = 1 << 20;
  ASSERT_EQ(0, setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &big,
                          sizeof(big)));
  Result<CallResult> result = client.Receive(id.value());
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(result->ok()) << result->message;
  EXPECT_EQ(400000u, result->tuples_streamed);
  EXPECT_EQ(400000u, counted.load());
  server.Stop();
}

TEST(ServerTest, DisconnectMidStreamCancelsTicket) {
  const std::string root = MakeDocumentRoot("disconnect");
  ServerOptions opts = TestOptions(root);
  opts.write_buffer_bytes = 16 << 10;
  opts.page_tuples = 64;
  opts.socket_sndbuf_bytes = 16 << 10;  // pause quickly, not after ~4 MB
  opts.drain_timeout = 500ms;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  Result<uint64_t> id =
      client.Send(WireOp::kExtract, "blocker", ".*x{aa*}.*");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Eventually([&] {
    return server.stats().backpressure_pauses >= 1;
  }));

  // Abrupt client death while the worker is paused in the page sink: the
  // server must cancel the ticket and release the connection.
  client.Abort();
  EXPECT_TRUE(Eventually([&] {
    return server.stats().cancelled_on_disconnect >= 1;
  })) << "ticket was not cancelled after peer loss";
  EXPECT_TRUE(Eventually([&] {
    return server.stats().active_connections == 0;
  }));
  // The cancelled evaluation actually stops (worker frees up): the session
  // eventually reports nothing running.
  EXPECT_TRUE(Eventually([&] {
    Server::Stats s = server.stats();
    uint64_t running = 0;
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      running += s.session.by_class[c].running;
    }
    return running == 0;
  }));
  server.Stop();
}

// ------------------------------------------------------------------ drain ----

TEST(ServerTest, GracefulDrainFinishesInFlightWork) {
  const std::string root = MakeDocumentRoot("drain");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // A bounded but non-trivial stream (200k tuples) that is mid-flight when
  // Drain is called; the reader keeps consuming in a second thread.
  std::atomic<uint64_t> streamed{0};
  Result<uint64_t> id = client.Send(WireOp::kExtract, "blocker", ".*x{aa*}.*",
                                    {.limit = 200000});
  ASSERT_TRUE(id.ok());
  std::thread reader([&] {
    Result<CallResult> r = client.Receive(id.value());
    if (r.ok() && r->ok()) streamed.store(r->tuples_streamed);
  });
  ASSERT_TRUE(Eventually([&] { return server.stats().pages_sent >= 1; }));

  EXPECT_TRUE(server.Drain()) << "in-flight request did not finish in time";
  reader.join();
  EXPECT_EQ(200000u, streamed.load());

  // Post-drain: new connections are refused (listener is closed).
  Result<Client> late = Client::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
  // Requests on surviving connections are rejected with a drain error.
  Result<CallResult> rejected =
      client.Call(WireOp::kCount, "corpus", ".*x{ab}.*");
  if (rejected.ok()) {
    EXPECT_FALSE(rejected->ok());
    EXPECT_EQ(static_cast<uint8_t>(StatusCode::kCancelled), rejected->code);
  }
  server.Stop();
}

TEST(ServerTest, DrainCancelsStragglersAfterTimeout) {
  const std::string root = MakeDocumentRoot("straggler");
  ServerOptions opts = TestOptions(root);
  opts.write_buffer_bytes = 16 << 10;
  opts.drain_timeout = 100ms;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // Unbounded blocker with a stalled reader: can never finish, so Drain
  // must time out and cancel it.
  Result<uint64_t> id =
      client.Send(WireOp::kExtract, "blocker", ".*x{aa*}.*");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Eventually([&] {
    return server.stats().backpressure_pauses >= 1;
  }));

  EXPECT_FALSE(server.Drain()) << "drain reported clean with a straggler";
  server.Stop();
  // The straggler's connection was force-closed; the client observes EOF.
  Result<CallResult> r = client.Receive(id.value());
  EXPECT_FALSE(r.ok() && r->ok());
}

// ------------------------------------------------------- connection gates ----

TEST(ServerTest, MaxConnectionsRejectsExtraClients) {
  const std::string root = MakeDocumentRoot("maxconn");
  ServerOptions opts = TestOptions(root);
  opts.max_connections = 2;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());

  Result<Client> c1 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  Result<Client> c2 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c2.ok());
  Result<Client> c3 = Client::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(c3.ok()) << "third client connected past max_connections=2";
  EXPECT_TRUE(Eventually([&] { return server.stats().rejected_full >= 1; }));

  // The admitted connections still work.
  Result<CallResult> r = c1->Call(WireOp::kCount, "corpus", ".*x{ab}.*");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
  server.Stop();
}

TEST(ServerTest, CancelFrameStopsAnInFlightRequest) {
  const std::string root = MakeDocumentRoot("cancel");
  ServerOptions opts = TestOptions(root);
  opts.write_buffer_bytes = 16 << 10;
  opts.drain_timeout = 500ms;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  Result<uint64_t> id =
      client.Send(WireOp::kExtract, "blocker", ".*x{aa*}.*");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Eventually([&] { return server.stats().pages_sent >= 1; }));
  ASSERT_TRUE(client.Cancel(id.value()).ok());
  Result<CallResult> r = client.Receive(id.value());
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(static_cast<uint8_t>(StatusCode::kCancelled), r->code);
  server.Stop();
}

TEST(ServerTest, StatsOverTheWire) {
  const std::string root = MakeDocumentRoot("wirestats");
  Server server(TestOptions(root));
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);
  for (int i = 0; i < 5; ++i) {
    Result<CallResult> r = client.Call(WireOp::kCount, "corpus", ".*x{ab}.*",
                                       {.priority = 0});
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->ok());
  }
  Result<net::StatsFrame> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(5u, stats->requests);
  EXPECT_EQ(1u, stats->active_connections);
  EXPECT_EQ(5u, stats->by_class[0].submitted);
  EXPECT_EQ(5u, stats->by_class[0].completed);
  EXPECT_LE(stats->by_class[0].queue_p50_us, stats->by_class[0].queue_p99_us);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  server.Stop();
}

// ----------------------------------------------------------------- stress ----

// Concurrent connect/query/disconnect churn: 6 client threads x 12
// operations with mixed ops, priorities, limits and a sprinkling of abrupt
// aborts. The assertion is structural (every completed call is coherent,
// the server survives and drains) — the TSan CI job turns this into a data
// race detector for the whole net layer.
TEST(ServerTest, ConcurrentConnectQueryCloseStress) {
  const std::string root = MakeDocumentRoot("stress");
  ServerOptions opts = TestOptions(root);
  opts.threads = 2;
  opts.write_buffer_bytes = 64 << 10;
  opts.drain_timeout = 2000ms;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 12;
  std::atomic<uint64_t> completed{0}, wire_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Result<Client> c = Client::Connect("127.0.0.1", server.port());
        if (!c.ok()) {
          ++wire_failures;
          continue;
        }
        const int kind = (t + i) % 4;
        if (kind == 3) {
          // Abrupt abort mid-request: server must clean up, not wedge.
          Result<uint64_t> id = c->Send(WireOp::kExtract, "blocker",
                                        ".*x{aa*}.*", {.limit = 100000});
          if (id.ok()) c->Abort();
          continue;
        }
        const WireOp op = kind == 0   ? WireOp::kCheck
                          : kind == 1 ? WireOp::kCount
                                      : WireOp::kExtract;
        CallOptions call;
        call.priority = static_cast<uint8_t>(i % kNumPriorityClasses);
        if (op == WireOp::kExtract) call.limit = 500;
        Result<CallResult> r = c->Call(op, "corpus", ".*x{ab}.*", call);
        if (!r.ok()) {
          ++wire_failures;
          continue;
        }
        ASSERT_TRUE(r->ok()) << r->message;
        if (op == WireOp::kCount) {
          ASSERT_EQ(3000u, r->count_value);
        }
        if (op == WireOp::kExtract) {
          ASSERT_EQ(500u, r->tuples.size());
        }
        ++completed;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(0u, wire_failures.load());
  EXPECT_GE(completed.load(), uint64_t{kThreads * kOpsPerThread / 2});
  server.Stop();
  Server::Stats stats = server.stats();
  EXPECT_EQ(0u, stats.active_connections);
  EXPECT_GE(stats.total_accepted, completed.load());
}

}  // namespace
}  // namespace slpspan
