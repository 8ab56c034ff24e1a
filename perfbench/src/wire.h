// The benchmark's wire client: one thread multiplexing a few framed-TCP
// connections to a running slpspan::Server with ppoll(2). It plays either a
// closed loop (each connection keeps exactly one request outstanding) or an
// open loop (requests are sent at their due times whatever the replies do)
// and records, per request, what came back and when.
//
// Latency runs from the request's due time (open loop) or its send time
// (closed loop, where the two coincide) to the arrival of its Done frame,
// which follows the last page. Frames are built and parsed with the
// server's own codec (net/frame.h), so the page decode the client pays is
// the real one.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "slpspan/types.h"

namespace perfbench {

/// One scheduled request. `doc` and `pattern` index the workload's tables.
struct WireRequest {
  slpspan::net::WireOp op = slpspan::net::WireOp::kCount;
  uint8_t priority = 0;
  uint32_t doc = 0;
  uint32_t pattern = 0;
  uint64_t limit = UINT64_MAX;  ///< extract only
  uint64_t due_ns = 0;          ///< open loop: offset from the phase start
};

/// What the client observed for one request.
struct WireResult {
  bool done = false;
  uint8_t code = 0;
  bool nonempty = false;
  uint64_t count = 0;
  uint64_t tuples_streamed = 0;  ///< as reported by the Done frame
  uint64_t tuples_received = 0;  ///< counted over the pages
  std::vector<slpspan::SpanTuple> first_page;
  double latency_ms = 0;  ///< due (or send) time -> Done frame
  double lag_ms = 0;      ///< send time - due time (open loop)
  double done_s = 0;      ///< Done frame arrival, from the phase start
};

struct WirePhase {
  std::vector<WireRequest> requests;  ///< in send order
  std::vector<WireResult> results;    ///< parallel to `requests`
  double seconds = 0;                 ///< phase start -> last Done
  uint64_t wire_errors = 0;           ///< connection or codec failures
};

/// Names the workload's documents and patterns on the wire.
struct WireNames {
  std::function<std::string(uint32_t)> document;
  std::function<std::string(uint32_t)> pattern;
};

class WireClient {
 public:
  WireClient() = default;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects `connections` sockets to 127.0.0.1:port and reads each hello.
  /// Returns false (with a message on stderr) when any connect fails.
  bool Connect(uint16_t port, uint32_t connections);

  /// Closed loop: each connection sends next() as soon as its previous
  /// request completed, until `seconds` have passed; then drains.
  WirePhase RunClosed(const WireNames& names,
                      const std::function<WireRequest()>& next,
                      double seconds);

  /// Open loop: sends each request at phase start + due_ns, round-robin
  /// over the connections, then waits for every reply.
  WirePhase RunOpen(const WireNames& names, std::vector<WireRequest> schedule);

  /// One request at a time on the first connection (pre-warming).
  WirePhase RunSerial(const WireNames& names,
                      std::vector<WireRequest> requests);

 private:
  struct InFlight;

  std::vector<slpspan::net::OwnedFd> fds_;
  std::vector<std::string> buffers_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
