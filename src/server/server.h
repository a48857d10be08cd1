#ifndef TSWARP_SERVER_SERVER_H_
#define TSWARP_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/index.h"
#include "core/match.h"
#include "server/index_handle.h"

namespace tswarp::server {

/// Configuration of one tswarpd instance.
struct ServerOptions {
  /// Bind address and port; port 0 picks an ephemeral port (read it back
  /// from Server::port()), which is how the tests run hermetically.
  std::string address = "127.0.0.1";
  int port = 0;

  /// Connection handler threads. Each owns one connection at a time
  /// (keep-alive requests on a connection are sequential), so this bounds
  /// concurrent connections; excess accepts are answered 503 and closed.
  std::size_t connection_threads = 4;

  /// Admission control: how many searches may wait for a run slot. A
  /// /search that finds this many already waiting is refused immediately
  /// with 429 + Retry-After instead of waiting — latency under overload
  /// stays bounded and the client owns the retry policy. Each connection
  /// thread waits on its own search, so fewer than `connection_threads`
  /// searches can ever wait.
  std::size_t queue_capacity = 64;

  /// Run slots: how many searches run at once, each on the connection
  /// thread that parsed it; the others wait in arrival order. 0 runs one
  /// at a time, like 1. Each search keeps its request's knobs, "threads"
  /// included.
  std::size_t search_threads = 0;
};

/// Monotonic counters exposed by /stats and by Counters() for tests.
struct ServerCounters {
  std::uint64_t connections = 0;       // Accepted sockets.
  std::uint64_t requests = 0;          // Complete HTTP requests parsed.
  std::uint64_t admitted = 0;          // Searches that passed admission.
  std::uint64_t rejected = 0;          // Searches refused with 429.
  std::uint64_t completed = 0;         // Searches that ran to completion.
  std::uint64_t partials = 0;          // Deadline hit mid-search (200 partial).
  std::uint64_t timeouts = 0;          // Deadline hit before start (504).
  std::uint64_t protocol_errors = 0;   // 4xx/5xx other than 429/504.
  std::uint64_t appends = 0;           // Sequences accepted via /append.
  std::size_t queue_depth = 0;         // Searches waiting for a run slot.
  std::size_t queue_high_water = 0;    // Most searches ever waiting.
  core::SearchStats search;            // Merged over all executed searches.
};

/// Serializes a /search response body. Exposed so the e2e tests can feed a
/// direct library result through the *same* serializer and require the
/// server's bytes to match exactly. `status_word` is "ok" for complete
/// searches, "partial" when the deadline stopped the traversal early;
/// `stats` adds a "stats" member when non-null (requested via
/// "include_stats": stats carry scheduler counters that are not
/// deterministic, so they are opt-in to keep default bodies byte-stable).
std::string SearchResponseBody(std::string_view status_word,
                               std::span<const core::Match> matches,
                               const core::SearchStats* stats);

/// Serializes the canonical error body {"error":{"code":...,"message":...}}.
std::string ErrorBody(std::string_view code, std::string_view message);

/// tswarpd: serves one IndexHandle over HTTP/1.1.
///
///   POST /search   {"query":[...], "epsilon":E | "k":K, ...knobs}
///   GET  /stats    merged SearchStats + admission/scheduler counters
///   GET  /healthz  {"status":"ok"} (503 {"status":"draining"} during drain)
///
/// Threading: one accept thread and `connection_threads` handler threads.
/// A handler runs each search it parses once the search holds one of
/// `search_threads` run slots, so backpressure is end-to-end: too many
/// searches waiting -> 429 at admission, never unbounded buffering.
///
/// Shutdown() (also run by the destructor) is a graceful drain: stop
/// accepting, finish in-flight requests, answer everything already
/// admitted, then join. Safe to call from a signal-watching thread.
/// Continuous queries registered over HTTP belong to the TieredIndex, not
/// the server: a shutdown leaves them, and their buffered matches, in
/// place, and a later server over the same index polls them by id.
class Server {
 public:
  /// Binds, spawns the threads, and returns a running server. `index`
  /// must outlive the server.
  static StatusOr<std::unique_ptr<Server>> Start(IndexHandle* index,
                                                 const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral port when options.port was 0).
  int port() const;

  /// Graceful drain; idempotent, blocks until all threads have joined.
  void Shutdown();

  /// A consistent snapshot of the counters.
  ServerCounters Counters() const;

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tswarp::server

#endif  // TSWARP_SERVER_SERVER_H_
