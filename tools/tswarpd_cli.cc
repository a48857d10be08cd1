// tswarpd: serves one tswarp index over HTTP/JSON.
//
//   tswarpd_cli serve DB [--port P] [--address A] [--kind st|stc|sstc]
//       [--categories C] [--index PATH] [--queue N]
//       [--search-threads T] [--conn-threads T] [--streaming]
//       [--memtable N] [--sealed N] [--smoke]
//   tswarpd_cli append VALUES [--port P] [--address A]
//
// The index is built at startup or, with --index, reopened from a
// persisted bundle (built there if missing, refused if it was built from
// other data or options; --categories defaults to 40, as in tswarp_cli,
// so defaults match defaults). Each query then runs on its connection
// thread once it holds a run slot (see docs/server.md). With --streaming
// the index is wrapped in a core::TieredIndex, enabling POST /append and
// the /continuous/* endpoints (see docs/streaming.md). SIGTERM/SIGINT
// trigger a graceful drain: in-flight and already-admitted searches are
// answered, then the process exits 0. Any flag the subcommand does not
// take is a usage error (exit 2).
//
// `append` is the matching client: it POSTs one comma-separated sequence
// to a running --streaming server and prints the assigned global seq id.
//
// --smoke starts on an ephemeral port, runs a self-test over a real
// socket (healthz, one search, stats, and with --streaming one append),
// drains, and exits — the CI hook.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/types.h"
#include "core/index.h"
#include "core/tiered_index.h"
#include "seqdb/sequence_database.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"
#include "server/server.h"

namespace tswarp {
namespace {

using core::Index;
using core::IndexOptions;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: tswarpd_cli serve DB [--port P] [--address A] "
               "[--kind st|stc|sstc] [--categories C] [--index PATH] "
               "[--queue N] "
               "[--search-threads T] [--conn-threads T] [--streaming] "
               "[--memtable N] [--sealed N] [--smoke]\n"
               "       tswarpd_cli append VALUES [--port P] [--address A]\n"
               "  VALUES is one comma-separated sequence, e.g. 12,14,13,15\n");
  return 2;
}

/// The smoke self-test: a full client round trip over the real socket.
int RunSmoke(server::Server& srv, bool streaming) {
  StatusOr<server::HttpClient> client =
      server::HttpClient::Connect("127.0.0.1", srv.port());
  if (!client.ok()) {
    std::fprintf(stderr, "smoke: connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  StatusOr<server::ClientResponse> health = client->Get("/healthz");
  if (!health.ok() || health->status != 200) {
    std::fprintf(stderr, "smoke: /healthz failed\n");
    return 1;
  }
  StatusOr<server::ClientResponse> search = client->Post(
      "/search", "{\"query\":[50,51,52,53],\"epsilon\":8}");
  if (!search.ok() || search->status != 200) {
    std::fprintf(stderr, "smoke: /search failed (status %d)\n",
                 search.ok() ? search->status : -1);
    return 1;
  }
  if (streaming) {
    StatusOr<server::ClientResponse> appended = client->Post(
        "/append", "{\"values\":[50,51,52,53,54,55,56,57]}");
    if (!appended.ok() || appended->status != 200) {
      std::fprintf(stderr, "smoke: /append failed (status %d)\n",
                   appended.ok() ? appended->status : -1);
      return 1;
    }
  }
  StatusOr<server::ClientResponse> stats = client->Get("/stats");
  if (!stats.ok() || stats->status != 200) {
    std::fprintf(stderr, "smoke: /stats failed\n");
    return 1;
  }
  std::printf("smoke ok: port %d, search body %zu bytes\n", srv.port(),
              search->body.size());
  return 0;
}

/// `append`: POSTs one sequence to a running --streaming server.
int Append(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::vector<Value> values;
  if (!ParseValues("append", argv[2], &values)) return 2;
  if (values.empty()) {
    std::fprintf(stderr, "append: could not parse any values from '%s'\n",
                 argv[2]);
    return 2;
  }
  const char* address = FlagValue(argc, argv, "--address", "127.0.0.1");
  int port = 0;
  if (!FlagPort(argc, argv, &port)) return 1;
  StatusOr<server::HttpClient> client =
      server::HttpClient::Connect(address, port);
  if (!client.ok()) {
    std::fprintf(stderr, "append: connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::string body;
  server::JsonWriter w(&body);
  w.BeginObject().Key("values").BeginArray();
  for (const Value v : values) w.Number(v);
  w.EndArray().EndObject();
  StatusOr<server::ClientResponse> response = client->Post("/append", body);
  if (!response.ok()) {
    std::fprintf(stderr, "append: request failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  if (response->status != 200) {
    std::fprintf(stderr, "append: server returned %d: %s\n", response->status,
                 response->body.c_str());
    return 1;
  }
  std::printf("%s\n", response->body.c_str());
  return 0;
}

int Serve(int argc, char** argv) {
  if (argc < 3) return Usage();
  // Every count and the port are checked before anything is loaded or
  // started.
  IndexOptions options;
  core::TieredOptions tiered_options;
  server::ServerOptions server_options;
  if (!IndexOptionsFromFlags(argc, argv, &options) ||
      !FlagPort(argc, argv, &server_options.port) ||
      !FlagCount(argc, argv, "--memtable", 8,
                 &tiered_options.memtable_max_sequences) ||
      !FlagCount(argc, argv, "--sealed", 2,
                 &tiered_options.max_sealed_tiers) ||
      !FlagCount(argc, argv, "--queue", 64, &server_options.queue_capacity) ||
      !FlagCount(argc, argv, "--search-threads", 0,
                 &server_options.search_threads) ||
      !FlagCount(argc, argv, "--conn-threads", 4,
                 &server_options.connection_threads)) {
    return 1;
  }
  const StatusOr<seqdb::SequenceDatabase> db = LoadDb(argc, argv);
  if (!db.ok()) return 1;
  // A missing bundle is built and persists for the next start.
  StatusOr<Index> index = OpenOrBuildIndex(argv[2], *db, options);
  if (!index.ok()) return 1;

  // --streaming wraps the base index in a TieredIndex so /append and the
  // continuous-query endpoints are live; otherwise the handle serves the
  // static snapshot.
  const bool streaming = HasFlag(argc, argv, "--streaming");
  std::shared_ptr<core::TieredIndex> tiered;
  if (streaming) {
    tiered_options.index = options;
    tiered = core::TieredIndex::FromIndex(std::move(*index), tiered_options);
  }
  server::IndexHandle handle =
      streaming ? server::IndexHandle(tiered)
                : server::IndexHandle(std::move(*index));

  server_options.address = FlagValue(argc, argv, "--address", "127.0.0.1");
  const bool smoke = HasFlag(argc, argv, "--smoke");
  if (smoke) server_options.port = 0;

  StatusOr<std::unique_ptr<server::Server>> srv =
      server::Server::Start(&handle, server_options);
  if (!srv.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 srv.status().ToString().c_str());
    return 1;
  }

  if (smoke) {
    const int rc = RunSmoke(**srv, streaming);
    (*srv)->Shutdown();
    return rc;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("tswarpd serving %s (%s%s) on %s:%d\n", argv[2],
              FlagValue(argc, argv, "--kind", "sstc"),
              streaming ? ", streaming" : "",
              server_options.address.c_str(), (*srv)->port());
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("draining...\n");
  (*srv)->Shutdown();
  const server::ServerCounters c = (*srv)->Counters();
  std::printf("served %llu requests (%llu searches, %llu rejected)\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.completed),
              static_cast<unsigned long long>(c.rejected));
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) {
  using tswarp::OnlyKnownFlags;
  if (argc < 2) return tswarp::Usage();
  if (std::strcmp(argv[1], "serve") == 0) {
    if (!OnlyKnownFlags(argc, argv,
                        {"--port", "--address", "--kind", "--categories",
                         "--index", "--queue", "--search-threads",
                         "--conn-threads", "--memtable", "--sealed"},
                        {"--streaming", "--smoke"})) {
      return tswarp::Usage();
    }
    return tswarp::Serve(argc, argv);
  }
  if (std::strcmp(argv[1], "append") == 0) {
    if (!OnlyKnownFlags(argc, argv, {"--port", "--address"}, {})) {
      return tswarp::Usage();
    }
    return tswarp::Append(argc, argv);
  }
  return tswarp::Usage();
}
