// End-to-end tests of tswarpd: the server's /search responses must be
// byte-identical to serializing a direct library call with the same
// options, across range/k-NN, memory/disk indexes, and thread counts —
// the proof that the HTTP layer adds transport, not semantics. /stats is
// checked for consistency against the actual traffic.

#include "server/server.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "seqdb/sequence_database.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"

namespace tswarp::server {
namespace {

seqdb::SequenceDatabase TestDb(std::uint64_t seed = 1) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 12;
  options.avg_length = 40;
  options.length_jitter = 8;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

/// A query the index is guaranteed to match: a verbatim subsequence.
std::vector<Value> TestQuery(const seqdb::SequenceDatabase& db,
                             std::size_t len = 8) {
  const std::span<const Value> sub = db.Subsequence(0, 2, len);
  return std::vector<Value>(sub.begin(), sub.end());
}

/// Serializes the request body with the same number formatting the parser
/// round-trips, so the server sees exactly the double we searched with.
std::string SearchBody(const std::vector<Value>& query,
                       const std::string& extra) {
  std::string body = "{\"query\":[";
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (i != 0) body.push_back(',');
    AppendJsonNumber(&body, query[i]);
  }
  body.push_back(']');
  body += extra;
  body.push_back('}');
  return body;
}

struct TestServer {
  std::unique_ptr<IndexHandle> handle;
  std::unique_ptr<Server> server;
};

TestServer StartServer(core::Index index, ServerOptions options = {}) {
  TestServer ts;
  ts.handle = std::make_unique<IndexHandle>(std::move(index));
  auto started = Server::Start(ts.handle.get(), options);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  ts.server = std::move(*started);
  return ts;
}

core::Index BuildIndex(const seqdb::SequenceDatabase& db,
                       core::IndexKind kind, const std::string& disk_path) {
  core::IndexOptions options;
  options.kind = kind;
  options.num_categories = 12;
  options.disk_path = disk_path;
  auto index = core::Index::Build(&db, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

struct E2EParam {
  core::IndexKind kind;
  bool disk;
  std::size_t threads;
};

class ServerE2ETest : public ::testing::TestWithParam<E2EParam> {};

TEST_P(ServerE2ETest, SearchMatchesLibraryByteForByte) {
  const E2EParam param = GetParam();
  const seqdb::SequenceDatabase db = TestDb();
  const std::string disk_path =
      param.disk ? ::testing::TempDir() + "/server_e2e_" +
                       std::to_string(static_cast<int>(param.kind)) + "_" +
                       std::to_string(param.threads)
                 : "";
  // Two independent instances of the same index: the server must not be
  // able to influence the direct baseline.
  core::Index direct = BuildIndex(db, param.kind, disk_path);
  core::Index served =
      param.disk ? [&] {
        core::IndexOptions options;
        options.kind = param.kind;
        options.num_categories = 12;
        options.disk_path = disk_path;
        auto reopened = core::Index::Open(&db, options);
        EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
        return std::move(*reopened);
      }()
                 : BuildIndex(db, param.kind, "");
  TestServer ts = StartServer(std::move(served));
  auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<Value> query = TestQuery(db);
  core::QueryOptions opts;
  opts.num_threads = param.threads;
  const std::string thread_suffix =
      ",\"threads\":" + std::to_string(param.threads);

  // Range search.
  const Value epsilon = 6.0;
  const std::vector<core::Match> range =
      direct.Search(query, epsilon, opts);
  EXPECT_FALSE(range.empty());  // The verbatim subsequence matches itself.
  std::string eps_json = ",\"epsilon\":";
  AppendJsonNumber(&eps_json, epsilon);
  auto range_resp =
      client->Post("/search", SearchBody(query, eps_json + thread_suffix));
  ASSERT_TRUE(range_resp.ok()) << range_resp.status().ToString();
  EXPECT_EQ(range_resp->status, 200);
  EXPECT_EQ(range_resp->body, SearchResponseBody("ok", range, nullptr));

  // k-NN search.
  const std::size_t k = 3;
  const std::vector<core::Match> knn = direct.SearchKnn(query, k, opts);
  auto knn_resp = client->Post(
      "/search",
      SearchBody(query, ",\"k\":" + std::to_string(k) + thread_suffix));
  ASSERT_TRUE(knn_resp.ok()) << knn_resp.status().ToString();
  EXPECT_EQ(knn_resp->status, 200);
  EXPECT_EQ(knn_resp->body, SearchResponseBody("ok", knn, nullptr));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ServerE2ETest,
    ::testing::Values(
        E2EParam{core::IndexKind::kSuffixTree, false, 1},
        E2EParam{core::IndexKind::kCategorized, false, 1},
        E2EParam{core::IndexKind::kSparse, false, 1},
        E2EParam{core::IndexKind::kSparse, false, 4},
        E2EParam{core::IndexKind::kSparse, true, 1},
        E2EParam{core::IndexKind::kSparse, true, 4}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
      std::string name = core::IndexKindToString(info.param.kind);
      name += info.param.disk ? "_disk_" : "_memory_";
      name += std::to_string(info.param.threads) + "threads";
      return name;
    });

TEST(ServerSearchOptionsTest, KnobsReachTheDriver) {
  // band / prune / use_lower_bound must change the server's work exactly
  // as they change the library's; with identical answers, comparing the
  // serialized bodies against direct calls with the same knobs proves the
  // plumbing end to end.
  const seqdb::SequenceDatabase db = TestDb(3);
  core::Index direct = BuildIndex(db, core::IndexKind::kCategorized, "");
  TestServer ts = StartServer(
      BuildIndex(db, core::IndexKind::kCategorized, ""));
  auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());
  const std::vector<Value> query = TestQuery(db, 6);

  core::QueryOptions banded;
  banded.band = 3;
  const std::vector<core::Match> expected_banded =
      direct.Search(query, 5.0, banded);
  auto banded_resp = client->Post(
      "/search", SearchBody(query, ",\"epsilon\":5,\"band\":3"));
  ASSERT_TRUE(banded_resp.ok());
  EXPECT_EQ(banded_resp->status, 200);
  EXPECT_EQ(banded_resp->body,
            SearchResponseBody("ok", expected_banded, nullptr));

  core::QueryOptions ablated;
  ablated.prune = false;
  ablated.use_lower_bound = false;
  const std::vector<core::Match> expected_ablated =
      direct.Search(query, 5.0, ablated);
  auto ablated_resp = client->Post(
      "/search",
      SearchBody(query,
                 ",\"epsilon\":5,\"prune\":false,\"use_lower_bound\":false"));
  ASSERT_TRUE(ablated_resp.ok());
  EXPECT_EQ(ablated_resp->status, 200);
  EXPECT_EQ(ablated_resp->body,
            SearchResponseBody("ok", expected_ablated, nullptr));

  // include_stats adds a "stats" member whose answers equal the count.
  auto stats_resp = client->Post(
      "/search", SearchBody(query, ",\"epsilon\":5,\"include_stats\":true"));
  ASSERT_TRUE(stats_resp.ok());
  EXPECT_EQ(stats_resp->status, 200);
  auto parsed = ParseJson(stats_resp->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("answers")->AsNumber(),
            parsed->Find("count")->AsNumber());
}

TEST(ServerStatsTest, CountersReflectTraffic) {
  const seqdb::SequenceDatabase db = TestDb(5);
  TestServer ts =
      StartServer(BuildIndex(db, core::IndexKind::kSparse, ""));
  core::Index direct = BuildIndex(db, core::IndexKind::kSparse, "");
  auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  const std::vector<Value> query = TestQuery(db);
  std::size_t total_matches = 0;
  const int kSearches = 5;
  for (int i = 0; i < kSearches; ++i) {
    auto resp =
        client->Post("/search", SearchBody(query, ",\"epsilon\":6"));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->status, 200);
    auto parsed = ParseJson(resp->body);
    ASSERT_TRUE(parsed.ok());
    total_matches +=
        static_cast<std::size_t>(parsed->Find("count")->AsNumber());
  }
  EXPECT_EQ(total_matches, kSearches * direct.Search(query, 6.0).size());

  auto stats_resp = client->Get("/stats");
  ASSERT_TRUE(stats_resp.ok());
  ASSERT_EQ(stats_resp->status, 200);
  auto stats = ParseJson(stats_resp->body);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Find("requests")->Find("completed")->AsNumber(),
            kSearches);
  EXPECT_EQ(stats->Find("queue")->Find("admitted")->AsNumber(), kSearches);
  EXPECT_EQ(stats->Find("queue")->Find("rejected")->AsNumber(), 0);
  EXPECT_EQ(stats->Find("search")->Find("answers")->AsNumber(),
            static_cast<double>(total_matches));
  EXPECT_EQ(stats->Find("search")->Find("cancelled")->AsNumber(), 0);
  EXPECT_EQ(stats->Find("draining")->AsBool(), false);

  // The library-side Counters() accessor agrees with the wire stats.
  const ServerCounters counters = ts.server->Counters();
  EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(kSearches));
  EXPECT_EQ(counters.search.answers, total_matches);
}

TEST(ServerConcurrencyTest, ParallelClientsGetExactAnswers) {
  // Several clients in flight at once: every response must still be
  // byte-identical to the direct library call (the dispatcher may run
  // them in one round or several — either way semantics are unchanged).
  const seqdb::SequenceDatabase db = TestDb(7);
  core::Index direct = BuildIndex(db, core::IndexKind::kSparse, "");
  ServerOptions options;
  options.connection_threads = 6;
  options.queue_capacity = 32;
  TestServer ts = StartServer(
      BuildIndex(db, core::IndexKind::kSparse, ""), options);

  const std::vector<Value> query = TestQuery(db);
  const std::string expected =
      SearchResponseBody("ok", direct.Search(query, 6.0), nullptr);
  const std::string body = SearchBody(query, ",\"epsilon\":6");

  const int kClients = 6;
  std::vector<std::string> bodies(kClients);
  std::vector<int> statuses(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
        if (!client.ok()) return;
        auto resp = client->Post("/search", body);
        if (!resp.ok()) return;
        statuses[i] = resp->status;
        bodies[i] = resp->body;
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_EQ(bodies[i], expected) << "client " << i;
  }
  const ServerCounters counters = ts.server->Counters();
  EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(counters.completed + counters.rejected,
            counters.admitted + counters.rejected);
}

TEST(ServerConcurrencyTest, RoundDispatchOnSearchThreadsMatchesLibrary) {
  // search_threads > 0 runs each dispatch round's searches side by side.
  // Range, k-NN and deadline requests from several clients at once, with
  // and without per-request threads: every body must equal the library
  // call's, and every admitted search must be accounted for.
  const seqdb::SequenceDatabase db = TestDb(8);
  core::Index direct = BuildIndex(db, core::IndexKind::kCategorized, "");
  ServerOptions options;
  options.connection_threads = 6;
  options.queue_capacity = 64;
  options.search_threads = 2;
  TestServer ts = StartServer(
      BuildIndex(db, core::IndexKind::kCategorized, ""), options);

  struct Request {
    std::string body;
    std::string expected;
  };
  std::vector<Request> requests;
  for (const std::size_t len : {6u, 9u}) {
    const std::vector<Value> query = TestQuery(db, len);
    for (const std::size_t threads : {0u, 2u}) {
      core::QueryOptions opts;
      opts.num_threads = threads;
      const std::string knobs = ",\"threads\":" + std::to_string(threads);
      requests.push_back(
          {SearchBody(query, ",\"epsilon\":6" + knobs),
           SearchResponseBody("ok", direct.Search(query, 6.0, opts),
                              nullptr)});
      requests.push_back(
          {SearchBody(query, ",\"k\":4" + knobs),
           SearchResponseBody("ok", direct.SearchKnn(query, 4, opts),
                              nullptr)});
      // A generous deadline: the search completes, so the body is the
      // plain "ok" answer.
      requests.push_back(
          {SearchBody(query,
                      ",\"epsilon\":4,\"deadline_ms\":60000" + knobs),
           SearchResponseBody("ok", direct.Search(query, 4.0, opts),
                              nullptr)});
    }
  }

  const int kClients = 6;
  std::vector<std::vector<std::string>> bodies(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
        if (!client.ok()) return;
        for (std::size_t r = 0; r < requests.size(); ++r) {
          // Each client walks the list from a different offset, so every
          // round mixes request kinds.
          const Request& req = requests[(r + i) % requests.size()];
          auto resp = client->Post("/search", req.body);
          bodies[i].push_back(resp.ok() && resp->status == 200
                                  ? resp->body
                                  : "failed");
          EXPECT_EQ(bodies[i].back(), req.expected)
              << "client " << i << " request " << (r + i) % requests.size();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(bodies[i].size(), requests.size()) << "client " << i;
  }
  const ServerCounters counters = ts.server->Counters();
  EXPECT_EQ(counters.admitted, kClients * requests.size());
  EXPECT_EQ(counters.completed + counters.partials + counters.timeouts,
            counters.admitted);
  EXPECT_EQ(counters.rejected, 0u);
}

TEST(ServerHealthTest, HealthzFlipsToDrainingOnShutdown) {
  const seqdb::SequenceDatabase db = TestDb(9);
  TestServer ts =
      StartServer(BuildIndex(db, core::IndexKind::kSparse, ""));
  {
    auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
    ASSERT_TRUE(client.ok());
    auto resp = client->Get("/healthz");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body, "{\"status\":\"ok\"}");
  }
  ts.server->Shutdown();
  // After the drain the listener is gone: new connections are refused.
  auto late = HttpClient::Connect("127.0.0.1", ts.server->port());
  if (late.ok()) {
    auto resp = late->Get("/healthz");
    EXPECT_FALSE(resp.ok() && resp->status == 200);
  }
  // Shutdown is idempotent.
  ts.server->Shutdown();
}

TEST(ServerTest, ShutdownDoesNotWaitOutTheAcceptPoll) {
  const seqdb::SequenceDatabase db = TestDb(11);
  TestServer ts =
      StartServer(BuildIndex(db, core::IndexKind::kSparse, ""));
  {
    auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
    ASSERT_TRUE(client.ok());
    auto resp = client->Get("/stats");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
  }
  // Let the handler see the client go, so only the idle listener is left.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto start = std::chrono::steady_clock::now();
  ts.server->Shutdown();
  const auto took = std::chrono::steady_clock::now() - start;
  // The accept loop polls with a 100 ms timeout; an idle server's drain
  // must not wait it out.
  EXPECT_LT(took, std::chrono::milliseconds(50));
}

TEST(ServerTest, ShutdownWithIdleKeepAliveClientIsPrompt) {
  const seqdb::SequenceDatabase db = TestDb(12);
  TestServer ts =
      StartServer(BuildIndex(db, core::IndexKind::kSparse, ""));
  auto client = HttpClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Get("/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  // The connection stays open and idle: its handler has just gone back to
  // polling it (100 ms timeout). The drain must wake that poll rather
  // than wait it out.
  const auto start = std::chrono::steady_clock::now();
  ts.server->Shutdown();
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::milliseconds(50));
}

}  // namespace
}  // namespace tswarp::server
