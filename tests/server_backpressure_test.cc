// Admission-control and lifecycle tests of tswarpd, written to run under
// TSan (the CI stress leg): queue saturation must produce 429s with
// bounded queueing and no lost or duplicated responses, graceful drain
// must answer everything already admitted, deadlines must be enforced
// end-to-end, and hot-swapping the index (Index::Open concurrent with
// in-flight stats reads) must be race-free through server::IndexHandle
// and re-check the band rule for searches waiting across the swap.

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"

namespace tswarp::server {
namespace {

seqdb::SequenceDatabase TestDb(std::uint64_t seed, std::size_t n,
                               std::size_t len) {
  datagen::RandomWalkOptions options;
  options.num_sequences = n;
  options.avg_length = len;
  options.length_jitter = len / 8;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

core::Index BuildIndex(const seqdb::SequenceDatabase& db,
                       const std::string& disk_path = "") {
  core::IndexOptions options;
  options.kind = core::IndexKind::kCategorized;
  options.num_categories = 12;
  options.disk_path = disk_path;
  auto index = core::Index::Build(&db, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

std::string QueryJson(const seqdb::SequenceDatabase& db, std::size_t len) {
  const std::span<const Value> sub = db.Subsequence(0, 0, len);
  std::string body = "[";
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (i != 0) body.push_back(',');
    AppendJsonNumber(&body, sub[i]);
  }
  body.push_back(']');
  return body;
}

/// A deliberately expensive request: pruning and the lower-bound cascade
/// disabled force the full traversal + exact DTW on every candidate, so it
/// holds the only run slot long enough for the queue to fill behind it.
std::string SlowBody(const seqdb::SequenceDatabase& db) {
  return "{\"query\":" + QueryJson(db, 20) +
         ",\"epsilon\":0.5,\"prune\":false,\"use_lower_bound\":false}";
}

std::string QuickBody(const seqdb::SequenceDatabase& db) {
  return "{\"query\":" + QueryJson(db, 8) + ",\"epsilon\":2}";
}

int PostStatus(int port, const std::string& body, std::string* out = nullptr,
               std::string* retry_after = nullptr) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return -1;
  auto resp = client->Post("/search", body);
  if (!resp.ok()) return -1;
  if (out != nullptr) *out = resp->body;
  if (retry_after != nullptr) {
    *retry_after = std::string(resp->Header("retry-after"));
  }
  return resp->status;
}

/// Polls the server's counters until `done` holds for them; fails the
/// test if that takes longer than the slow query could last.
template <typename Done>
void WaitForCounters(const Server& server, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done(server.Counters())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the server never reached the awaited queue state";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerBackpressureTest, FullQueueAnswers429WithRetryAfter) {
  // Sized so SlowBody takes ~1s on this db: it must still hold the run
  // slot while two fillers queue behind it and the refusal probe arrives.
  // Each step waits on the counters, not on a clock, so a fast slow query
  // cannot let the fillers start before the probe.
  const seqdb::SequenceDatabase db = TestDb(31, 80, 600);
  auto handle = std::make_unique<IndexHandle>(BuildIndex(db));
  ServerOptions options;
  options.queue_capacity = 2;
  options.connection_threads = 8;
  auto server = Server::Start(handle.get(), options);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  // One expensive query holds the run slot (admitted, then running)...
  std::thread slow([&] { EXPECT_EQ(PostStatus(port, SlowBody(db)), 200); });
  WaitForCounters(**server, [](const ServerCounters& c) {
    return c.admitted == 1 && c.queue_depth == 0;
  });
  // ...two more fill the queue to capacity...
  std::vector<std::thread> fillers;
  std::atomic<int> filler_ok{0};
  for (int i = 0; i < 2; ++i) {
    fillers.emplace_back([&] {
      if (PostStatus(port, SlowBody(db)) == 200) ++filler_ok;
    });
  }
  WaitForCounters(**server,
                  [](const ServerCounters& c) { return c.queue_depth == 2; });
  // ...so the next arrival must be refused at the door, immediately.
  std::string retry_after;
  const auto refused_at = std::chrono::steady_clock::now();
  EXPECT_EQ(PostStatus(port, QuickBody(db), nullptr, &retry_after), 429);
  const auto refusal_latency =
      std::chrono::steady_clock::now() - refused_at;
  EXPECT_EQ(retry_after, "1");
  // Refusal must not wait for the slow work to finish (bounded latency is
  // the point of non-blocking admission). The slow queries take seconds;
  // give the refusal a generous second to cover sanitizer overhead.
  EXPECT_LT(refusal_latency, std::chrono::seconds(1));

  slow.join();
  for (std::thread& t : fillers) t.join();
  EXPECT_EQ(filler_ok.load(), 2);

  const ServerCounters counters = (*server)->Counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_GE(counters.rejected, 1u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_LE(counters.queue_high_water, options.queue_capacity);
  (*server)->Shutdown();
}

TEST(ServerDrainTest, ShutdownAnswersEverythingAdmitted) {
  const seqdb::SequenceDatabase db = TestDb(37, 12, 40);
  auto handle = std::make_unique<IndexHandle>(BuildIndex(db));
  ServerOptions options;
  options.queue_capacity = 16;
  options.connection_threads = 8;
  auto server = Server::Start(handle.get(), options);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();
  const std::string body = QuickBody(db);

  // Establish the expected body once (server still fully up).
  std::string expected;
  ASSERT_EQ(PostStatus(port, body, &expected), 200);

  const int kClients = 6;
  std::vector<int> statuses(kClients, -2);
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      statuses[i] = PostStatus(port, body, &bodies[i]);
    });
  }
  // Drain while they are in flight. Every admitted request must still be
  // answered exactly once, with the full (correct) response; requests
  // that race the drain flag get an orderly 503, never a hang or a cut
  // connection mid-response.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*server)->Shutdown();
  for (std::thread& t : clients) t.join();

  int ok = 0, unavailable = 0;
  for (int i = 0; i < kClients; ++i) {
    if (statuses[i] == 200) {
      ++ok;
      EXPECT_EQ(bodies[i], expected) << "client " << i;
    } else {
      // 503 (drain refused it) or a refused/reset connection (-1) once
      // the listener is gone.
      EXPECT_TRUE(statuses[i] == 503 || statuses[i] == -1)
          << "client " << i << " got " << statuses[i];
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kClients);
  const ServerCounters counters = (*server)->Counters();
  // +1 for the expected-body probe; every admitted search completed.
  EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(ok) + 1);
  EXPECT_EQ(counters.admitted, counters.completed);
}

TEST(ServerDeadlineTest, QueueWaitCountsAgainstTheDeadline) {
  // Same sizing rationale as the backpressure test: SlowBody must outlive
  // the 200ms settle sleep so the deadlined request really queues.
  const seqdb::SequenceDatabase db = TestDb(41, 80, 600);
  auto handle = std::make_unique<IndexHandle>(BuildIndex(db));
  ServerOptions options;
  options.queue_capacity = 8;
  options.connection_threads = 4;
  auto server = Server::Start(handle.get(), options);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  // Occupy the run slot, then queue a request whose 1ms deadline will
  // expire while it waits: it must come back 504, not run to completion.
  std::thread slow([&] { EXPECT_EQ(PostStatus(port, SlowBody(db)), 200); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::string deadlined = "{\"query\":" + QueryJson(db, 8) +
                                ",\"epsilon\":2,\"deadline_ms\":1}";
  std::string body;
  EXPECT_EQ(PostStatus(port, deadlined, &body), 504);
  EXPECT_NE(body.find("deadline_exceeded"), std::string::npos);
  slow.join();

  // A deadline that stops the search mid-run yields 200 "partial" with
  // the cancelled flag visible in the stats; a generous deadline yields
  // "ok". Either way the flag and the status word must agree.
  for (const char* deadline : {"\"deadline_ms\":1", "\"deadline_ms\":30000"}) {
    const std::string request = "{\"query\":" + QueryJson(db, 20) +
                                ",\"epsilon\":0.5,\"prune\":false,"
                                "\"use_lower_bound\":false,"
                                "\"include_stats\":true," +
                                deadline + "}";
    std::string response;
    const int status = PostStatus(port, request, &response);
    if (status == 504) {
      // The 1ms budget can expire before the search even gets its slot
      // (admission latency is real, especially under sanitizers); a
      // pre-run timeout is a legal outcome for it.
      EXPECT_NE(response.find("deadline_exceeded"), std::string::npos);
      continue;
    }
    ASSERT_EQ(status, 200) << response;
    auto parsed = ParseJson(response);
    ASSERT_TRUE(parsed.ok());
    const bool cancelled =
        parsed->Find("stats")->Find("cancelled")->AsNumber() > 0;
    const std::string& status_word = parsed->Find("status")->AsString();
    EXPECT_EQ(status_word, cancelled ? "partial" : "ok");
  }
  const ServerCounters counters = (*server)->Counters();
  EXPECT_GE(counters.timeouts, 1u);
  (*server)->Shutdown();
}

TEST(ServerIndexReloadTest, OpenConcurrentWithStatsReadsIsRaceFree) {
  // Regression test for the hot-swap race: reopening the on-disk index
  // and publishing it through IndexHandle::Replace while /stats handlers
  // and searches are reading the live index must be clean under TSan.
  // (Move-assigning the Index object itself — the pre-IndexHandle
  // pattern — is exactly the race core/index.h now documents as illegal.)
  const seqdb::SequenceDatabase db = TestDb(43, 12, 40);
  const std::string disk_path = ::testing::TempDir() + "/server_reload_idx";
  core::IndexOptions index_options;
  index_options.kind = core::IndexKind::kCategorized;
  index_options.num_categories = 12;
  index_options.disk_path = disk_path;
  auto built = core::Index::Build(&db, index_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  IndexHandle handle(std::move(*built));

  ServerOptions options;
  options.connection_threads = 4;
  auto server = Server::Start(&handle, options);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();
  const std::string body = QuickBody(db);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      auto client = HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        auto stats = client->Get("/stats");
        if (!stats.ok() || stats->status != 200) return;
        auto search = client->Post("/search", body);
        if (!search.ok() || search->status != 200) return;
      }
    });
  }
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto reopened = core::Index::Open(&db, index_options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    handle.Replace(std::move(*reopened));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // The final published index still answers.
  std::string response;
  EXPECT_EQ(PostStatus(port, body, &response), 200);
  (*server)->Shutdown();
}

TEST(ServerIndexReloadTest, BandRuleChecksTheSnapshotASearchRunsOn) {
  // A banded search admitted against a dense index waits for the run
  // slot while the index is swapped for a sparse one over the same data.
  // The band rule must be checked against the snapshot the search would
  // run on: 400 invalid_band, and the search never runs.
  const seqdb::SequenceDatabase db = TestDb(53, 80, 600);
  auto handle = std::make_unique<IndexHandle>(BuildIndex(db));
  core::IndexOptions sparse_options;
  sparse_options.kind = core::IndexKind::kSparse;
  sparse_options.num_categories = 12;
  auto sparse = core::Index::Build(&db, sparse_options);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  auto server = Server::Start(handle.get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  std::thread slow([&] { EXPECT_EQ(PostStatus(port, SlowBody(db)), 200); });
  WaitForCounters(**server, [](const ServerCounters& c) {
    return c.admitted == 1 && c.queue_depth == 0;
  });
  const std::string request =
      "{\"query\":" + QueryJson(db, 8) + ",\"epsilon\":2,\"band\":2}";
  int banded_status = 0;
  std::string banded_body;
  std::thread banded(
      [&] { banded_status = PostStatus(port, request, &banded_body); });
  WaitForCounters(**server,
                  [](const ServerCounters& c) { return c.queue_depth == 1; });
  handle->Replace(std::move(*sparse));
  slow.join();
  banded.join();

  EXPECT_EQ(banded_status, 400) << banded_body;
  EXPECT_NE(banded_body.find("invalid_band"), std::string::npos)
      << banded_body;
  const ServerCounters counters = (*server)->Counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.completed, 1u);  // The slow search only.
  EXPECT_EQ(counters.protocol_errors, 1u);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace tswarp::server
