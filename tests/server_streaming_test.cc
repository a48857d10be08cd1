// End-to-end tests of tswarpd's streaming surface: POST /append into a
// TieredIndex-backed handle, per-tier /stats, and the continuous-query
// register/poll/unregister endpoints — plus the static-mode guard rails
// (appends rejected with a clear 400, never a crash).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/seq_scan.h"
#include "core/tiered_index.h"
#include "datagen/generators.h"
#include "seqdb/sequence_database.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"
#include "server/server.h"

namespace tswarp::server {
namespace {

seqdb::SequenceDatabase TestDb(std::uint64_t seed = 1) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 8;
  options.avg_length = 32;
  options.length_jitter = 6;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

struct StreamingServer {
  std::shared_ptr<core::TieredIndex> tiered;
  std::unique_ptr<IndexHandle> handle;
  std::unique_ptr<Server> server;
};

StreamingServer StartStreaming(const seqdb::SequenceDatabase* db,
                               std::size_t memtable_max = 2) {
  StreamingServer ss;
  core::TieredOptions options;
  options.index.kind = core::IndexKind::kCategorized;
  options.index.num_categories = 8;
  options.memtable_max_sequences = memtable_max;
  options.max_sealed_tiers = 1;
  options.merge_in_background = false;  // Deterministic tier shapes.
  auto tiered = core::TieredIndex::Create(db, options);
  EXPECT_TRUE(tiered.ok()) << tiered.status().ToString();
  ss.tiered = std::move(*tiered);
  ss.handle = std::make_unique<IndexHandle>(ss.tiered);
  auto started = Server::Start(ss.handle.get(), {});
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  ss.server = std::move(*started);
  return ss;
}

std::string SequenceBody(const char* key, const std::vector<Value>& values,
                         const std::string& extra = "") {
  std::string body = std::string("{\"") + key + "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body.push_back(',');
    AppendJsonNumber(&body, values[i]);
  }
  body += "]" + extra + "}";
  return body;
}

/// `body` with every JSON number replaced by 0: what is left is the
/// body's shape (keys, their order, nesting, strings and bools), which
/// must not depend on the data or the run.
std::string ZeroNumbers(std::string_view body) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < body.size()) {
        out.push_back(body[++i]);
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (i + 1 < body.size() &&
             std::string_view("0123456789.eE+-").find(body[i + 1]) !=
                 std::string_view::npos) {
        ++i;
      }
      out.push_back('0');
    } else {
      in_string = c == '"';
      out.push_back(c);
    }
  }
  return out;
}

JsonValue Parse(const std::string& body) {
  auto parsed = ParseJson(body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in " << body;
  return parsed.ok() ? *parsed : JsonValue();
}

TEST(ServerStreamingTest, StaticModeRejectsAppendAndContinuous) {
  const seqdb::SequenceDatabase db = TestDb();
  core::IndexOptions options;
  options.kind = core::IndexKind::kCategorized;
  options.num_categories = 8;
  auto index = core::Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  IndexHandle handle(std::move(*index));
  auto server = Server::Start(&handle, {});
  ASSERT_TRUE(server.ok());

  auto client = HttpClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto append = client->Post("/append", "{\"values\":[1,2,3]}");
  ASSERT_TRUE(append.ok());
  EXPECT_EQ(append->status, 400);
  const JsonValue body = Parse(append->body);
  ASSERT_NE(body.Find("error"), nullptr);
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(),
            "append_unsupported");

  auto reg = client->Post("/continuous/register",
                          "{\"query\":[1,2,3],\"epsilon\":1}");
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(reg->status, 400);

  // A static /stats still reports exactly one tier.
  auto stats = client->Get("/stats");
  ASSERT_TRUE(stats.ok());
  const JsonValue stats_body = Parse(stats->body);
  ASSERT_NE(stats_body.Find("index"), nullptr);
  EXPECT_EQ(stats_body.Find("index")->Find("tiers")->AsArray().size(), 1u);
  EXPECT_EQ(stats_body.Find("tiered"), nullptr);
}

TEST(ServerStreamingTest, AppendIsSearchableAndStatsShowTiers) {
  const seqdb::SequenceDatabase db = TestDb();
  StreamingServer ss = StartStreaming(&db);
  auto client = HttpClient::Connect("127.0.0.1", ss.server->port());
  ASSERT_TRUE(client.ok());

  // Append a recognizable ramp and search a verbatim slice of it.
  std::vector<Value> fresh;
  for (int i = 0; i < 16; ++i) fresh.push_back(100.0 + 3.0 * i);
  auto appended = client->Post("/append", SequenceBody("values", fresh));
  ASSERT_TRUE(appended.ok());
  ASSERT_EQ(appended->status, 200) << appended->body;
  const JsonValue append_body = Parse(appended->body);
  ASSERT_NE(append_body.Find("seq"), nullptr);
  const auto seq_id = static_cast<std::size_t>(
      append_body.Find("seq")->AsNumber());
  EXPECT_EQ(seq_id, db.size());

  const std::vector<Value> probe(fresh.begin() + 2, fresh.begin() + 9);
  auto search = client->Post(
      "/search", SequenceBody("query", probe, ",\"epsilon\":0.01"));
  ASSERT_TRUE(search.ok());
  ASSERT_EQ(search->status, 200);
  const JsonValue search_body = Parse(search->body);
  bool found = false;
  for (const JsonValue& m : search_body.Find("matches")->AsArray()) {
    if (static_cast<std::size_t>(m.Find("seq")->AsNumber()) == seq_id) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "appended sequence missing from /search";

  // Bad bodies are 400s, not crashes.
  EXPECT_EQ(client->Post("/append", "{\"values\":[]}")->status, 400);
  EXPECT_EQ(client->Post("/append", "{\"values\":[1,\"x\"]}")->status, 400);
  EXPECT_EQ(client->Post("/append", "not json")->status, 400);

  auto stats = client->Get("/stats");
  ASSERT_TRUE(stats.ok());
  const JsonValue stats_body = Parse(stats->body);
  const JsonValue* index_obj = stats_body.Find("index");
  ASSERT_NE(index_obj, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(
                index_obj->Find("sequences")->AsNumber()),
            db.size() + 1);
  const auto& tiers = index_obj->Find("tiers")->AsArray();
  ASSERT_EQ(tiers.size(), 2u);  // Base + one-sequence memtable.
  EXPECT_TRUE(tiers[1].Find("memtable")->AsBool());
  EXPECT_EQ(static_cast<std::size_t>(tiers[1].Find("first_seq")->AsNumber()),
            db.size());
  const JsonValue* tiered = stats_body.Find("tiered");
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(tiered->Find("appended_sequences")->AsNumber(), 1.0);
  EXPECT_EQ(tiered->Find("appends")->AsNumber(), 1.0);
  EXPECT_EQ(tiered->Find("memtable_sequences")->AsNumber(), 1.0);
  EXPECT_EQ(tiered->Find("merges_failed")->AsNumber(), 0.0);
  EXPECT_EQ(tiered->Find("merge_error")->AsString(), "");
}

TEST(ServerStreamingTest, ContinuousRegisterPollUnregisterRoundTrip) {
  const seqdb::SequenceDatabase db = TestDb();
  StreamingServer ss = StartStreaming(&db, /*memtable_max=*/8);
  auto client = HttpClient::Connect("127.0.0.1", ss.server->port());
  ASSERT_TRUE(client.ok());

  std::vector<Value> pattern;
  for (int i = 0; i < 10; ++i) pattern.push_back(200.0 + 5.0 * i);
  const std::vector<Value> q(pattern.begin(), pattern.begin() + 5);

  auto reg = client->Post("/continuous/register",
                          SequenceBody("query", q, ",\"epsilon\":0.01"));
  ASSERT_TRUE(reg.ok());
  ASSERT_EQ(reg->status, 200) << reg->body;
  const JsonValue reg_body = Parse(reg->body);
  ASSERT_NE(reg_body.Find("id"), nullptr);
  const std::string id_body =
      "{\"id\":" + std::to_string(static_cast<std::uint64_t>(
                       reg_body.Find("id")->AsNumber())) +
      "}";

  // Nothing appended yet: poll drains empty.
  auto poll = client->Post("/continuous/poll", id_body);
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->status, 200);
  EXPECT_EQ(Parse(poll->body).Find("count")->AsNumber(), 0.0);

  // A matching append lands in the channel; a non-matching one does not.
  ASSERT_EQ(client->Post("/append", SequenceBody("values", pattern))->status,
            200);
  ASSERT_EQ(client->Post("/append",
                         "{\"values\":[-900,-900,-900,-900,-900,-900]}")
                ->status,
            200);
  poll = client->Post("/continuous/poll", id_body);
  ASSERT_TRUE(poll.ok());
  const JsonValue poll_body = Parse(poll->body);
  EXPECT_GE(poll_body.Find("count")->AsNumber(), 1.0);
  EXPECT_EQ(poll_body.Find("dropped")->AsNumber(), 0.0);
  for (const JsonValue& m : poll_body.Find("matches")->AsArray()) {
    EXPECT_EQ(static_cast<std::size_t>(m.Find("seq")->AsNumber()), db.size());
  }

  // Drained means drained: an immediate re-poll is empty.
  poll = client->Post("/continuous/poll", id_body);
  EXPECT_EQ(Parse(poll->body).Find("count")->AsNumber(), 0.0);

  auto unreg = client->Post("/continuous/unregister", id_body);
  ASSERT_TRUE(unreg.ok());
  EXPECT_EQ(unreg->status, 200);
  EXPECT_EQ(ss.tiered->Stats().continuous_queries, 0u);
  // The id is gone for both poll and a second unregister.
  EXPECT_EQ(client->Post("/continuous/poll", id_body)->status, 404);
  EXPECT_EQ(client->Post("/continuous/unregister", id_body)->status, 404);
  EXPECT_EQ(client->Post("/continuous/poll", "{\"id\":\"x\"}")->status, 400);
}

// A registration's buffer keeps the newest 4096 matches: one append that
// makes 5050 (every subsequence of 100 values is within a huge epsilon of
// a one-value query) drops the oldest 954, and the poll returns the rest
// in scan order.
TEST(ServerStreamingTest, ContinuousBufferOverflowKeepsTheNewestMatches) {
  const seqdb::SequenceDatabase db = TestDb();
  StreamingServer ss = StartStreaming(&db);
  auto client = HttpClient::Connect("127.0.0.1", ss.server->port());
  ASSERT_TRUE(client.ok());

  auto reg = client->Post("/continuous/register",
                          "{\"query\":[50],\"epsilon\":1e9}");
  ASSERT_TRUE(reg.ok());
  ASSERT_EQ(reg->status, 200) << reg->body;
  const std::string id_body =
      "{\"id\":" + std::to_string(static_cast<std::uint64_t>(
                       Parse(reg->body).Find("id")->AsNumber())) +
      "}";

  seqdb::Sequence fresh;
  for (int i = 0; i < 100; ++i) fresh.push_back(0.5 * i);
  ASSERT_EQ(client->Post("/append", SequenceBody("values", fresh))->status,
            200);

  seqdb::SequenceDatabase single;
  single.Add(fresh);
  const std::vector<core::Match> all =
      core::SeqScan(single, std::vector<Value>{50}, 1e9);
  ASSERT_EQ(all.size(), 5050u);

  auto poll = client->Post("/continuous/poll", id_body);
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->status, 200);
  const JsonValue body = Parse(poll->body);
  EXPECT_EQ(body.Find("count")->AsNumber(), 4096.0);
  EXPECT_EQ(body.Find("delivered")->AsNumber(), 4096.0);
  EXPECT_EQ(body.Find("dropped")->AsNumber(), 954.0);
  const auto& matches = body.Find("matches")->AsArray();
  ASSERT_EQ(matches.size(), 4096u);
  for (std::size_t i = 0; i < matches.size(); ++i) {
    const core::Match& want = all[954 + i];
    const JsonValue& got = matches[i];
    ASSERT_EQ(got.Find("seq")->AsNumber(), static_cast<double>(db.size()))
        << "match " << i;
    ASSERT_EQ(got.Find("start")->AsNumber(), static_cast<double>(want.start))
        << "match " << i;
    ASSERT_EQ(got.Find("len")->AsNumber(), static_cast<double>(want.len))
        << "match " << i;
    ASSERT_EQ(got.Find("distance")->AsNumber(), want.distance)
        << "match " << i;
  }

  poll = client->Post("/continuous/poll", id_body);
  ASSERT_TRUE(poll.ok());
  const JsonValue again = Parse(poll->body);
  EXPECT_EQ(again.Find("count")->AsNumber(), 0.0);
  EXPECT_EQ(again.Find("delivered")->AsNumber(), 4096.0);
  EXPECT_EQ(again.Find("dropped")->AsNumber(), 954.0);
}

// Every /stats body up to its per-tier entries, and the same body from
// the end of the tier list on.
constexpr char kStatsHead[] =
    R"({"draining":false,"index":{"disk":false,"index_bytes":0,)"
    R"("kind":"ST_C","mapped_bytes":0,"nodes":0,"occurrences":0,)"
    R"("resident_bytes":0,"sequences":0,"tiers":[{"elements":0,)"
    R"("first_seq":0,"index_bytes":0,"memtable":false,"nodes":0,)"
    R"("occurrences":0,"on_disk":false,"sequences":0})";
constexpr char kStatsTail[] =
    R"(]},"queue":{"admitted":0,"capacity":0,"depth":0,)"
    R"("high_water":0,"rejected":0},"requests":{"completed":0,)"
    R"("connections":0,"partials":0,"protocol_errors":0,"timeouts":0,)"
    R"("total":0},"scheduler":{"workers":0},"search":{"answers":0,)"
    R"("branches_pruned":0,"cancelled":0,"candidates":0,)"
    R"("cells_computed":0,"endpoint_rejections":0,"exact_dtw_calls":0,)"
    R"("lb_invocations":0,"lb_pruned":0,"nodes_visited":0,)"
    R"("rows_pushed":0,"scan_rows":0,"tasks_executed":0,)"
    R"("tasks_stolen":0,"unshared_rows":0})";

// The bodies the search goldens do not cover, pinned up to their numbers:
// keys in ascending byte order at every level, every field present.
TEST(ServerStreamingTest, ResponseBodiesKeepTheirShape) {
  const seqdb::SequenceDatabase db = TestDb();
  {
    core::IndexOptions options;
    options.kind = core::IndexKind::kCategorized;
    options.num_categories = 8;
    auto index = core::Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    IndexHandle handle(std::move(*index));
    auto server = Server::Start(&handle, {});
    ASSERT_TRUE(server.ok());
    auto client = HttpClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto stats = client->Get("/stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(ZeroNumbers(stats->body),
              std::string(kStatsHead) + kStatsTail + "}");
  }
  {
    // A disk tier adds its mapped bytes.
    core::IndexOptions options;
    options.kind = core::IndexKind::kCategorized;
    options.num_categories = 8;
    options.disk_path = testing::TempDir() + "/response_shape";
    auto index = core::Index::Build(&db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    IndexHandle handle(std::move(*index));
    auto server = Server::Start(&handle, {});
    ASSERT_TRUE(server.ok());
    auto client = HttpClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto stats = client->Get("/stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(ZeroNumbers(stats->body),
              R"({"draining":false,"index":{"disk":true,"index_bytes":0,)"
              R"("kind":"ST_C","mapped_bytes":0,"nodes":0,"occurrences":0,)"
              R"("resident_bytes":0,"sequences":0,"tiers":[{"elements":0,)"
              R"("first_seq":0,"index_bytes":0,"mapped_bytes":0,)"
              R"("memtable":false,"nodes":0,"occurrences":0,)"
              R"("on_disk":true,"sequences":0})" +
                  std::string(kStatsTail) + "}");
  }

  StreamingServer ss = StartStreaming(&db, /*memtable_max=*/2);
  auto client = HttpClient::Connect("127.0.0.1", ss.server->port());
  ASSERT_TRUE(client.ok());
  std::vector<Value> pattern;
  for (int i = 0; i < 10; ++i) pattern.push_back(200.0 + 5.0 * i);
  const std::vector<Value> q(pattern.begin(), pattern.begin() + 5);
  auto reg = client->Post("/continuous/register",
                          SequenceBody("query", q, ",\"epsilon\":0.01"));
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(ZeroNumbers(reg->body), R"({"id":0})");
  auto appended = client->Post("/append", SequenceBody("values", pattern));
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(ZeroNumbers(appended->body), R"({"seq":0})");
  auto poll = client->Post(
      "/continuous/poll",
      "{\"id\":" +
          std::to_string(static_cast<std::uint64_t>(
              Parse(reg->body).Find("id")->AsNumber())) +
          "}");
  ASSERT_TRUE(poll.ok());
  ASSERT_GE(Parse(poll->body).Find("count")->AsNumber(), 1.0);
  EXPECT_EQ(ZeroNumbers(poll->body),
            R"({"count":0,"delivered":0,"dropped":0,"id":0,"matches":[)"
            R"({"distance":0,"len":0,"seq":0,"start":0}]})");
  auto stats = client->Get("/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ZeroNumbers(stats->body),
            std::string(kStatsHead) +
                R"(,{"elements":0,"first_seq":0,"index_bytes":0,)"
                R"("memtable":true,"nodes":0,"occurrences":0,)"
                R"("on_disk":false,"sequences":0})" +
                kStatsTail +
                R"(,"tiered":{"appended_sequences":0,"appends":0,)"
                R"("continuous_queries":0,"memtable_sequences":0,)"
                R"("merge_error":"","merges_cancelled":0,)"
                R"("merges_completed":0,"merges_failed":0,)"
                R"("pending_merges":0,"sealed_tiers":0}})");
}

TEST(ServerStreamingTest, SearchesDuringAppendsSeeConsistentSnapshots) {
  // Interleave appends and searches on one connection while merges are
  // owed: every response must reflect a fully published snapshot (the
  // sequence count only grows, and matches never name unknown ids).
  const seqdb::SequenceDatabase db = TestDb(3);
  StreamingServer ss = StartStreaming(&db, /*memtable_max=*/1);
  auto client = HttpClient::Connect("127.0.0.1", ss.server->port());
  ASSERT_TRUE(client.ok());

  const std::span<const Value> sub = db.Subsequence(0, 2, 6);
  const std::vector<Value> q(sub.begin(), sub.end());
  std::size_t last_sequences = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<Value> seq;
    for (int i = 0; i < 12; ++i) {
      seq.push_back(static_cast<Value>(round * 10 + i));
    }
    ASSERT_EQ(client->Post("/append", SequenceBody("values", seq))->status,
              200);
    auto search = client->Post(
        "/search", SequenceBody("query", q, ",\"epsilon\":2"));
    ASSERT_TRUE(search.ok());
    ASSERT_EQ(search->status, 200);
    auto stats = client->Get("/stats");
    ASSERT_TRUE(stats.ok());
    const JsonValue stats_body = Parse(stats->body);
    const auto sequences = static_cast<std::size_t>(
        stats_body.Find("index")->Find("sequences")->AsNumber());
    EXPECT_GE(sequences, last_sequences);
    last_sequences = sequences;
  }
  ss.tiered->WaitForMerges();
  EXPECT_EQ(ss.tiered->Snapshot()->total_sequences(), db.size() + 6);
}

}  // namespace
}  // namespace tswarp::server
