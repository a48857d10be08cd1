// HTTP/JSON protocol conformance tests for tswarpd, pinned by a golden
// corpus: each tests/data/server/NAME.request file holds the raw bytes a
// client sends, NAME.response the exact bytes the server must answer —
// malformed JSON, unknown fields, oversized bodies, invalid band/k, bad
// framing, all as structured {"error":{code,message}} bodies, plus two
// successful searches (a serial range query with its stats, and a k-NN
// query) whose bodies pin the match and stats serialization: key order,
// number formatting and field set. Responses deliberately carry no Date
// header, so they are byte-reproducible.
//
// Regenerate the .response files after an intentional protocol change:
//   TSWARP_REGEN_GOLDEN=1 ./server_protocol_test

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "server/client.h"
#include "server/http.h"
#include "server/index_handle.h"
#include "server/json.h"
#include "server/server.h"

namespace tswarp::server {
namespace {

std::string DataDir() { return std::string(TSWARP_TEST_DATA_DIR) + "/server"; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

/// The corpus runs against a fixed server configuration: a sparse index
/// (so the band-vs-sparse rule is observable) over a seeded database.
/// The error and static cases' response bytes depend only on the
/// protocol; the two search cases also depend on that fixed index, and a
/// serial search over it is deterministic.
class ServerProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::RandomWalkOptions walk;
    walk.num_sequences = 8;
    walk.avg_length = 30;
    walk.seed = 47;
    db_ = new seqdb::SequenceDatabase(datagen::GenerateRandomWalks(walk));
    core::IndexOptions options;
    options.kind = core::IndexKind::kSparse;
    options.num_categories = 8;
    auto index = core::Index::Build(db_, options);
    ASSERT_TRUE(index.ok());
    handle_ = new IndexHandle(std::move(*index));
    auto server = Server::Start(handle_, ServerOptions{});
    ASSERT_TRUE(server.ok());
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    delete handle_;
    delete db_;
    server_ = nullptr;
    handle_ = nullptr;
    db_ = nullptr;
  }

  void RunGolden(const std::string& name) {
    const std::string request = ReadFile(DataDir() + "/" + name + ".request");
    ASSERT_FALSE(request.empty());
    auto client = HttpClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto response = client->Roundtrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const std::string golden_path = DataDir() + "/" + name + ".response";
    if (std::getenv("TSWARP_REGEN_GOLDEN") != nullptr) {
      WriteFile(golden_path, response->raw);
      GTEST_SKIP() << "regenerated " << golden_path;
    }
    EXPECT_EQ(response->raw, ReadFile(golden_path)) << "case " << name;
  }

  static seqdb::SequenceDatabase* db_;
  static IndexHandle* handle_;
  static Server* server_;
};

seqdb::SequenceDatabase* ServerProtocolTest::db_ = nullptr;
IndexHandle* ServerProtocolTest::handle_ = nullptr;
Server* ServerProtocolTest::server_ = nullptr;

TEST_F(ServerProtocolTest, Healthz) { RunGolden("healthz"); }
TEST_F(ServerProtocolTest, NotFound) { RunGolden("not_found"); }
TEST_F(ServerProtocolTest, MethodNotAllowed) {
  RunGolden("method_not_allowed");
}
TEST_F(ServerProtocolTest, BadJson) { RunGolden("bad_json"); }
TEST_F(ServerProtocolTest, UnknownField) { RunGolden("unknown_field"); }
// The node-summary screen's knobs are gone: old clients get a clear 400
// instead of a silently ignored field.
TEST_F(ServerProtocolTest, RemovedUseNodeSummaries) {
  RunGolden("removed_use_node_summaries");
}
TEST_F(ServerProtocolTest, RemovedApproxFactor) {
  RunGolden("removed_approx_factor");
}
TEST_F(ServerProtocolTest, MissingQuery) { RunGolden("missing_query"); }
TEST_F(ServerProtocolTest, BothEpsilonAndK) {
  RunGolden("both_epsilon_and_k");
}
TEST_F(ServerProtocolTest, InvalidKZero) { RunGolden("invalid_k_zero"); }
TEST_F(ServerProtocolTest, InvalidKFractional) {
  RunGolden("invalid_k_fractional");
}
TEST_F(ServerProtocolTest, InvalidBandRange) {
  RunGolden("invalid_band_range");
}
TEST_F(ServerProtocolTest, InvalidBandSparse) {
  RunGolden("invalid_band_sparse");
}
TEST_F(ServerProtocolTest, InvalidEpsilon) { RunGolden("invalid_epsilon"); }
TEST_F(ServerProtocolTest, BodyTooLarge) { RunGolden("body_too_large"); }
TEST_F(ServerProtocolTest, TransferEncoding) {
  RunGolden("transfer_encoding");
}
TEST_F(ServerProtocolTest, BadRequestLine) { RunGolden("bad_request_line"); }
TEST_F(ServerProtocolTest, HeaderSpaceSmuggle) {
  RunGolden("header_space_smuggle");
}
TEST_F(ServerProtocolTest, SearchRangeWithStats) {
  RunGolden("search_range_stats");
}
TEST_F(ServerProtocolTest, SearchKnn) { RunGolden("search_knn"); }

// The summary screen's stats, the steal probes and the prefix-replay
// count are gone from per-tier, per-query and scheduler reports.
TEST_F(ServerProtocolTest, StatsOmitRemovedCounters) {
  auto client = HttpClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client->Get("/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->status, 200);
  auto root = ParseJson(stats->body);
  ASSERT_TRUE(root.ok()) << stats->body;
  const JsonValue* index = root->Find("index");
  ASSERT_NE(index, nullptr) << stats->body;
  const JsonValue* tiers = index->Find("tiers");
  ASSERT_NE(tiers, nullptr) << stats->body;
  ASSERT_FALSE(tiers->AsArray().empty());
  for (const JsonValue& tier : tiers->AsArray()) {
    EXPECT_NE(tier.Find("nodes"), nullptr);
    EXPECT_EQ(tier.Find("has_summaries"), nullptr);
  }
  const JsonValue* scheduler = root->Find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_NE(scheduler->Find("workers"), nullptr);
  EXPECT_EQ(scheduler->Find("steal_attempts"), nullptr);

  auto search = client->Post(
      "/search", R"({"query":[1,2],"epsilon":1,"include_stats":true})");
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  ASSERT_EQ(search->status, 200) << search->body;
  auto body = ParseJson(search->body);
  ASSERT_TRUE(body.ok()) << search->body;
  const JsonValue* query_stats = body->Find("stats");
  ASSERT_NE(query_stats, nullptr) << search->body;
  EXPECT_NE(query_stats->Find("rows_pushed"), nullptr);
  for (const char* removed : {"steal_attempts", "replayed_rows",
                              "summary_lb_invocations",
                              "nodes_pruned_by_summary"}) {
    EXPECT_EQ(query_stats->Find(removed), nullptr) << removed;
  }
}

// --- JSON layer unit tests -------------------------------------------------

TEST(ServerJsonTest, ParsesAndDumpsDeterministically) {
  auto v = ParseJson(R"({"b":[1,2.5,-3e2],"a":{"x":true,"y":null}})");
  ASSERT_TRUE(v.ok());
  // Object members iterate in sorted key order.
  ASSERT_EQ(v->AsObject().size(), 2u);
  EXPECT_EQ(v->AsObject().begin()->first, "a");
  EXPECT_TRUE(v->Find("a")->Find("x")->AsBool());
  EXPECT_TRUE(v->Find("a")->Find("y")->is_null());
  const std::vector<JsonValue>& b = v->Find("b")->AsArray();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2].AsNumber(), -300.0);
  // The writer emits compact JSON with numbers in shortest form.
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("a").BeginObject().Key("x").Bool(true).Key("y");
  w.String("s\n").EndObject().Key("b").BeginArray();
  for (const JsonValue& e : b) w.Number(e.AsNumber());
  w.EndArray().EndObject();
  EXPECT_EQ(out, R"({"a":{"x":true,"y":"s\n"},"b":[1,2.5,-300]})");
}

TEST(ServerJsonTest, RejectsProtocolHostileInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{}extra").ok());            // Trailing garbage.
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}").ok());  // Duplicate key.
  EXPECT_FALSE(ParseJson("1e999").ok());              // Non-finite.
  EXPECT_FALSE(ParseJson("\"\x01\"").ok());  // Raw control char in string.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(ParseJson(deep).ok());  // Depth cap, not a stack overflow.
}

TEST(ServerJsonTest, NumberFormattingIsCanonical) {
  std::string out;
  AppendJsonNumber(&out, -0.0);
  EXPECT_EQ(out, "0");
  out.clear();
  AppendJsonNumber(&out, 2.5);
  EXPECT_EQ(out, "2.5");
  out.clear();
  AppendJsonNumber(&out, 1234567.0);
  EXPECT_EQ(out, "1234567");
  // Round trip: dump -> parse -> dump is a fixed point.
  const double tricky = 0.1 + 0.2;
  out.clear();
  AppendJsonNumber(&out, tricky);
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsNumber(), tricky);
}

// --- HTTP layer unit tests -------------------------------------------------

TEST(ServerHttpTest, ParsesPipelinedRequestsIncrementally) {
  const std::string wire =
      "POST /search HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /stats HTTP/1.1\r\n\r\n";
  HttpLimits limits;
  HttpRequest first;
  std::size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(wire, limits, &first, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(first.method, "POST");
  EXPECT_EQ(first.body, "hi");
  HttpRequest second;
  std::size_t consumed2 = 0;
  ASSERT_EQ(ParseHttpRequest(std::string_view(wire).substr(consumed), limits,
                             &second, &consumed2),
            HttpParseStatus::kOk);
  EXPECT_EQ(second.method, "GET");
  EXPECT_EQ(second.target, "/stats");

  // A truncated prefix of a valid request is always kIncomplete.
  for (std::size_t cut = 0; cut < consumed; ++cut) {
    HttpRequest partial;
    std::size_t unused = 0;
    EXPECT_EQ(ParseHttpRequest(wire.substr(0, cut), limits, &partial,
                               &unused),
              HttpParseStatus::kIncomplete)
        << "cut at " << cut;
  }
}

TEST(ServerHttpTest, EnforcesLimits) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 8;
  HttpRequest request;
  std::size_t consumed = 0;
  const std::string big_header =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'a') + "\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(big_header, limits, &request, &consumed),
            HttpParseStatus::kHeadersTooLarge);
  EXPECT_EQ(ParseHttpRequest("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n",
                             limits, &request, &consumed),
            HttpParseStatus::kBodyTooLarge);
  EXPECT_EQ(ParseHttpRequest(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                limits, &request, &consumed),
            HttpParseStatus::kUnsupported);
}

TEST(ServerHttpTest, SerializedResponsesAreDateless) {
  HttpResponse response;
  response.status = 200;
  response.AddHeader("Content-Type", "application/json");
  response.body = "{}";
  const std::string wire = response.Serialize(true);
  EXPECT_EQ(wire,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}");
  EXPECT_EQ(wire.find("Date:"), std::string::npos);
}

}  // namespace
}  // namespace tswarp::server
