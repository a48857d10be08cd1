// Mixed ingest + query load generator for tswarpd's streaming mode: an
// in-process server over a TieredIndex takes concurrent /append traffic,
// /search traffic, and one HTTP continuous query, for a fixed duration.
//
//   ingest_query [--duration S] [--appenders N] [--searchers N]
//                [--memtable N] [--sealed N] [--quick] [--json]
//
// Every appender streams sequences drawn from a fixed seed; every Kth
// appended sequence embeds a sentinel pattern the continuous query is
// registered for, so the expected delivery count is known exactly. The
// run FAILS (exit 1) on any 5xx/transport error, on any lost or duplicate
// continuous delivery, or on a dropped buffered match — the CI
// ingest-smoke contract.
//
// --json writes BENCH_ingest_query.json (see report_json.h) with ingest/
// query throughput and latency percentiles for cross-session diffing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "report_json.h"
#include "core/tiered_index.h"
#include "datagen/generators.h"
#include "seqdb/sequence_database.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"
#include "server/server.h"

namespace tswarp {
namespace {

using Clock = std::chrono::steady_clock;

/// Every kSentinelEvery-th appended sequence carries this exact pattern;
/// the continuous query registers for it with a tiny epsilon, so matches
/// from ordinary random-walk traffic are impossible and the expected
/// delivery count is simply the number of sentinel appends.
constexpr int kSentinelEvery = 5;
const std::vector<Value>& SentinelPattern() {
  static const std::vector<Value> kPattern = {900, 930, 960, 990,
                                              1020, 1050, 1080, 1110};
  return kPattern;
}

std::string ValuesBody(const std::vector<Value>& values) {
  std::string body = "{\"values\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body.push_back(',');
    server::AppendJsonNumber(&body, values[i]);
  }
  body += "]}";
  return body;
}

std::string QueryBody(const std::vector<Value>& query, double epsilon) {
  std::string body = "{\"query\":[";
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (i != 0) body.push_back(',');
    server::AppendJsonNumber(&body, query[i]);
  }
  body += "],\"epsilon\":";
  server::AppendJsonNumber(&body, epsilon);
  body.push_back('}');
  return body;
}

double PercentileNs(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t rank =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

int Run(int argc, char** argv) {
  const bool json = bench::StripJsonFlag(&argc, argv);
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const double duration_s = static_cast<double>(
      bench::FlagValue(argc, argv, "--duration", quick ? 2 : 5));
  const long appenders = bench::FlagValue(argc, argv, "--appenders", 2);
  const long searchers = bench::FlagValue(argc, argv, "--searchers", 3);
  const long memtable = bench::FlagValue(argc, argv, "--memtable", 4);
  const long sealed = bench::FlagValue(argc, argv, "--sealed", 2);

  datagen::RandomWalkOptions walk;
  walk.num_sequences = 40;
  walk.avg_length = 96;
  walk.length_jitter = 12;
  walk.seed = 9;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(walk);

  core::TieredOptions tiered_options;
  tiered_options.index.kind = core::IndexKind::kCategorized;
  tiered_options.index.num_categories = 12;
  tiered_options.memtable_max_sequences = static_cast<std::size_t>(memtable);
  tiered_options.max_sealed_tiers = static_cast<std::size_t>(sealed);
  tiered_options.merge_in_background = true;
  auto tiered = core::TieredIndex::Create(&db, tiered_options);
  if (!tiered.ok()) {
    std::fprintf(stderr, "tiered create failed: %s\n",
                 tiered.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<core::TieredIndex> shared = std::move(*tiered);
  server::IndexHandle handle(shared);
  server::ServerOptions server_options;
  server_options.connection_threads =
      static_cast<std::size_t>(appenders + searchers + 1);
  auto server = server::Server::Start(&handle, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const int port = (*server)->port();

  // Register the continuous sentinel query over the wire.
  auto control = server::HttpClient::Connect("127.0.0.1", port);
  if (!control.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  auto reg = control->Post("/continuous/register",
                           QueryBody(SentinelPattern(), 0.01));
  if (!reg.ok() || reg->status != 200) {
    std::fprintf(stderr, "continuous register failed\n");
    return 1;
  }
  auto reg_body = server::ParseJson(reg->body);
  const std::string id_body =
      "{\"id\":" + std::to_string(static_cast<std::uint64_t>(
                       reg_body->Find("id")->AsNumber())) +
      "}";

  std::atomic<bool> done{false};
  std::atomic<std::size_t> appends_ok{0}, appends_err{0};
  std::atomic<std::size_t> sentinels_sent{0};
  std::atomic<std::size_t> searches_ok{0}, searches_err{0};
  std::vector<std::vector<double>> append_lat(
      static_cast<std::size_t>(appenders));
  std::vector<std::vector<double>> search_lat(
      static_cast<std::size_t>(searchers));

  std::vector<std::thread> pool;
  for (long a = 0; a < appenders; ++a) {
    pool.emplace_back([&, a] {
      auto client = server::HttpClient::Connect("127.0.0.1", port);
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(a));
      std::normal_distribution<double> step(0.0, 1.0);
      int n = 0;
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<Value> seq;
        if (++n % kSentinelEvery == 0) {
          seq = SentinelPattern();
          sentinels_sent.fetch_add(1, std::memory_order_relaxed);
        } else {
          double x = 0;
          for (int i = 0; i < 48; ++i) {
            x += step(rng);
            seq.push_back(x);
          }
        }
        const Clock::time_point t0 = Clock::now();
        if (!client.ok()) {
          client = server::HttpClient::Connect("127.0.0.1", port);
          if (!client.ok()) {
            appends_err.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        }
        auto response = client->Post("/append", ValuesBody(seq));
        if (response.ok() && response->status == 200) {
          appends_ok.fetch_add(1, std::memory_order_relaxed);
          append_lat[static_cast<std::size_t>(a)].push_back(
              static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count()));
        } else {
          appends_err.fetch_add(1, std::memory_order_relaxed);
          if (!response.ok()) {
            client =
                StatusOr<server::HttpClient>(Status::IOError("reconnect"));
          }
        }
      }
    });
  }
  for (long s = 0; s < searchers; ++s) {
    pool.emplace_back([&, s] {
      auto client = server::HttpClient::Connect("127.0.0.1", port);
      const std::span<const Value> sub =
          db.Subsequence(static_cast<SeqId>(s % 4), 0, 10);
      const std::string body =
          QueryBody(std::vector<Value>(sub.begin(), sub.end()), 2.5);
      while (!done.load(std::memory_order_relaxed)) {
        const Clock::time_point t0 = Clock::now();
        if (!client.ok()) {
          client = server::HttpClient::Connect("127.0.0.1", port);
          if (!client.ok()) {
            searches_err.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        }
        auto response = client->Post("/search", body);
        if (response.ok() &&
            (response->status == 200 || response->status == 429)) {
          if (response->status == 200) {
            searches_ok.fetch_add(1, std::memory_order_relaxed);
            search_lat[static_cast<std::size_t>(s)].push_back(
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count()));
          }
        } else {
          searches_err.fetch_add(1, std::memory_order_relaxed);
          if (!response.ok()) {
            client =
                StatusOr<server::HttpClient>(Status::IOError("reconnect"));
          }
        }
      }
    });
  }

  // Poll the continuous query throughout so its bounded buffer never
  // overflows; every delivery names the sentinel pattern.
  std::atomic<std::size_t> deliveries{0};
  std::atomic<std::size_t> dropped{0};
  std::atomic<bool> poll_error{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto response = control->Post("/continuous/poll", id_body);
      if (!response.ok() || response->status != 200) {
        std::fprintf(stderr, "poller: poll failed: %s status=%d\n",
                     response.ok() ? "(http)"
                                   : response.status().ToString().c_str(),
                     response.ok() ? response->status : -1);
        poll_error.store(true, std::memory_order_relaxed);
        return;
      }
      auto body = server::ParseJson(response->body);
      if (!body.ok()) {
        poll_error.store(true, std::memory_order_relaxed);
        return;
      }
      deliveries.store(
          static_cast<std::size_t>(body->Find("delivered")->AsNumber()),
          std::memory_order_relaxed);
      dropped.store(
          static_cast<std::size_t>(body->Find("dropped")->AsNumber()),
          std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  poller.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Final drain: merges settle, then one last poll picks up everything
  // delivered after the poller stopped. Fresh connection: the drain can
  // outlast the server's 5s keep-alive idle limit on the old one.
  shared->WaitForMerges();
  std::size_t final_deliveries = deliveries.load();
  std::size_t final_dropped = dropped.load();
  control = server::HttpClient::Connect("127.0.0.1", port);
  if (control.ok()) {
    auto response = control->Post("/continuous/poll", id_body);
    if (response.ok() && response->status == 200) {
      auto body = server::ParseJson(response->body);
      if (body.ok()) {
        final_deliveries =
            static_cast<std::size_t>(body->Find("delivered")->AsNumber());
        final_dropped =
            static_cast<std::size_t>(body->Find("dropped")->AsNumber());
      }
    } else {
      std::fprintf(stderr, "final poll failed: %s status=%d\n",
                   response.ok() ? "(http)"
                                 : response.status().ToString().c_str(),
                   response.ok() ? response->status : -1);
      poll_error.store(true, std::memory_order_relaxed);
    }
  } else {
    std::fprintf(stderr, "final poll reconnect failed: %s\n",
                 control.status().ToString().c_str());
    poll_error.store(true, std::memory_order_relaxed);
  }
  (*server)->Shutdown();

  // Each sentinel append delivers exactly one match (the verbatim pattern;
  // epsilon 0.01 admits no partial alignment of the 30-unit ramp), so
  // lost deliveries show up as final_deliveries < sentinels and duplicate
  // deliveries as >.
  const std::size_t sentinels = sentinels_sent.load();
  const bool deliveries_ok = !poll_error.load() && final_dropped == 0 &&
                            final_deliveries == sentinels;

  std::vector<double> append_all, search_all;
  for (const auto& v : append_lat) {
    append_all.insert(append_all.end(), v.begin(), v.end());
  }
  for (const auto& v : search_lat) {
    search_all.insert(search_all.end(), v.begin(), v.end());
  }
  std::sort(append_all.begin(), append_all.end());
  std::sort(search_all.begin(), search_all.end());
  const core::TieredStats stats = shared->Stats();

  std::printf("ingest_query: %.1fs, %ld appenders + %ld searchers "
              "(memtable %ld, sealed %ld)\n",
              duration_s, appenders, searchers, memtable, sealed);
  std::printf("  appends %zu ok / %zu err (%.1f/s), %zu sentinels\n",
              appends_ok.load(), appends_err.load(),
              static_cast<double>(appends_ok.load()) / wall_s, sentinels);
  std::printf("  searches %zu ok / %zu err (%.1f/s)\n", searches_ok.load(),
              searches_err.load(),
              static_cast<double>(searches_ok.load()) / wall_s);
  std::printf("  append p50 %.2f ms p99 %.2f ms; search p50 %.2f ms "
              "p99 %.2f ms\n",
              PercentileNs(append_all, 0.5) / 1e6,
              PercentileNs(append_all, 0.99) / 1e6,
              PercentileNs(search_all, 0.5) / 1e6,
              PercentileNs(search_all, 0.99) / 1e6);
  std::printf("  continuous: %zu delivered, %zu dropped (expected >= %zu)\n",
              final_deliveries, final_dropped, sentinels);
  std::printf("  tiers %zu, merges %llu completed, %zu appended\n",
              stats.tiers.size(),
              static_cast<unsigned long long>(stats.merges_completed),
              stats.appended_sequences);

  if (json) {
    bench::JsonReport report("ingest_query");
    const bench::JsonReport::Counters counters = {
        {"appends", static_cast<double>(appends_ok.load())},
        {"append_errors", static_cast<double>(appends_err.load())},
        {"searches", static_cast<double>(searches_ok.load())},
        {"search_errors", static_cast<double>(searches_err.load())},
        {"ingest_rate", static_cast<double>(appends_ok.load()) / wall_s},
        {"query_rate", static_cast<double>(searches_ok.load()) / wall_s},
        {"sentinels", static_cast<double>(sentinels)},
        {"deliveries", static_cast<double>(final_deliveries)},
        {"dropped", static_cast<double>(final_dropped)},
        {"merges_completed", static_cast<double>(stats.merges_completed)},
    };
    report.Add("append_p50", PercentileNs(append_all, 0.5), counters);
    report.Add("append_p99", PercentileNs(append_all, 0.99));
    report.Add("search_p50", PercentileNs(search_all, 0.5));
    report.Add("search_p99", PercentileNs(search_all, 0.99));
    if (!report.Write()) return 1;
  }

  if (appends_ok.load() == 0 || appends_err.load() != 0 ||
      searches_err.load() != 0 || !deliveries_ok) {
    std::fprintf(stderr,
                 "ingest_query: FAILED (appends ok=%zu err=%zu, search "
                 "err=%zu, delivered=%zu/%zu, dropped=%zu, poll_error=%d)\n",
                 appends_ok.load(), appends_err.load(), searches_err.load(),
                 final_deliveries, sentinels, final_dropped,
                 static_cast<int>(poll_error.load()));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
