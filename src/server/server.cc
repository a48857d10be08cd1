#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/task_scheduler.h"
#include "server/json.h"

namespace tswarp::server {

namespace {

/// One admitted search: the parsed request plus the reply slot the
/// connection thread is blocked on. The CancelToken lives here so its
/// deadline covers queue wait as well as execution (armed at admission).
struct SearchJob {
  std::vector<Value> query;
  Value epsilon = 0;
  std::size_t k = 0;  // > 0 selects k-NN; 0 selects range search.
  core::QueryOptions opts;
  bool include_stats = false;
  bool has_deadline = false;
  CancelToken cancel;
  std::promise<HttpResponse> reply;
};

using JobPtr = std::unique_ptr<SearchJob>;

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.AddHeader("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(int status, std::string_view code,
                           std::string_view message) {
  return JsonResponse(status, ErrorBody(code, message));
}

JsonValue StatsToJson(const core::SearchStats& s) {
  JsonValue obj = JsonValue::MakeObject();
  const auto num = [](std::uint64_t v) {
    return JsonValue::MakeNumber(static_cast<double>(v));
  };
  obj.Set("answers", num(s.answers));
  obj.Set("branches_pruned", num(s.branches_pruned));
  obj.Set("cancelled", num(s.cancelled));
  obj.Set("candidates", num(s.candidates));
  obj.Set("cells_computed", num(s.cells_computed));
  obj.Set("endpoint_rejections", num(s.endpoint_rejections));
  obj.Set("exact_dtw_calls", num(s.exact_dtw_calls));
  obj.Set("lb_invocations", num(s.lb_invocations));
  obj.Set("lb_pruned", num(s.lb_pruned));
  obj.Set("nodes_pruned_by_summary", num(s.nodes_pruned_by_summary));
  obj.Set("nodes_visited", num(s.nodes_visited));
  obj.Set("replayed_rows", num(s.replayed_rows));
  obj.Set("rows_pushed", num(s.rows_pushed));
  obj.Set("summary_lb_invocations", num(s.summary_lb_invocations));
  obj.Set("steal_attempts", num(s.steal_attempts));
  obj.Set("tasks_executed", num(s.tasks_executed));
  obj.Set("tasks_stolen", num(s.tasks_stolen));
  obj.Set("unshared_rows", num(s.unshared_rows));
  return obj;
}

/// True when `v` is a non-negative integral number <= `max`.
bool AsCount(const JsonValue& v, double max, double* out) {
  if (!v.is_number()) return false;
  const double d = v.AsNumber();
  if (d < 0 || d != std::floor(d) || d > max) return false;
  *out = d;
  return true;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

JsonValue MatchesToJson(std::span<const core::Match> matches) {
  JsonValue arr = JsonValue::MakeArray();
  for (const core::Match& m : matches) {
    JsonValue obj = JsonValue::MakeObject();
    obj.Set("distance", JsonValue::MakeNumber(m.distance));
    obj.Set("len", JsonValue::MakeNumber(static_cast<double>(m.len)));
    obj.Set("seq", JsonValue::MakeNumber(static_cast<double>(m.seq)));
    obj.Set("start", JsonValue::MakeNumber(static_cast<double>(m.start)));
    arr.MutableArray()->push_back(std::move(obj));
  }
  return arr;
}

/// Per-registration delivery buffer of a continuous query served over
/// HTTP: the TieredIndex callback pushes new matches here (bounded;
/// overflow drops the oldest and counts), and /continuous/poll drains it.
/// shared_ptr-owned by both the callback closure and the server map, so a
/// late callback after unregister/shutdown is harmless.
struct ContinuousChannel {
  static constexpr std::size_t kBufferCap = 4096;

  std::mutex mu;
  std::deque<core::Match> buffer;
  std::uint64_t delivered = 0;  // Matches handed to clients via poll.
  std::uint64_t dropped = 0;    // Overflowed matches (client too slow).

  void Push(const std::vector<core::Match>& matches) {
    std::lock_guard<std::mutex> lock(mu);
    for (const core::Match& m : matches) {
      if (buffer.size() >= kBufferCap) {
        buffer.pop_front();
        ++dropped;
      }
      buffer.push_back(m);
    }
  }
};

}  // namespace

std::string ErrorBody(std::string_view code, std::string_view message) {
  JsonValue err = JsonValue::MakeObject();
  err.Set("code", JsonValue::MakeString(std::string(code)));
  err.Set("message", JsonValue::MakeString(std::string(message)));
  JsonValue root = JsonValue::MakeObject();
  root.Set("error", std::move(err));
  return root.Dump();
}

std::string SearchResponseBody(std::string_view status_word,
                               std::span<const core::Match> matches,
                               const core::SearchStats* stats) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("count",
           JsonValue::MakeNumber(static_cast<double>(matches.size())));
  root.Set("matches", MatchesToJson(matches));
  if (stats != nullptr) root.Set("stats", StatsToJson(*stats));
  root.Set("status", JsonValue::MakeString(std::string(status_word)));
  return root.Dump();
}

struct Server::Impl {
  IndexHandle* index = nullptr;
  ServerOptions options;
  int listen_fd = -1;
  int bound_port = 0;

  std::atomic<bool> draining{false};
  std::unique_ptr<BoundedQueue<JobPtr>> jobs;
  std::unique_ptr<BoundedQueue<int>> conns;

  std::thread accept_thread;
  std::thread dispatch_thread;
  std::vector<std::thread> conn_threads;
  std::once_flag shutdown_once;

  mutable std::mutex counters_mu;
  ServerCounters counters;

  // HTTP-registered continuous queries, keyed by the TieredIndex query id.
  std::mutex continuous_mu;
  std::map<std::uint64_t, std::shared_ptr<ContinuousChannel>> continuous;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void CountProtocolError() {
    std::lock_guard<std::mutex> lock(counters_mu);
    ++counters.protocol_errors;
  }

  Status Bind() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.address.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad bind address: " + options.address);
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Status::IOError(std::string("bind: ") + std::strerror(errno));
    }
    if (::listen(listen_fd, 128) < 0) {
      return Status::IOError(std::string("listen: ") + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      return Status::IOError(std::string("getsockname: ") +
                             std::strerror(errno));
    }
    bound_port = ntohs(bound.sin_port);
    return Status::OK();
  }

  void AcceptLoop() {
    while (!draining.load(std::memory_order_relaxed)) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        ++counters.connections;
      }
      if (!conns->TryPush(fd)) {
        // Every handler thread is busy and the hand-off buffer is full:
        // refuse at the door rather than let the connection hang.
        const HttpResponse resp =
            ErrorResponse(503, "overloaded", "no connection slots available");
        SendAll(fd, resp.Serialize(false));
        ::close(fd);
      }
    }
  }

  void ConnLoop() {
    int fd = -1;
    while (conns->Pop(&fd)) {
      HandleConnection(fd);
      ::close(fd);
    }
  }

  void HandleConnection(int fd) {
    static constexpr int kPollMs = 100;
    static constexpr int kIdleLimitMs = 5000;
    std::string buffer;
    int idle_ms = 0;
    while (true) {
      HttpRequest request;
      std::size_t consumed = 0;
      const HttpParseStatus parse =
          ParseHttpRequest(buffer, options.http_limits, &request, &consumed);
      if (parse == HttpParseStatus::kIncomplete) {
        if (draining.load(std::memory_order_relaxed) && buffer.empty()) {
          return;  // Idle keep-alive connection during drain: just close.
        }
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0) return;
        if (ready == 0) {
          idle_ms += kPollMs;
          if (idle_ms >= kIdleLimitMs) {
            if (!buffer.empty()) {
              // A half-sent request timed out mid-frame.
              CountProtocolError();
              const HttpResponse resp = ErrorResponse(
                  408, "request_timeout", "timed out waiting for the request");
              SendAll(fd, resp.Serialize(false));
            }
            return;
          }
          continue;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return;
        buffer.append(chunk, static_cast<std::size_t>(n));
        idle_ms = 0;
        continue;
      }
      if (parse != HttpParseStatus::kOk) {
        // Framing is broken or over budget; answer once and close (the
        // byte stream can no longer be trusted to stay in sync).
        CountProtocolError();
        HttpResponse resp;
        switch (parse) {
          case HttpParseStatus::kHeadersTooLarge:
            resp = ErrorResponse(431, "headers_too_large",
                                 "request headers exceed the budget");
            break;
          case HttpParseStatus::kBodyTooLarge:
            resp = ErrorResponse(413, "body_too_large",
                                 "request body exceeds the budget");
            break;
          case HttpParseStatus::kUnsupported:
            resp = ErrorResponse(501, "unsupported",
                                 "Transfer-Encoding is not supported");
            break;
          default:
            resp =
                ErrorResponse(400, "bad_request", "malformed HTTP request");
        }
        SendAll(fd, resp.Serialize(false));
        return;
      }
      buffer.erase(0, consumed);
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        ++counters.requests;
      }
      const HttpResponse response = Route(request);
      const bool keep_alive =
          request.KeepAlive() && !draining.load(std::memory_order_relaxed);
      if (!SendAll(fd, response.Serialize(keep_alive))) return;
      if (!keep_alive) return;
    }
  }

  HttpResponse Route(const HttpRequest& request) {
    if (request.target == "/healthz") {
      if (request.method != "GET") return MethodNotAllowed("GET");
      if (draining.load(std::memory_order_relaxed)) {
        return JsonResponse(503, "{\"status\":\"draining\"}");
      }
      return JsonResponse(200, "{\"status\":\"ok\"}");
    }
    if (request.target == "/stats") {
      if (request.method != "GET") return MethodNotAllowed("GET");
      return JsonResponse(200, StatsBody());
    }
    if (request.target == "/search") {
      if (request.method != "POST") return MethodNotAllowed("POST");
      return HandleSearch(request);
    }
    if (request.target == "/append") {
      if (request.method != "POST") return MethodNotAllowed("POST");
      return HandleAppend(request);
    }
    if (request.target == "/continuous/register") {
      if (request.method != "POST") return MethodNotAllowed("POST");
      return HandleContinuousRegister(request);
    }
    if (request.target == "/continuous/poll") {
      if (request.method != "POST") return MethodNotAllowed("POST");
      return HandleContinuousPoll(request);
    }
    if (request.target == "/continuous/unregister") {
      if (request.method != "POST") return MethodNotAllowed("POST");
      return HandleContinuousUnregister(request);
    }
    CountProtocolError();
    return ErrorResponse(404, "not_found",
                         "unknown path " + request.target);
  }

  /// POST /append {"values":[...]} — streams one sequence into the
  /// TieredIndex behind the handle. Runs on the connection thread:
  /// TieredIndex::Append is internally serialized and thread-safe against
  /// searches, so appends need no trip through the admission queue (which
  /// exists to bound *search* concurrency).
  HttpResponse HandleAppend(const HttpRequest& request) {
    core::TieredIndex* tiered = index->tiered();
    if (tiered == nullptr) {
      CountProtocolError();
      return ErrorResponse(400, "append_unsupported",
                           "this server serves a static index");
    }
    if (draining.load(std::memory_order_relaxed)) {
      CountProtocolError();
      return ErrorResponse(503, "draining", "server is shutting down");
    }
    StatusOr<JsonValue> body = ParseJson(request.body);
    if (!body.ok()) {
      CountProtocolError();
      return ErrorResponse(400, "bad_json", body.status().message());
    }
    const JsonValue* values =
        body->is_object() ? body->Find("values") : nullptr;
    if (values == nullptr || !values->is_array() ||
        values->AsArray().empty()) {
      CountProtocolError();
      return ErrorResponse(400, "invalid_values",
                           "\"values\" must be a non-empty array of numbers");
    }
    seqdb::Sequence seq;
    seq.reserve(values->AsArray().size());
    for (const JsonValue& v : values->AsArray()) {
      if (!v.is_number()) {
        CountProtocolError();
        return ErrorResponse(400, "invalid_values",
                             "\"values\" must contain only numbers");
      }
      seq.push_back(v.AsNumber());
    }
    StatusOr<SeqId> id = tiered->Append(std::move(seq));
    if (!id.ok()) {
      CountProtocolError();
      return ErrorResponse(400, "append_failed", id.status().message());
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu);
      ++counters.appends;
    }
    JsonValue root = JsonValue::MakeObject();
    root.Set("seq", JsonValue::MakeNumber(static_cast<double>(*id)));
    return JsonResponse(200, root.Dump());
  }

  /// POST /continuous/register {"query":[...], "epsilon":E} — registers a
  /// standing query on the TieredIndex; matches produced by future appends
  /// accumulate in a bounded per-query buffer drained by /continuous/poll.
  HttpResponse HandleContinuousRegister(const HttpRequest& request) {
    core::TieredIndex* tiered = index->tiered();
    if (tiered == nullptr) {
      CountProtocolError();
      return ErrorResponse(400, "append_unsupported",
                           "this server serves a static index");
    }
    StatusOr<JsonValue> body = ParseJson(request.body);
    if (!body.ok()) {
      CountProtocolError();
      return ErrorResponse(400, "bad_json", body.status().message());
    }
    const JsonValue* query =
        body->is_object() ? body->Find("query") : nullptr;
    const JsonValue* epsilon =
        body->is_object() ? body->Find("epsilon") : nullptr;
    if (query == nullptr || !query->is_array() || query->AsArray().empty() ||
        epsilon == nullptr || !epsilon->is_number() ||
        epsilon->AsNumber() < 0) {
      CountProtocolError();
      return ErrorResponse(400, "invalid_request",
                           "need \"query\" (non-empty number array) and "
                           "\"epsilon\" (number >= 0)");
    }
    std::vector<Value> q;
    q.reserve(query->AsArray().size());
    for (const JsonValue& v : query->AsArray()) {
      if (!v.is_number()) {
        CountProtocolError();
        return ErrorResponse(400, "invalid_query",
                             "\"query\" must contain only numbers");
      }
      q.push_back(v.AsNumber());
    }
    auto channel = std::make_shared<ContinuousChannel>();
    const std::uint64_t id = tiered->RegisterContinuous(
        std::move(q), epsilon->AsNumber(),
        [channel](std::uint64_t, const std::vector<core::Match>& matches) {
          channel->Push(matches);
        });
    {
      std::lock_guard<std::mutex> lock(continuous_mu);
      continuous[id] = std::move(channel);
    }
    JsonValue root = JsonValue::MakeObject();
    root.Set("id", JsonValue::MakeNumber(static_cast<double>(id)));
    return JsonResponse(200, root.Dump());
  }

  std::shared_ptr<ContinuousChannel> FindChannel(const HttpRequest& request,
                                                 std::uint64_t* id,
                                                 HttpResponse* error) {
    StatusOr<JsonValue> body = ParseJson(request.body);
    const JsonValue* idv =
        body.ok() && body->is_object() ? body->Find("id") : nullptr;
    double id_num = 0;
    if (idv == nullptr || !AsCount(*idv, 1e15, &id_num)) {
      CountProtocolError();
      *error = ErrorResponse(400, "invalid_request",
                             "\"id\" must be a registration id");
      return nullptr;
    }
    *id = static_cast<std::uint64_t>(id_num);
    std::lock_guard<std::mutex> lock(continuous_mu);
    auto it = continuous.find(*id);
    if (it == continuous.end()) {
      CountProtocolError();
      *error = ErrorResponse(404, "unknown_id",
                             "no continuous query with that id");
      return nullptr;
    }
    return it->second;
  }

  /// POST /continuous/poll {"id":N} — drains the buffered matches.
  HttpResponse HandleContinuousPoll(const HttpRequest& request) {
    std::uint64_t id = 0;
    HttpResponse error;
    std::shared_ptr<ContinuousChannel> channel =
        FindChannel(request, &id, &error);
    if (channel == nullptr) return error;
    std::vector<core::Match> drained;
    std::uint64_t dropped = 0;
    std::uint64_t delivered = 0;
    {
      std::lock_guard<std::mutex> lock(channel->mu);
      drained.assign(channel->buffer.begin(), channel->buffer.end());
      channel->buffer.clear();
      channel->delivered += drained.size();
      delivered = channel->delivered;
      dropped = channel->dropped;
    }
    JsonValue root = JsonValue::MakeObject();
    root.Set("count",
             JsonValue::MakeNumber(static_cast<double>(drained.size())));
    root.Set("delivered",
             JsonValue::MakeNumber(static_cast<double>(delivered)));
    root.Set("dropped", JsonValue::MakeNumber(static_cast<double>(dropped)));
    root.Set("id", JsonValue::MakeNumber(static_cast<double>(id)));
    root.Set("matches", MatchesToJson(drained));
    return JsonResponse(200, root.Dump());
  }

  /// POST /continuous/unregister {"id":N}.
  HttpResponse HandleContinuousUnregister(const HttpRequest& request) {
    std::uint64_t id = 0;
    HttpResponse error;
    std::shared_ptr<ContinuousChannel> channel =
        FindChannel(request, &id, &error);
    if (channel == nullptr) return error;
    index->tiered()->Unregister(id);
    {
      std::lock_guard<std::mutex> lock(continuous_mu);
      continuous.erase(id);
    }
    return JsonResponse(200, "{\"status\":\"ok\"}");
  }

  HttpResponse MethodNotAllowed(const char* allow) {
    CountProtocolError();
    HttpResponse resp =
        ErrorResponse(405, "method_not_allowed",
                      std::string("use ") + allow + " on this path");
    resp.AddHeader("Allow", allow);
    return resp;
  }

  /// Parses and validates a /search body into `*job`. On failure fills
  /// `*error` with the 400 response and returns false. `index` supplies
  /// the context-dependent rules (band vs. sparse index).
  bool ValidateSearch(const JsonValue& body, const core::IndexSnapshot& index,
                      SearchJob* job, HttpResponse* error) {
    const auto fail = [&](std::string_view code, const std::string& message) {
      *error = ErrorResponse(400, code, message);
      return false;
    };
    if (!body.is_object()) {
      return fail("invalid_request", "body must be a JSON object");
    }
    static constexpr std::array<std::string_view, 11> kKnown = {
        "approx_factor", "band",    "deadline_ms",     "epsilon",
        "include_stats", "k",       "prune",           "query",
        "threads",       "use_lower_bound", "use_node_summaries",
    };
    for (const auto& [key, unused] : body.AsObject()) {
      if (std::find(kKnown.begin(), kKnown.end(), key) == kKnown.end()) {
        return fail("unknown_field", "unknown field \"" + key + "\"");
      }
    }
    const JsonValue* query = body.Find("query");
    if (query == nullptr || !query->is_array() || query->AsArray().empty()) {
      return fail("invalid_query",
                  "\"query\" must be a non-empty array of numbers");
    }
    job->query.reserve(query->AsArray().size());
    for (const JsonValue& v : query->AsArray()) {
      if (!v.is_number()) {
        return fail("invalid_query", "\"query\" must contain only numbers");
      }
      job->query.push_back(v.AsNumber());
    }
    const JsonValue* epsilon = body.Find("epsilon");
    const JsonValue* k = body.Find("k");
    if ((epsilon != nullptr) == (k != nullptr)) {
      return fail("invalid_request",
                  "exactly one of \"epsilon\" and \"k\" is required");
    }
    if (epsilon != nullptr) {
      if (!epsilon->is_number() || epsilon->AsNumber() < 0) {
        return fail("invalid_epsilon", "\"epsilon\" must be a number >= 0");
      }
      job->epsilon = epsilon->AsNumber();
    } else {
      double kd = 0;
      if (!AsCount(*k, 1e9, &kd) || kd < 1) {
        return fail("invalid_k", "\"k\" must be an integer in [1, 1e9]");
      }
      job->k = static_cast<std::size_t>(kd);
    }
    if (const JsonValue* band = body.Find("band")) {
      double bd = 0;
      if (!AsCount(*band, static_cast<double>(job->query.size()), &bd)) {
        return fail("invalid_band",
                    "\"band\" must be an integer in [0, |query|]");
      }
      job->opts.band = static_cast<Pos>(bd);
      // Mirrors the CLI rule: sparse suffix recovery is unsound under a
      // band, so a banded query needs a dense index.
      if (job->opts.band != 0 &&
          index.options().kind == core::IndexKind::kSparse) {
        return fail("invalid_band",
                    "a warping band needs a dense index (kind st or stc)");
      }
    }
    if (const JsonValue* threads = body.Find("threads")) {
      double td = 0;
      if (!AsCount(*threads, 1e6, &td)) {
        return fail("invalid_threads", "\"threads\" must be an integer >= 0");
      }
      job->opts.num_threads = std::min(static_cast<std::size_t>(td),
                                       options.max_request_threads);
    }
    if (const JsonValue* prune = body.Find("prune")) {
      if (!prune->is_bool()) {
        return fail("invalid_request", "\"prune\" must be a boolean");
      }
      job->opts.prune = prune->AsBool();
    }
    if (const JsonValue* lb = body.Find("use_lower_bound")) {
      if (!lb->is_bool()) {
        return fail("invalid_request",
                    "\"use_lower_bound\" must be a boolean");
      }
      job->opts.use_lower_bound = lb->AsBool();
    }
    if (const JsonValue* sums = body.Find("use_node_summaries")) {
      if (!sums->is_bool()) {
        return fail("invalid_request",
                    "\"use_node_summaries\" must be a boolean");
      }
      job->opts.use_node_summaries = sums->AsBool();
    }
    if (const JsonValue* factor = body.Find("approx_factor")) {
      if (!factor->is_number() || factor->AsNumber() < 1.0) {
        return fail("invalid_approx_factor",
                    "\"approx_factor\" must be a number >= 1 (1 = exact)");
      }
      job->opts.approx_factor = factor->AsNumber();
    }
    if (const JsonValue* with_stats = body.Find("include_stats")) {
      if (!with_stats->is_bool()) {
        return fail("invalid_request", "\"include_stats\" must be a boolean");
      }
      job->include_stats = with_stats->AsBool();
    }
    if (const JsonValue* deadline = body.Find("deadline_ms")) {
      if (!deadline->is_number() || deadline->AsNumber() <= 0) {
        return fail("invalid_deadline",
                    "\"deadline_ms\" must be a number > 0");
      }
      const double capped =
          std::min(deadline->AsNumber(),
                   static_cast<double>(options.max_deadline.count()));
      job->has_deadline = true;
      job->cancel.ArmDeadlineAfter(
          std::chrono::duration_cast<CancelToken::Clock::duration>(
              std::chrono::duration<double, std::milli>(capped)));
    }
    return true;
  }

  HttpResponse HandleSearch(const HttpRequest& request) {
    StatusOr<JsonValue> body = ParseJson(request.body);
    if (!body.ok()) {
      CountProtocolError();
      return ErrorResponse(400, "bad_json", body.status().message());
    }
    auto job = std::make_unique<SearchJob>();
    HttpResponse error;
    {
      const std::shared_ptr<const core::IndexSnapshot> snapshot = index->Snapshot();
      if (!ValidateSearch(*body, *snapshot, job.get(), &error)) {
        CountProtocolError();
        return error;
      }
    }
    if (draining.load(std::memory_order_relaxed)) {
      CountProtocolError();
      return ErrorResponse(503, "draining", "server is shutting down");
    }
    // The deadline (if any) was armed during validation, so time spent
    // queued counts against it — overload cannot stretch the budget.
    std::future<HttpResponse> reply = job->reply.get_future();
    if (!jobs->TryPush(std::move(job))) {
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        ++counters.rejected;
      }
      HttpResponse resp = ErrorResponse(
          429, "overloaded", "admission queue is full; retry shortly");
      resp.AddHeader("Retry-After",
                     std::to_string(options.retry_after_seconds));
      return resp;
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu);
      ++counters.admitted;
    }
    try {
      return reply.get();
    } catch (const std::future_error&) {
      // The dispatcher dropped the promise (it only does so on its way
      // down); degrade to a 500 rather than crash the handler.
      CountProtocolError();
      return ErrorResponse(500, "internal", "search dispatcher unavailable");
    }
  }

  std::string StatsBody() {
    const ServerCounters c = Snapshot();
    const std::shared_ptr<const core::IndexSnapshot> idx = index->Snapshot();
    const auto num = [](std::uint64_t v) {
      return JsonValue::MakeNumber(static_cast<double>(v));
    };
    JsonValue root = JsonValue::MakeObject();
    root.Set("draining",
             JsonValue::MakeBool(draining.load(std::memory_order_relaxed)));
    JsonValue index_obj = JsonValue::MakeObject();
    index_obj.Set("kind", JsonValue::MakeString(core::IndexKindToString(
                              idx->options().kind)));
    index_obj.Set("nodes", num(idx->build_info().num_nodes));
    index_obj.Set("occurrences", num(idx->build_info().num_occurrences));
    index_obj.Set("index_bytes", num(idx->build_info().index_bytes));
    index_obj.Set("disk", JsonValue::MakeBool(idx->on_disk()));
    index_obj.Set("sequences", num(idx->total_sequences()));
    // mmap read-path footprint: bytes mapped across disk tiers and how
    // much of that the kernel currently keeps resident. Both zero when
    // every disk tier is buffered (or the index is in memory).
    const core::MappedIoStats mapped = idx->MappedStats();
    index_obj.Set("mapped_bytes", num(mapped.mapped_bytes));
    index_obj.Set("resident_bytes", num(mapped.resident_bytes));
    // Per-tier breakdown of the snapshot being served (one entry for a
    // monolithic index; base + sealed + memtable for a tiered one).
    JsonValue tiers = JsonValue::MakeArray();
    for (const auto& tier : idx->tiers()) {
      JsonValue t = JsonValue::MakeObject();
      t.Set("first_seq", num(tier->info.first_seq));
      t.Set("sequences", num(tier->info.sequences));
      t.Set("elements", num(tier->info.elements));
      t.Set("nodes", num(tier->info.nodes));
      t.Set("occurrences", num(tier->info.occurrences));
      t.Set("index_bytes", num(tier->info.index_bytes));
      t.Set("on_disk", JsonValue::MakeBool(tier->info.on_disk));
      t.Set("memtable", JsonValue::MakeBool(tier->info.memtable));
      t.Set("has_summaries",
            JsonValue::MakeBool(tier->info.has_summaries));
      if (tier->info.on_disk) {
        t.Set("io_mode", JsonValue::MakeString(
                             storage::IoModeToString(tier->info.io_mode)));
        t.Set("mapped_bytes", num(tier->info.mapped_bytes));
      }
      tiers.MutableArray()->push_back(std::move(t));
    }
    index_obj.Set("tiers", std::move(tiers));
    root.Set("index", std::move(index_obj));
    if (core::TieredIndex* tiered = index->tiered()) {
      const core::TieredStats ts = tiered->Stats();
      JsonValue t = JsonValue::MakeObject();
      t.Set("appended_sequences", num(ts.appended_sequences));
      t.Set("memtable_sequences", num(ts.memtable_sequences));
      t.Set("sealed_tiers", num(ts.sealed_tiers));
      t.Set("pending_merges", num(ts.pending_merges));
      t.Set("merges_completed", num(ts.merges_completed));
      t.Set("merges_cancelled", num(ts.merges_cancelled));
      t.Set("merges_failed", num(ts.merges_failed));
      t.Set("merge_error", JsonValue::MakeString(ts.merge_error));
      t.Set("continuous_queries", num(ts.continuous_queries));
      t.Set("appends", num(c.appends));
      root.Set("tiered", std::move(t));
    }
    JsonValue queue = JsonValue::MakeObject();
    queue.Set("capacity", num(options.queue_capacity));
    queue.Set("depth", num(c.queue_depth));
    queue.Set("high_water", num(c.queue_high_water));
    queue.Set("admitted", num(c.admitted));
    queue.Set("rejected", num(c.rejected));
    root.Set("queue", std::move(queue));
    JsonValue reqs = JsonValue::MakeObject();
    reqs.Set("connections", num(c.connections));
    reqs.Set("total", num(c.requests));
    reqs.Set("completed", num(c.completed));
    reqs.Set("partials", num(c.partials));
    reqs.Set("timeouts", num(c.timeouts));
    reqs.Set("protocol_errors", num(c.protocol_errors));
    reqs.Set("batches", num(c.batches));
    reqs.Set("coalesced", num(c.coalesced));
    root.Set("requests", std::move(reqs));
    JsonValue sched = JsonValue::MakeObject();
    sched.Set("workers", num(TaskScheduler::Get().num_workers()));
    sched.Set("steal_attempts", num(TaskScheduler::Get().steal_attempts()));
    root.Set("scheduler", std::move(sched));
    root.Set("search", StatsToJson(c.search));
    return root.Dump();
  }

  ServerCounters Snapshot() const {
    ServerCounters c;
    {
      std::lock_guard<std::mutex> lock(counters_mu);
      c = counters;
    }
    c.queue_depth = jobs->depth();
    c.queue_high_water = jobs->high_water();
    return c;
  }

  void DispatchLoop() {
    std::vector<JobPtr> round;
    while (true) {
      round.clear();
      if (jobs->PopBatch(&round, options.max_batch) == 0) break;
      const std::shared_ptr<const core::IndexSnapshot> idx = index->Snapshot();
      // Partition the round: range queries without a deadline coalesce
      // into SearchBatch groups keyed by the options SearchBatch shares
      // across its queries; everything else runs individually.
      std::vector<JobPtr> singles;
      std::vector<std::vector<JobPtr>> groups;
      for (JobPtr& job : round) {
        if (job->k > 0 || job->has_deadline) {
          singles.push_back(std::move(job));
          continue;
        }
        bool placed = false;
        for (std::vector<JobPtr>& group : groups) {
          const core::QueryOptions& o = group.front()->opts;
          if (o.band == job->opts.band && o.prune == job->opts.prune &&
              o.use_lower_bound == job->opts.use_lower_bound &&
              o.use_node_summaries == job->opts.use_node_summaries &&
              o.approx_factor == job->opts.approx_factor) {
            group.push_back(std::move(job));
            placed = true;
            break;
          }
        }
        if (!placed) {
          groups.emplace_back();
          groups.back().push_back(std::move(job));
        }
      }
      for (std::vector<JobPtr>& group : groups) {
        if (group.size() == 1) {
          singles.push_back(std::move(group.front()));
        } else {
          RunGroup(std::move(group), *idx);
        }
      }
      for (JobPtr& job : singles) RunSingle(job.get(), *idx);
    }
  }

  /// Re-checks the one validation rule that depends on the index, which
  /// may have been hot-swapped between admission and execution.
  bool RecheckBand(SearchJob* job, const core::IndexSnapshot& idx) {
    if (job->opts.band != 0 &&
        idx.options().kind == core::IndexKind::kSparse) {
      CountProtocolError();
      job->reply.set_value(ErrorResponse(
          400, "invalid_band",
          "a warping band needs a dense index (kind st or stc)"));
      return false;
    }
    return true;
  }

  void RunGroup(std::vector<JobPtr> group, const core::IndexSnapshot& idx) {
    // A member can fail the band recheck if the index was hot-swapped
    // after admission; it is answered 400 and its siblings still run.
    std::vector<JobPtr> valid;
    valid.reserve(group.size());
    for (JobPtr& job : group) {
      if (RecheckBand(job.get(), idx)) valid.push_back(std::move(job));
    }
    group = std::move(valid);
    if (group.empty()) return;
    std::vector<std::vector<Value>> queries;
    std::vector<Value> epsilons;
    queries.reserve(group.size());
    epsilons.reserve(group.size());
    for (const JobPtr& job : group) {
      queries.push_back(job->query);
      epsilons.push_back(job->epsilon);
    }
    core::QueryOptions opts = group.front()->opts;
    opts.num_threads = options.search_threads;
    opts.cancel = nullptr;
    std::vector<core::SearchStats> stats;
    try {
      const std::vector<std::vector<core::Match>> results =
          idx.SearchBatch(queries, epsilons, opts, &stats);
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        if (group.size() >= 2) {
          ++counters.batches;
          counters.coalesced += group.size();
        }
        counters.completed += group.size();
        for (const core::SearchStats& s : stats) counters.search.Merge(s);
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        group[i]->reply.set_value(JsonResponse(
            200, SearchResponseBody(
                     "ok", results[i],
                     group[i]->include_stats ? &stats[i] : nullptr)));
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(counters_mu);
      counters.protocol_errors += group.size();
      for (const JobPtr& job : group) {
        job->reply.set_value(ErrorResponse(500, "internal", e.what()));
      }
    }
  }

  void RunSingle(SearchJob* job, const core::IndexSnapshot& idx) {
    if (!RecheckBand(job, idx)) return;
    if (job->has_deadline && job->cancel.Expired()) {
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        ++counters.timeouts;
      }
      job->reply.set_value(
          ErrorResponse(504, "deadline_exceeded",
                        "deadline expired before the search started"));
      return;
    }
    core::QueryOptions opts = job->opts;
    if (job->has_deadline) opts.cancel = &job->cancel;
    core::SearchStats stats;
    try {
      const std::vector<core::Match> matches =
          job->k > 0 ? idx.SearchKnn(job->query, job->k, opts, &stats)
                     : idx.Search(job->query, job->epsilon, opts, &stats);
      const bool partial = stats.cancelled != 0;
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        partial ? ++counters.partials : ++counters.completed;
        counters.search.Merge(stats);
      }
      job->reply.set_value(JsonResponse(
          200, SearchResponseBody(partial ? "partial" : "ok", matches,
                                  job->include_stats ? &stats : nullptr)));
    } catch (const std::exception& e) {
      CountProtocolError();
      job->reply.set_value(ErrorResponse(500, "internal", e.what()));
    }
  }

  void Shutdown() {
    std::call_once(shutdown_once, [this] {
      draining.store(true, std::memory_order_relaxed);
      if (accept_thread.joinable()) accept_thread.join();
      // Drain order matters: close the job queue first so the dispatcher
      // finishes everything already admitted (fulfilling the promises the
      // handler threads are blocked on), then release the handlers.
      jobs->Close();
      if (dispatch_thread.joinable()) dispatch_thread.join();
      conns->Close();
      for (std::thread& t : conn_threads) {
        if (t.joinable()) t.join();
      }
      if (listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
      }
      // Detach continuous queries so the tiered index never calls back
      // into a server that is going away.
      if (core::TieredIndex* tiered = index->tiered()) {
        std::lock_guard<std::mutex> lock(continuous_mu);
        for (const auto& [id, channel] : continuous) tiered->Unregister(id);
        continuous.clear();
      }
    });
  }
};

Server::Server() : impl_(new Impl) {}

Server::~Server() {
  if (impl_ != nullptr) impl_->Shutdown();
}

int Server::port() const { return impl_->bound_port; }

void Server::Shutdown() { impl_->Shutdown(); }

ServerCounters Server::Counters() const { return impl_->Snapshot(); }

StatusOr<std::unique_ptr<Server>> Server::Start(IndexHandle* index,
                                                const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server());
  Impl& impl = *server->impl_;
  impl.index = index;
  impl.options = options;
  if (impl.options.connection_threads == 0) impl.options.connection_threads = 1;
  if (impl.options.queue_capacity == 0) impl.options.queue_capacity = 1;
  if (impl.options.max_batch == 0) impl.options.max_batch = 1;
  impl.jobs =
      std::make_unique<BoundedQueue<JobPtr>>(impl.options.queue_capacity);
  impl.conns =
      std::make_unique<BoundedQueue<int>>(impl.options.connection_threads);
  TSW_RETURN_IF_ERROR(impl.Bind());
  Impl* raw = &impl;
  impl.accept_thread = std::thread([raw] { raw->AcceptLoop(); });
  impl.dispatch_thread = std::thread([raw] { raw->DispatchLoop(); });
  impl.conn_threads.reserve(impl.options.connection_threads);
  for (std::size_t i = 0; i < impl.options.connection_threads; ++i) {
    impl.conn_threads.emplace_back([raw] { raw->ConnLoop(); });
  }
  return server;
}

}  // namespace tswarp::server
