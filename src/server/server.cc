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
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/task_scheduler.h"
#include "server/http.h"
#include "server/json.h"

namespace tswarp::server {

namespace {

/// Cap on a request's "threads" knob, so one client cannot demand an
/// arbitrary pool size.
constexpr std::size_t kMaxRequestThreads = 8;

/// Cap on a request's "deadline_ms" knob.
constexpr double kMaxDeadlineMs = 60000;

/// Seconds advertised in the Retry-After header of 429 responses.
constexpr int kRetryAfterSeconds = 1;

/// HTTP framing limits: 8 KiB of headers, 1 MiB of body.
constexpr HttpLimits kHttpLimits{};

/// One parsed /search request. The CancelToken lives here so its
/// deadline covers the wait for a run slot as well as execution (armed
/// at admission).
struct SearchJob {
  std::vector<Value> query;
  Value epsilon = 0;
  std::size_t k = 0;  // > 0 selects k-NN; 0 selects range search.
  core::QueryOptions opts;
  bool include_stats = false;
  bool has_deadline = false;
  CancelToken cancel;
};

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

/// Writes `s` as one object, keys in ascending order.
void WriteStats(JsonWriter& w, const core::SearchStats& s) {
  w.BeginObject()
      .Key("answers").Number(s.answers)
      .Key("branches_pruned").Number(s.branches_pruned)
      .Key("cancelled").Number(s.cancelled)
      .Key("candidates").Number(s.candidates)
      .Key("cells_computed").Number(s.cells_computed)
      .Key("endpoint_rejections").Number(s.endpoint_rejections)
      .Key("exact_dtw_calls").Number(s.exact_dtw_calls)
      .Key("lb_invocations").Number(s.lb_invocations)
      .Key("lb_pruned").Number(s.lb_pruned)
      .Key("nodes_visited").Number(s.nodes_visited)
      .Key("rows_pushed").Number(s.rows_pushed)
      .Key("scan_rows").Number(s.scan_rows)
      .Key("tasks_executed").Number(s.tasks_executed)
      .Key("tasks_stolen").Number(s.tasks_stolen)
      .Key("unshared_rows").Number(s.unshared_rows)
      .EndObject();
}

/// Writes `matches` (a span of the answers, or a poll's drained buffer)
/// as one array of {"distance","len","seq","start"} objects.
template <typename Matches>
void WriteMatches(JsonWriter& w, const Matches& matches) {
  w.BeginArray();
  for (const core::Match& m : matches) {
    w.BeginObject()
        .Key("distance").Number(m.distance)
        .Key("len").Number(m.len)
        .Key("seq").Number(m.seq)
        .Key("start").Number(m.start)
        .EndObject();
  }
  w.EndArray();
}

/// True when `v` is a non-negative integral number <= `max`.
bool AsCount(const JsonValue& v, double max, double* out) {
  if (!v.is_number()) return false;
  const double d = v.AsNumber();
  if (d < 0 || d != std::floor(d) || d > max) return false;
  *out = d;
  return true;
}

/// How a request field failed to be a non-empty array of numbers.
enum class NumberArray { kOk, kNotNonEmptyArray, kNotAllNumbers };

/// Reads `v` (null when the field is absent) as a non-empty array of
/// numbers into `*out`. Each caller maps a failure to its own error.
NumberArray ReadNumbers(const JsonValue* v, std::vector<Value>* out) {
  if (v == nullptr || !v->is_array() || v->AsArray().empty()) {
    return NumberArray::kNotNonEmptyArray;
  }
  out->reserve(v->AsArray().size());
  for (const JsonValue& e : v->AsArray()) {
    if (!e.is_number()) return NumberArray::kNotAllNumbers;
    out->push_back(e.AsNumber());
  }
  return NumberArray::kOk;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string ErrorBody(std::string_view code, std::string_view message) {
  std::string body;
  JsonWriter(&body)
      .BeginObject()
      .Key("error").BeginObject()
      .Key("code").String(code)
      .Key("message").String(message)
      .EndObject()
      .EndObject();
  return body;
}

std::string SearchResponseBody(std::string_view status_word,
                               std::span<const core::Match> matches,
                               const core::SearchStats* stats) {
  std::string body;
  JsonWriter w(&body);
  w.BeginObject().Key("count").Number(matches.size()).Key("matches");
  WriteMatches(w, matches);
  if (stats != nullptr) {
    w.Key("stats");
    WriteStats(w, *stats);
  }
  w.Key("status").String(status_word).EndObject();
  return body;
}

struct Server::Impl {
  IndexHandle* index = nullptr;
  ServerOptions options;
  int listen_fd = -1;
  int bound_port = 0;

  std::atomic<bool> draining{false};
  std::unique_ptr<BoundedQueue<int>> conns;

  std::thread accept_thread;
  std::vector<std::thread> conn_threads;
  std::once_flag shutdown_once;

  mutable std::mutex counters_mu;
  ServerCounters counters;

  // Admission gate, guarded by counters_mu. An admitted search takes
  // ticket `searches_arrived` and holds a run slot once its ticket is
  // below `searches_finished + options.search_threads`, so slots go out
  // in arrival order; the rest wait on `slot_freed`.
  std::condition_variable slot_freed;
  std::uint64_t searches_arrived = 0;
  std::uint64_t searches_finished = 0;

  // Connections a handler thread owns right now. Shutdown wakes their
  // reads; an fd leaves the set before it is closed, so a woken fd is
  // never a reused one.
  std::mutex open_conns_mu;
  std::set<int> open_conns;

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
      {
        std::lock_guard<std::mutex> lock(open_conns_mu);
        open_conns.insert(fd);
      }
      HandleConnection(fd);
      {
        std::lock_guard<std::mutex> lock(open_conns_mu);
        open_conns.erase(fd);
      }
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
          ParseHttpRequest(buffer, kHttpLimits, &request, &consumed);
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
  /// TieredIndex behind the handle. TieredIndex::Append is internally
  /// serialized and thread-safe against searches, so appends take no run
  /// slot (the slots bound *search* concurrency).
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
    seqdb::Sequence seq;
    const NumberArray values = ReadNumbers(body->Find("values"), &seq);
    if (values != NumberArray::kOk) {
      CountProtocolError();
      return ErrorResponse(
          400, "invalid_values",
          values == NumberArray::kNotNonEmptyArray
              ? "\"values\" must be a non-empty array of numbers"
              : "\"values\" must contain only numbers");
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
    std::string out;
    JsonWriter(&out).BeginObject().Key("seq").Number(*id).EndObject();
    return JsonResponse(200, std::move(out));
  }

  /// POST /continuous/register {"query":[...], "epsilon":E} — registers a
  /// standing query on the TieredIndex, which buffers the matches of
  /// future appends until /continuous/poll drains them.
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
    std::vector<Value> q;
    const NumberArray query = ReadNumbers(body->Find("query"), &q);
    const JsonValue* epsilon = body->Find("epsilon");
    if (query == NumberArray::kNotNonEmptyArray || epsilon == nullptr ||
        !epsilon->is_number() || epsilon->AsNumber() < 0) {
      CountProtocolError();
      return ErrorResponse(400, "invalid_request",
                           "need \"query\" (non-empty number array) and "
                           "\"epsilon\" (number >= 0)");
    }
    if (query == NumberArray::kNotAllNumbers) {
      CountProtocolError();
      return ErrorResponse(400, "invalid_query",
                           "\"query\" must contain only numbers");
    }
    const std::uint64_t id =
        tiered->RegisterContinuous(std::move(q), epsilon->AsNumber());
    std::string out;
    JsonWriter(&out).BeginObject().Key("id").Number(id).EndObject();
    return JsonResponse(200, std::move(out));
  }

  HttpResponse UnknownId() {
    CountProtocolError();
    return ErrorResponse(404, "unknown_id", "no continuous query with that id");
  }

  /// The TieredIndex and registration `*id` that a /continuous/poll or
  /// /continuous/unregister body names. Returns nullptr after filling
  /// `*error`: 400 for a malformed id, 404 on a static index (it has no
  /// registrations).
  core::TieredIndex* RegistrationTarget(const HttpRequest& request,
                                        std::uint64_t* id,
                                        HttpResponse* error) {
    StatusOr<JsonValue> body = ParseJson(request.body);
    const JsonValue* idv = body.ok() ? body->Find("id") : nullptr;
    double id_num = 0;
    if (idv == nullptr || !AsCount(*idv, 1e15, &id_num)) {
      CountProtocolError();
      *error = ErrorResponse(400, "invalid_request",
                             "\"id\" must be a registration id");
      return nullptr;
    }
    *id = static_cast<std::uint64_t>(id_num);
    core::TieredIndex* tiered = index->tiered();
    if (tiered == nullptr) *error = UnknownId();
    return tiered;
  }

  /// POST /continuous/poll {"id":N} — drains the buffered matches.
  HttpResponse HandleContinuousPoll(const HttpRequest& request) {
    std::uint64_t id = 0;
    HttpResponse error;
    core::TieredIndex* tiered = RegistrationTarget(request, &id, &error);
    if (tiered == nullptr) return error;
    StatusOr<core::ContinuousPoll> poll = tiered->PollContinuous(id);
    if (!poll.ok()) return UnknownId();
    std::string out;
    JsonWriter w(&out);
    w.BeginObject()
        .Key("count").Number(poll->matches.size())
        .Key("delivered").Number(poll->delivered)
        .Key("dropped").Number(poll->dropped)
        .Key("id").Number(id)
        .Key("matches");
    WriteMatches(w, poll->matches);
    w.EndObject();
    return JsonResponse(200, std::move(out));
  }

  /// POST /continuous/unregister {"id":N}.
  HttpResponse HandleContinuousUnregister(const HttpRequest& request) {
    std::uint64_t id = 0;
    HttpResponse error;
    core::TieredIndex* tiered = RegistrationTarget(request, &id, &error);
    if (tiered == nullptr) return error;
    if (!tiered->UnregisterContinuous(id).ok()) return UnknownId();
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
  /// `*error` with the 400 response and returns false. The one rule that
  /// depends on the index (band vs. sparse) is checked by RunSearch.
  bool ValidateSearch(const JsonValue& body, SearchJob* job,
                      HttpResponse* error) {
    const auto fail = [&](std::string_view code, const std::string& message) {
      *error = ErrorResponse(400, code, message);
      return false;
    };
    if (!body.is_object()) {
      return fail("invalid_request", "body must be a JSON object");
    }
    static constexpr std::array<std::string_view, 9> kKnown = {
        "band",  "deadline_ms", "epsilon", "include_stats",  "k",
        "prune", "query",       "threads", "use_lower_bound",
    };
    for (const auto& [key, unused] : body.AsObject()) {
      if (std::find(kKnown.begin(), kKnown.end(), key) == kKnown.end()) {
        return fail("unknown_field", "unknown field \"" + key + "\"");
      }
    }
    switch (ReadNumbers(body.Find("query"), &job->query)) {
      case NumberArray::kNotNonEmptyArray:
        return fail("invalid_query",
                    "\"query\" must be a non-empty array of numbers");
      case NumberArray::kNotAllNumbers:
        return fail("invalid_query", "\"query\" must contain only numbers");
      case NumberArray::kOk:
        break;
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
    }
    if (const JsonValue* threads = body.Find("threads")) {
      double td = 0;
      if (!AsCount(*threads, 1e6, &td)) {
        return fail("invalid_threads", "\"threads\" must be an integer >= 0");
      }
      job->opts.num_threads = std::min(static_cast<std::size_t>(td),
                                       kMaxRequestThreads);
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
      const double capped = std::min(deadline->AsNumber(), kMaxDeadlineMs);
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
    SearchJob job;
    HttpResponse error;
    if (!ValidateSearch(*body, &job, &error)) {
      CountProtocolError();
      return error;
    }
    if (draining.load(std::memory_order_relaxed)) {
      CountProtocolError();
      return ErrorResponse(503, "draining", "server is shutting down");
    }
    // The deadline (if any) was armed during validation, so time spent
    // waiting for a run slot counts against it — overload cannot stretch
    // the budget.
    if (!AcquireSlot()) {
      HttpResponse resp = ErrorResponse(
          429, "overloaded", "admission queue is full; retry shortly");
      resp.AddHeader("Retry-After", std::to_string(kRetryAfterSeconds));
      return resp;
    }
    HttpResponse response = RunSearch(job, *index->Snapshot());
    {
      std::lock_guard<std::mutex> lock(counters_mu);
      ++searches_finished;
    }
    slot_freed.notify_all();
    return response;
  }

  /// Searches admitted but not yet entitled to a run slot.
  std::size_t WaitingLocked() const {
    const std::uint64_t unfinished = searches_arrived - searches_finished;
    return unfinished > options.search_threads
               ? static_cast<std::size_t>(unfinished - options.search_threads)
               : 0;
  }

  /// Admits a search and blocks until it holds a run slot; returns false
  /// at once (counted as rejected) when `queue_capacity` searches are
  /// already waiting.
  bool AcquireSlot() {
    std::unique_lock<std::mutex> lock(counters_mu);
    if (WaitingLocked() >= options.queue_capacity) {
      ++counters.rejected;
      return false;
    }
    const std::uint64_t ticket = searches_arrived++;
    ++counters.admitted;
    counters.queue_high_water =
        std::max(counters.queue_high_water, WaitingLocked());
    // ticket < searches_finished + search_threads, split so that a huge
    // search_threads cannot wrap the sum.
    slot_freed.wait(lock, [&] {
      return ticket < searches_finished ||
             ticket - searches_finished < options.search_threads;
    });
    return true;
  }

  std::string StatsBody() {
    const ServerCounters c = Snapshot();
    const std::shared_ptr<const core::IndexSnapshot> idx = index->Snapshot();
    // Mapped footprint: bytes mapped across disk tiers and how much of
    // that the kernel currently keeps resident. Both zero when the index
    // is in memory.
    const core::MappedIoStats mapped = idx->MappedStats();
    std::string out;
    JsonWriter w(&out);
    w.BeginObject()
        .Key("draining").Bool(draining.load(std::memory_order_relaxed))
        .Key("index").BeginObject()
        .Key("disk").Bool(idx->on_disk())
        .Key("index_bytes").Number(idx->build_info().index_bytes)
        .Key("kind").String(core::IndexKindToString(idx->options().kind))
        .Key("mapped_bytes").Number(mapped.mapped_bytes)
        .Key("nodes").Number(idx->build_info().num_nodes)
        .Key("occurrences").Number(idx->build_info().num_occurrences)
        .Key("resident_bytes").Number(mapped.resident_bytes)
        .Key("sequences").Number(idx->total_sequences())
        .Key("tiers").BeginArray();
    // Per-tier breakdown of the snapshot being served (one entry for a
    // monolithic index; base + sealed + memtable for a tiered one).
    for (const auto& tier : idx->tiers()) {
      const core::TierInfo& t = tier->info;
      w.BeginObject()
          .Key("elements").Number(t.elements)
          .Key("first_seq").Number(t.first_seq)
          .Key("index_bytes").Number(t.index_bytes);
      if (t.on_disk) w.Key("mapped_bytes").Number(t.mapped_bytes);
      w.Key("memtable").Bool(t.memtable)
          .Key("nodes").Number(t.nodes)
          .Key("occurrences").Number(t.occurrences)
          .Key("on_disk").Bool(t.on_disk)
          .Key("sequences").Number(t.sequences)
          .EndObject();
    }
    w.EndArray().EndObject()
        .Key("queue").BeginObject()
        .Key("admitted").Number(c.admitted)
        .Key("capacity").Number(options.queue_capacity)
        .Key("depth").Number(c.queue_depth)
        .Key("high_water").Number(c.queue_high_water)
        .Key("rejected").Number(c.rejected)
        .EndObject()
        .Key("requests").BeginObject()
        .Key("completed").Number(c.completed)
        .Key("connections").Number(c.connections)
        .Key("partials").Number(c.partials)
        .Key("protocol_errors").Number(c.protocol_errors)
        .Key("timeouts").Number(c.timeouts)
        .Key("total").Number(c.requests)
        .EndObject()
        .Key("scheduler").BeginObject()
        .Key("workers").Number(TaskScheduler::Get().num_workers())
        .EndObject()
        .Key("search");
    WriteStats(w, c.search);
    if (core::TieredIndex* tiered = index->tiered()) {
      const core::TieredStats ts = tiered->Stats();
      w.Key("tiered").BeginObject()
          .Key("appended_sequences").Number(ts.appended_sequences)
          .Key("appends").Number(c.appends)
          .Key("continuous_queries").Number(ts.continuous_queries)
          .Key("memtable_sequences").Number(ts.memtable_sequences)
          .Key("merge_error").String(ts.merge_error)
          .Key("merges_cancelled").Number(ts.merges_cancelled)
          .Key("merges_completed").Number(ts.merges_completed)
          .Key("merges_failed").Number(ts.merges_failed)
          .Key("pending_merges").Number(ts.pending_merges)
          .Key("sealed_tiers").Number(ts.sealed_tiers)
          .EndObject();
    }
    w.EndObject();
    return out;
  }

  ServerCounters Snapshot() const {
    std::lock_guard<std::mutex> lock(counters_mu);
    ServerCounters c = counters;
    c.queue_depth = WaitingLocked();
    return c;
  }

  /// Runs one search that holds a run slot, on the snapshot `idx` taken
  /// after it got the slot.
  HttpResponse RunSearch(SearchJob& job, const core::IndexSnapshot& idx) {
    // Mirrors the CLI rule: sparse suffix recovery is unsound under a
    // band, so a banded query needs a dense index. Checked against the
    // snapshot the search runs on, since the index may be hot-swapped
    // while it waits.
    if (job.opts.band != 0 &&
        idx.options().kind == core::IndexKind::kSparse) {
      CountProtocolError();
      return ErrorResponse(
          400, "invalid_band",
          "a warping band needs a dense index (kind st or stc)");
    }
    if (job.has_deadline && job.cancel.Expired()) {
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        ++counters.timeouts;
      }
      return ErrorResponse(504, "deadline_exceeded",
                           "deadline expired before the search started");
    }
    core::QueryOptions opts = job.opts;
    if (job.has_deadline) opts.cancel = &job.cancel;
    core::SearchStats stats;
    try {
      const std::vector<core::Match> matches =
          job.k > 0 ? idx.SearchKnn(job.query, job.k, opts, &stats)
                    : idx.Search(job.query, job.epsilon, opts, &stats);
      const bool partial = stats.cancelled != 0;
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        partial ? ++counters.partials : ++counters.completed;
        counters.search.Merge(stats);
      }
      return JsonResponse(
          200, SearchResponseBody(partial ? "partial" : "ok", matches,
                                  job.include_stats ? &stats : nullptr));
    } catch (const std::exception& e) {
      CountProtocolError();
      return ErrorResponse(500, "internal", e.what());
    }
  }

  void Shutdown() {
    std::call_once(shutdown_once, [this] {
      draining.store(true, std::memory_order_relaxed);
      // Wake the accept thread's poll now rather than after its timeout;
      // the fd itself is closed once no thread uses it.
      if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
      if (accept_thread.joinable()) accept_thread.join();
      // Wake handlers polling idle keep-alive connections now rather than
      // after their poll timeout. Only the read side shuts: a handler
      // running or waiting on an admitted search still writes its
      // response, so joining the handlers finishes every admitted search.
      {
        std::lock_guard<std::mutex> lock(open_conns_mu);
        for (const int fd : open_conns) ::shutdown(fd, SHUT_RD);
      }
      conns->Close();
      for (std::thread& t : conn_threads) {
        if (t.joinable()) t.join();
      }
      if (listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
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
  if (impl.options.search_threads == 0) impl.options.search_threads = 1;
  impl.conns =
      std::make_unique<BoundedQueue<int>>(impl.options.connection_threads);
  TSW_RETURN_IF_ERROR(impl.Bind());
  Impl* raw = &impl;
  impl.accept_thread = std::thread([raw] { raw->AcceptLoop(); });
  impl.conn_threads.reserve(impl.options.connection_threads);
  for (std::size_t i = 0; i < impl.options.connection_threads; ++i) {
    impl.conn_threads.emplace_back([raw] { raw->ConnLoop(); });
  }
  return server;
}

}  // namespace tswarp::server
