#include "report_json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "dtw/simd.h"
#include "server/json.h"

namespace tswarp::bench {
namespace {

/// JSON has no infinity or NaN literal (AppendJsonNumber would print
/// "inf"), so a non-finite measurement is written as 0.
double Finite(double v) { return std::isfinite(v) ? v : 0; }

}  // namespace

JsonReport::JsonReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void JsonReport::Add(std::string name, double real_time_ns,
                     Counters counters) {
  entries_.push_back({std::move(name), real_time_ns, std::move(counters)});
}

bool JsonReport::Write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "report_json: cannot write %s\n", path.c_str());
    return false;
  }
  std::string body;
  server::JsonWriter w(&body);
  w.BeginObject()
      .Key("bench").String(bench_name_)
      .Key("simd_backend").String(dtw::simd::ActiveBackend())
      .Key("entries").BeginArray();
  for (const Entry& e : entries_) {
    w.BeginObject()
        .Key("name").String(e.name)
        .Key("real_time_ns").Number(Finite(e.real_time_ns));
    if (!e.counters.empty()) {
      w.Key("counters").BeginObject();
      for (const auto& [key, value] : e.counters) {
        w.Key(key).Number(Finite(value));
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  out << body << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "report_json: write to %s failed\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "report_json: wrote %s (%zu entries, backend %s)\n",
               path.c_str(), entries_.size(), dtw::simd::ActiveBackend());
  return true;
}

bool StripJsonFlag(int* argc, char** argv) {
  bool found = false;
  int w = 0;
  for (int r = 0; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0) {
      found = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

}  // namespace tswarp::bench
