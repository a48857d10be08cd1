#include "dtw/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "dtw/simd_internal.h"

namespace tswarp::dtw::simd {

// Backend tables. Each backend file compiles unconditionally and returns
// nullptr when its instruction set is unavailable (wrong architecture at
// compile time, or missing CPU feature at run time), which keeps every
// #ifdef __AVX2__ / __ARM_NEON inside src/dtw/simd* — CI greps for leaks.
const KernelTable* Avx2Kernels();  // simd_avx2.cc
const KernelTable* Sse2Kernels();  // simd_sse2.cc
const KernelTable* NeonKernels();  // simd_neon.cc

namespace {

namespace in = internal;

Value ScalarRowStepValue(const Value* q, Value v, const Value* prev,
                         Value* row, std::size_t n, Value left) {
  return in::RowStepGeneric(
      [q, v](std::size_t i) { return in::AbsDiff(q[i], v); }, prev, row, n,
      left);
}

Value ScalarRowStepInterval(const Value* q, Value lb, Value ub,
                            const Value* prev, Value* row, std::size_t n,
                            Value left) {
  return in::RowStepGeneric(
      [q, lb, ub](std::size_t i) { return in::IntervalDist(q[i], lb, ub); },
      prev, row, n, left);
}

Value ScalarRowStepBase(const Value* base, const Value* prev, Value* row,
                        std::size_t n, Value left) {
  return in::RowStepGeneric([base](std::size_t i) { return base[i]; }, prev,
                            row, n, left);
}

void ScalarBandedExtrema(const Value* seq, std::size_t n, std::size_t band,
                         Value* lower, Value* upper, Value* work) {
  in::BandedExtremaGeneric(
      seq, n, band, lower, upper, work,
      [](const Value* min_src, Value* min_dst, const Value* max_src,
         Value* max_dst, std::size_t count, std::size_t s) {
        for (std::size_t j = 0; j < count; ++j) {
          min_dst[j] = in::MinPd(min_src[j], min_src[j + s]);
          max_dst[j] = in::MaxPd(max_src[j], max_src[j + s]);
        }
      });
}

constexpr KernelTable kScalarTable = {
    "scalar",
    ScalarRowStepValue,
    ScalarRowStepInterval,
    ScalarRowStepBase,
    ScalarBandedExtrema,
};

// Runtime CPU feature checks live here, in a TU compiled WITHOUT any
// extra ISA flags, so no vector instruction can execute before its check
// passes. The backend getters only report compile-time availability.
#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
bool CpuHasSse2() { return __builtin_cpu_supports("sse2"); }
bool CpuHasNeon() { return false; }
#elif defined(__aarch64__)
bool CpuHasAvx2() { return false; }
bool CpuHasSse2() { return false; }
bool CpuHasNeon() { return true; }  // NEON is baseline on AArch64.
#else
bool CpuHasAvx2() { return false; }
bool CpuHasSse2() { return false; }
bool CpuHasNeon() { return false; }
#endif

/// Candidates in dispatch order (best first). A backend is usable iff the
/// CPU supports it at run time AND the build compiled it (get() non-null).
struct Candidate {
  const char* name;
  bool (*supported)();
  const KernelTable* (*get)();
};
constexpr Candidate kCandidates[] = {
    {"avx2", CpuHasAvx2, Avx2Kernels},
    {"sse2", CpuHasSse2, Sse2Kernels},
    {"neon", CpuHasNeon, NeonKernels},
    {"scalar", [] { return true; }, [] { return &kScalarTable; }},
};

const KernelTable* Resolve(const Candidate& c) {
  return c.supported() ? c.get() : nullptr;
}

const KernelTable* ResolveAuto() {
  for (const Candidate& c : kCandidates) {
    if (const KernelTable* t = Resolve(c)) return t;
  }
  return &kScalarTable;  // Unreachable: scalar always resolves.
}

const KernelTable* ResolveNamed(std::string_view name) {
  if (name == "auto") return ResolveAuto();
  for (const Candidate& c : kCandidates) {
    if (name == c.name) return Resolve(c);
  }
  return nullptr;
}

std::atomic<const KernelTable*> g_active{nullptr};
std::once_flag g_init_once;

void InitOnce() {
  std::call_once(g_init_once, [] {
    // An explicit SetBackend() before first use already installed a table.
    if (g_active.load(std::memory_order_acquire) != nullptr) return;
    const KernelTable* table = nullptr;
    if (const char* env = std::getenv("TSWARP_SIMD")) {
      table = ResolveNamed(env);
      if (table == nullptr) {
        std::fprintf(stderr,
                     "tswarp: TSWARP_SIMD=%s is unknown or unsupported on "
                     "this CPU; falling back to auto dispatch\n",
                     env);
      }
    }
    if (table == nullptr) table = ResolveAuto();
    g_active.store(table, std::memory_order_release);
  });
}

}  // namespace

const KernelTable& Kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  InitOnce();
  return *g_active.load(std::memory_order_acquire);
}

bool SetBackend(std::string_view name) {
  const KernelTable* table = ResolveNamed(name);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

const char* ActiveBackend() { return Kernels().name; }

std::vector<std::string> AvailableBackends() {
  std::vector<std::string> out;
  for (const Candidate& c : kCandidates) {
    if (Resolve(c) != nullptr) out.emplace_back(c.name);
  }
  return out;
}

}  // namespace tswarp::dtw::simd
