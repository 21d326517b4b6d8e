#pragma once
// Shared pieces of the measuring program: the clock, the request log, the
// benchmark's own span recorder, result checks, operand buffers and the
// JSON result writer.  Everything here measures the library from outside:
// it calls only public entry points and reads only public counters.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/util/aligned_buffer.h"

namespace perfbench {

using fmm::index_t;

// Seconds on the library tracer's steady clock, so the benchmark's spans
// and the library's FMM_TRACE spans share one time base.
double now_s();

struct Args {
  std::string workload;
  std::string mode = "run";  // run | setup | probe
  std::string out;           // result JSON path
  std::string spans;         // benchmark span JSON path ("" = spans off)
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

// The three front doors every workload drives.
enum class Path { kGemm = 0, kExplicit = 1, kAuto = 2 };

struct Request {
  Path path = Path::kAuto;
  bool f32 = false;
  double flops = 0.0;  // useful 2mnk (summed over batch items)
  double lat_s = 0.0;  // call/submit until the result is back
  double end_s = 0.0;  // completion time, relative to the window start
  bool ok = true;      // Status OK and the result passed its check
};

// --- Spans -------------------------------------------------------------------
// The benchmark's own spans: name, layer, start, end, parent span and
// request id, kept in memory and written as Chrome trace-event JSON at exit
// (the same format and clock as the library's FMM_TRACE output).  Disabled
// spans cost one branch.
struct SpanRecord {
  const char* name;
  const char* layer;
  double start_s;
  double end_s;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
};

class SpanLog {
 public:
  void enable() { on_ = true; }
  bool on() const { return on_; }
  std::uint64_t next_id();
  void record(const SpanRecord& r);
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::uint64_t next_ = 1;
  std::vector<SpanRecord> spans_;
};

SpanLog& spans();

// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* layer_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_ = 0.0;
};

// --- Operands ------------------------------------------------------------------
// Dense row-major matrix of either element type, 64-byte aligned like the
// library's own Matrix.
template <typename T>
struct Mat {
  index_t rows = 0, cols = 0;
  fmm::AlignedBuffer<T> buf;

  Mat() = default;
  Mat(index_t r, index_t c) : rows(r), cols(c), buf(static_cast<std::size_t>(r * c)) {}
  T* data() { return buf.data(); }
  const T* data() const { return buf.data(); }
  fmm::MatViewT<T> view() { return {data(), rows, cols, cols}; }
  fmm::ConstMatViewT<T> cview() const { return {data(), rows, cols, cols}; }
  void zero();
  void fill_random(std::uint64_t seed);  // uniform in [-1, 1)
};

// One-level plan of the catalog's best <mt,kt,nt> algorithm.
fmm::Plan plan_of(int mt, int kt, int nt, fmm::Variant v);
// Useful flops of C += A * B: 2mnk.
double flops_of(index_t m, index_t n, index_t k);
double median(std::vector<double> v);

// --- Checks --------------------------------------------------------------------
// The test suite's tolerance model (tests/test_support.h tol_for /
// tol_for_f32): FMM levels loosen the bound by 8x, classical GEMM is
// levels = 0.
double tolerance(bool f32, index_t k, int levels);

// Levels a request actually ran: the plan's own levels plus one per
// recursive descent step the Engine takes above `cutoff`.
int levels_run(const fmm::Plan* plan, index_t m, index_t n, index_t k,
               index_t cutoff);

// max |C - ref| <= tol.
template <typename T>
bool matches(fmm::ConstMatViewT<T> c, fmm::ConstMatViewT<T> ref, double tol);

// Seeded Freivalds check for large shapes: C x against A (B x), each row
// allowed n * tol (the per-element bound summed over |x_j| <= 1).
template <typename T>
bool freivalds(fmm::ConstMatViewT<T> c, fmm::ConstMatViewT<T> a,
               fmm::ConstMatViewT<T> b, std::uint64_t seed, double tol);

// --- Process facts -------------------------------------------------------------
double peak_rss_mib();

// Samples the live thread count (/proc/self/task) every couple of
// milliseconds on its own thread, which it leaves out of the count.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();  // stops and joins
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;  // last: it reads the members above
};

// --- Results -------------------------------------------------------------------
// One flat JSON object: numbers, strings and raw JSON fragments by key.
class Result {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void raw(const std::string& key, const std::string& json);
  bool write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_quote(const std::string& s);

// Request log -> columns of the result file; metrics are computed from them
// by perfbench/run.py.
void write_requests(Result& r, const std::vector<Request>& reqs);

// Engine counters as a JSON object (stats() fields).
std::string stats_json(const fmm::Engine::CacheStats& s);
fmm::Engine::CacheStats stats_delta(const fmm::Engine::CacheStats& after,
                                    const fmm::Engine::CacheStats& before);

// Host fingerprint: CPU model, nproc, cache sizes, active kernels and their
// calibrated rates.
void host_fingerprint(Result& r);

// Entry points (workloads.cc, probes.cc).
int run_workload(const Args& args);
int run_probes(const Args& args);

}  // namespace perfbench
