#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/arch/cache_info.h"
#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/core/recursive.h"
#include "src/obs/trace.h"
#include "src/util/prng.h"

namespace perfbench {

double now_s() { return static_cast<double>(fmm::obs::now_ns()) * 1e-9; }

// --- Spans -------------------------------------------------------------------

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_++;
}

void SpanLog::record(const SpanRecord& r) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(r);
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":2,\"tid\":0,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",\n", s.name, s.layer, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

namespace {
thread_local std::uint64_t t_open_span = 0;
}  // namespace

Span::Span(const char* name, const char* layer, std::uint64_t request)
    : name_(name), layer_(layer), request_(request) {
  if (!spans().on()) return;
  id_ = spans().next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = now_s();
}

Span::~Span() {
  if (id_ == 0) return;
  spans().record({name_, layer_, start_, now_s(), id_, parent_, request_});
  t_open_span = parent_;
}

// --- Operands ------------------------------------------------------------------

template <typename T>
void Mat<T>::zero() {
  std::memset(data(), 0, static_cast<std::size_t>(rows * cols) * sizeof(T));
}

template <typename T>
void Mat<T>::fill_random(std::uint64_t seed) {
  fmm::Xoshiro256 rng(seed);
  T* p = data();
  for (index_t i = 0; i < rows * cols; ++i)
    p[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
}

template struct Mat<double>;
template struct Mat<float>;

fmm::Plan plan_of(int mt, int kt, int nt, fmm::Variant v) {
  return fmm::make_plan({fmm::catalog::best(mt, kt, nt)}, v);
}

double flops_of(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Checks --------------------------------------------------------------------

double tolerance(bool f32, index_t k, int levels) {
  const double base = f32 ? 1e-4 : 1e-11;
  return base * static_cast<double>(std::max<index_t>(k, 1)) *
         (levels <= 1 ? 1 : 8);
}

int levels_run(const fmm::Plan* plan, index_t m, index_t n, index_t k,
               index_t cutoff) {
  if (plan == nullptr) return 0;
  int levels = plan->num_levels();
  while (cutoff > 0 && fmm::should_recurse(*plan, m, n, k, cutoff)) {
    ++levels;
    m /= plan->Mt();
    n /= plan->Nt();
    k /= plan->Kt();
  }
  return levels;
}

template <typename T>
bool matches(fmm::ConstMatViewT<T> c, fmm::ConstMatViewT<T> ref, double tol) {
  for (index_t i = 0; i < c.rows(); ++i) {
    const T* cr = c.row(i);
    const T* rr = ref.row(i);
    for (index_t j = 0; j < c.cols(); ++j) {
      const double d = std::fabs(static_cast<double>(cr[j]) - rr[j]);
      if (!(d <= tol)) return false;  // also rejects NaN
    }
  }
  return true;
}

template <typename T>
bool freivalds(fmm::ConstMatViewT<T> c, fmm::ConstMatViewT<T> a,
               fmm::ConstMatViewT<T> b, std::uint64_t seed, double tol) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  fmm::Xoshiro256 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n)), bx(static_cast<std::size_t>(k));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  for (index_t p = 0; p < k; ++p) {
    const T* br = b.row(p);
    double s = 0.0;
    for (index_t j = 0; j < n; ++j) s += br[j] * x[j];
    bx[p] = s;
  }
  const double row_tol = tol * static_cast<double>(n);
  for (index_t i = 0; i < m; ++i) {
    const T* cr = c.row(i);
    const T* ar = a.row(i);
    double cx = 0.0, abx = 0.0;
    for (index_t j = 0; j < n; ++j) cx += cr[j] * x[j];
    for (index_t p = 0; p < k; ++p) abx += ar[p] * bx[p];
    if (!(std::fabs(cx - abx) <= row_tol)) return false;
  }
  return true;
}

template bool matches<double>(fmm::ConstMatView, fmm::ConstMatView, double);
template bool matches<float>(fmm::ConstMatViewF32, fmm::ConstMatViewF32, double);
template bool freivalds<double>(fmm::ConstMatView, fmm::ConstMatView,
                                fmm::ConstMatView, std::uint64_t, double);
template bool freivalds<float>(fmm::ConstMatViewF32, fmm::ConstMatViewF32,
                               fmm::ConstMatViewF32, std::uint64_t, double);

// --- Process facts -------------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {
int live_threads() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return 0;
  int count = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++count;
  }
  closedir(d);
  return count;
}
}  // namespace

ThreadSampler::ThreadSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const int live = live_threads() - 1;  // not this sampler
          if (live > peak_.load()) peak_.store(live);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

// --- Results -------------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}
}  // namespace

void Result::num(const std::string& key, double v) {
  fields_.emplace_back(key, json_number(v));
}
void Result::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_quote(v));
}
void Result::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

bool Result::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    f << (i == 0 ? "\n" : ",\n") << json_quote(fields_[i].first) << ": "
      << fields_[i].second;
  }
  f << "\n}\n";
  f.close();
  return static_cast<bool>(f);
}

void write_requests(Result& r, const std::vector<Request>& reqs) {
  std::vector<double> path, f32, flops, lat, end, ok;
  for (const Request& q : reqs) {
    path.push_back(static_cast<double>(q.path));
    f32.push_back(q.f32 ? 1 : 0);
    flops.push_back(q.flops);
    lat.push_back(q.lat_s);
    end.push_back(q.end_s);
    ok.push_back(q.ok ? 1 : 0);
  }
  r.raw("requests", "{\"path\": " + json_array(path) +
                        ", \"f32\": " + json_array(f32) +
                        ", \"flops\": " + json_array(flops) +
                        ", \"lat_s\": " + json_array(lat) +
                        ", \"end_s\": " + json_array(end) +
                        ", \"ok\": " + json_array(ok) + "}");
}

std::string stats_json(const fmm::Engine::CacheStats& s) {
  auto kv = [](const char* k, double v, bool last = false) {
    return json_quote(k) + ": " + json_number(v) + (last ? "" : ", ");
  };
  return "{" + kv("hits", s.hits) + kv("misses", s.misses) +
         kv("evictions", s.evictions) + kv("choice_hits", s.choice_hits) +
         kv("choice_misses", s.choice_misses) +
         kv("history_observations", s.history_observations) +
         kv("history_hits", s.history_hits) +
         kv("history_overrides", s.history_overrides) +
         kv("recursive_runs", s.recursive_runs, true) + "}";
}

fmm::Engine::CacheStats stats_delta(const fmm::Engine::CacheStats& after,
                                    const fmm::Engine::CacheStats& before) {
  fmm::Engine::CacheStats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  d.choice_hits -= before.choice_hits;
  d.choice_misses -= before.choice_misses;
  d.history_observations -= before.history_observations;
  d.history_hits -= before.history_hits;
  d.history_overrides -= before.history_overrides;
  d.recursive_runs -= before.recursive_runs;
  return d;
}

void host_fingerprint(Result& r) {
  const auto& topo = fmm::arch::cache_topology();
  const fmm::KernelInfo& k64 = fmm::active_kernel(fmm::DType::kF64);
  const fmm::KernelInfo& k32 = fmm::active_kernel(fmm::DType::kF32);
  r.raw("host",
        "{\"cpu_model\": " + json_quote(topo.cpu_model) +
            ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
            ", \"l2_bytes\": " + std::to_string(topo.l2_bytes) +
            ", \"l3_bytes\": " + std::to_string(topo.l3_bytes) +
            ", \"kernel_f64\": " + json_quote(k64.name) +
            ", \"kernel_f32\": " + json_quote(k32.name) +
            ", \"kernel_f64_gflops\": " +
            json_number(fmm::arch::kernel_gflops(k64)) +
            ", \"kernel_f32_gflops\": " +
            json_number(fmm::arch::kernel_gflops(k32)) + "}");
}

}  // namespace perfbench
