// Live-GVM benchmark (see README.md in this directory).
//
// Runs one of four closed-loop workloads against an in-process
// rt::RtServer, using only the public API: RtServer / RtClient /
// KernelRegistry, the server's stats, scheduler, pager and exec counters,
// and the obs tracer. Every job gets fresh seeded inputs and its output is
// checked against the benchmark's own computation. An untraced run
// (--trace 0) prints the end-to-end metrics; a traced run (--trace 1)
// prints the per-layer breakdown. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <mqueue.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "kernels/cg.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"

using namespace vgpu;

namespace {

using Clock = std::chrono::steady_clock;

// Run shape. Warm-up lets lazy set-up (kernel caches, first page faults)
// finish before timing; a window is a block of consecutive job
// completions sized from the warm-up rate to last about kWindowS.
constexpr double kWarmupS = 0.5;
constexpr double kWindowS = 0.2;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Set-ups in the traced pass (medians of the timed set-up calls).
constexpr int kTracedSetupReps = 3;
/// Job records kept per tenant (the latest ones win). Preallocated and
/// touched before the first set-up so the benchmark's own memory does not
/// grow with throughput and skew peak_rss_mb.
constexpr std::size_t kRecordCapacity = 1 << 17;
/// Span-ring records per thread in the traced pass.
constexpr std::size_t kSpanRing = 1 << 17;
/// Server-side bound on one STP wait: a hung job fails the run instead of
/// hanging it.
constexpr std::chrono::milliseconds kDoneTimeout{20000};

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double us_between(SimTime a, SimTime b) {
  return 1e-3 * static_cast<double>(b - a);
}

// --------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// -------------------------------------------------------------- inputs

/// SplitMix64. Every tenant draws from its own stream seeded from (run
/// seed, tenant id), so a seed fixes every input of a run.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return next() % n; }
  /// Fills `out` with floats uniform in [lo, hi), two per draw.
  void fill(float* out, std::size_t n, float lo, float hi) {
    const float scale = (hi - lo) * 0x1.0p-24f;
    std::size_t i = 0;
    for (; i + 1 < n; i += 2) {
      const std::uint64_t z = next();
      out[i] = lo + scale * static_cast<float>(z & 0xffffff);
      out[i + 1] = lo + scale * static_cast<float>((z >> 32) & 0xffffff);
    }
    if (i < n) out[i] = lo + scale * static_cast<float>(next() & 0xffffff);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t tenant_seed(std::uint64_t seed, int tenant) {
  Rng mix(seed * 0x100000001b3ull + static_cast<std::uint64_t>(tenant));
  return mix.next();
}

// ---------------------------------------------------------------- jobs

/// One job as the client saw it. `begin` is on the server tracer's clock
/// (shared with the server's spans); durations are the benchmark's own
/// timing of the public calls.
struct JobRecord {
  SimTime begin = 0;
  float job_us = 0;
  float snd_us = 0;
  float str_us = 0;
  float stp_us = 0;  // wait_done(): every STP poll of the job
  float rcv_us = 0;
  float launch_us = 0;
};

/// Fixed-capacity ring of job records (keeps the latest).
class RecordRing {
 public:
  RecordRing() : slots_(kRecordCapacity) {
    std::memset(static_cast<void*>(slots_.data()), 0,
                slots_.size() * sizeof(JobRecord));
  }
  void add(const JobRecord& r) { slots_[count_++ % slots_.size()] = r; }
  /// Oldest first.
  std::vector<JobRecord> ordered() const {
    std::vector<JobRecord> out;
    const std::size_t cap = slots_.size();
    const std::size_t first = count_ > cap ? count_ - cap : 0;
    for (std::size_t i = first; i < count_; ++i) out.push_back(slots_[i % cap]);
    return out;
  }

 private:
  std::vector<JobRecord> slots_;
  std::size_t count_ = 0;
};

enum class Outcome { kOk, kWrong, kError };

/// Timed set-up calls, for the per-layer breakdown.
struct SetupCalls {
  std::vector<double> server_start_ms;
  std::vector<double> req_ms;
  std::vector<double> upload_graph_ms;
};

int kernel_id(const char* name) {
  auto id = rt::builtin_registry().id_of(name);
  if (!id.ok()) {
    std::fprintf(stderr, "livebench: kernel %s not registered\n", name);
    std::exit(1);
  }
  return *id;
}

/// One tenant: a session plus its input stream and output check.
class Tenant {
 public:
  Tenant(int id, std::uint64_t seed) : id_(id), rng_(tenant_seed(seed, id)) {}
  virtual ~Tenant() = default;
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  int id() const { return id_; }
  RecordRing& records() { return records_; }

  /// Connects, REQs and (graph tenants) captures and uploads.
  virtual Status attach(const std::string& prefix,
                        const rt::RtClientOptions& options,
                        SetupCalls& calls) = 0;
  /// One job: fresh inputs, the job's verbs, the output check.
  virtual Outcome run_job(const obs::Tracer& clock, JobRecord& rec) = 0;
  /// Solver iterations one job runs (graph tenants replay several).
  virtual int iterations() const { return 1; }

  /// RLS, then closes the session's client-side resources.
  Status release() {
    Status st = client_.has_value() ? client_->rls() : Status::Ok();
    client_.reset();
    return st;
  }

 protected:
  Status connect(const std::string& prefix, const rt::RtClientOptions& options,
                 Bytes bytes_in, Bytes bytes_out, int kernel,
                 const std::int64_t params[4], SetupCalls& calls) {
    auto client = rt::RtClient::connect(prefix, id_, bytes_in, bytes_out,
                                        options);
    if (!client.ok()) return client.status();
    client_.emplace(std::move(*client));
    const auto t0 = Clock::now();
    Status st = client_->req(kernel, params);
    calls.req_ms.push_back(1e3 * elapsed_s(t0));
    return st;
  }

  /// SND / STR / STP-until-done / RCV, each call timed.
  Status verb_cycle(const obs::Tracer& clock, JobRecord& rec) {
    rt::RtClient& c = *client_;
    const SimTime t0 = clock.now();
    Status st = c.snd();
    const SimTime t1 = clock.now();
    if (st.ok()) st = c.str();
    const SimTime t2 = clock.now();
    if (st.ok()) st = c.wait_done();
    const SimTime t3 = clock.now();
    if (st.ok()) st = c.rcv();
    const SimTime t4 = clock.now();
    rec.begin = t0;
    rec.snd_us = static_cast<float>(us_between(t0, t1));
    rec.str_us = static_cast<float>(us_between(t1, t2));
    rec.stp_us = static_cast<float>(us_between(t2, t3));
    rec.rcv_us = static_cast<float>(us_between(t3, t4));
    rec.job_us = static_cast<float>(us_between(t0, t4));
    return st;
  }

  Status timed_launch(const obs::Tracer& clock, JobRecord& rec) {
    const SimTime t0 = clock.now();
    Status st = client_->launch_graph(1);
    const SimTime t1 = clock.now();
    rec.begin = t0;
    rec.launch_us = static_cast<float>(us_between(t0, t1));
    rec.job_us = rec.launch_us;
    return st;
  }

  int id_;
  Rng rng_;
  std::optional<rt::RtClient> client_;
  RecordRing records_;
};

/// vecadd C = A + B; the check recomputes every element sum.
class VecaddTenant final : public Tenant {
 public:
  VecaddTenant(int id, std::uint64_t seed, long n) : Tenant(id, seed), n_(n) {}

  Status attach(const std::string& prefix, const rt::RtClientOptions& options,
                SetupCalls& calls) override {
    const std::int64_t params[4] = {n_, 0, 0, 0};
    return connect(prefix, options, 2 * n_ * 4, n_ * 4, kernel_id("vecadd"),
                   params, calls);
  }

  Outcome run_job(const obs::Tracer& clock, JobRecord& rec) override {
    auto* in = reinterpret_cast<float*>(client_->input().data());
    const auto n = static_cast<std::size_t>(n_);
    rng_.fill(in, 2 * n, -1.0f, 1.0f);
    if (!verb_cycle(clock, rec).ok()) return Outcome::kError;
    const auto* out = reinterpret_cast<const float*>(client_->output().data());
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] != in[i] + in[n + i]) return Outcome::kWrong;
    }
    return Outcome::kOk;
  }

 private:
  long n_;
};

/// Black-Scholes over n options. Every option is checked for put-call
/// parity and the no-arbitrage call bounds; a random sample against the
/// closed form evaluated in double.
class BlackScholesTenant final : public Tenant {
 public:
  // The registry's kernel prices at r = 0.02, v = 0.30.
  static constexpr double kRate = 0.02;
  static constexpr double kVol = 0.30;
  static constexpr int kSampled = 64;

  BlackScholesTenant(int id, std::uint64_t seed, long n)
      : Tenant(id, seed), n_(n) {}

  Status attach(const std::string& prefix, const rt::RtClientOptions& options,
                SetupCalls& calls) override {
    const std::int64_t params[4] = {n_, 0, 0, 0};
    return connect(prefix, options, 3 * n_ * 4, 2 * n_ * 4,
                   kernel_id("blackscholes"), params, calls);
  }

  Outcome run_job(const obs::Tracer& clock, JobRecord& rec) override {
    const auto n = static_cast<std::size_t>(n_);
    auto* in = reinterpret_cast<float*>(client_->input().data());
    const float* s = in;
    const float* x = in + n;
    const float* t = in + 2 * n;
    rng_.fill(in, n, 5.0f, 30.0f);           // stock price
    rng_.fill(in + n, n, 1.0f, 100.0f);      // strike
    rng_.fill(in + 2 * n, n, 0.25f, 10.0f);  // years
    if (!verb_cycle(clock, rec).ok()) return Outcome::kError;
    const auto* call = reinterpret_cast<const float*>(client_->output().data());
    const float* put = call + n;
    for (std::size_t i = 0; i < n; ++i) {
      const float forward = s[i] - x[i] * std::exp(-static_cast<float>(kRate) * t[i]);
      const float tol = 1e-5f * (s[i] + x[i]) + 1e-5f;
      if (std::fabs((call[i] - put[i]) - forward) > tol) return Outcome::kWrong;
      if (call[i] < std::max(forward, 0.0f) - tol || call[i] > s[i] + tol) {
        return Outcome::kWrong;
      }
    }
    for (int k = 0; k < kSampled; ++k) {
      const std::size_t i = rng_.below(n);
      const double sd = s[i], xd = x[i], td = t[i];
      const double d1 = (std::log(sd / xd) + (kRate + 0.5 * kVol * kVol) * td) /
                        (kVol * std::sqrt(td));
      const double d2 = d1 - kVol * std::sqrt(td);
      const auto phi = [](double d) { return 0.5 * std::erfc(-d / std::sqrt(2.0)); };
      const double ref = sd * phi(d1) - xd * std::exp(-kRate * td) * phi(d2);
      if (std::fabs(call[i] - ref) > 2e-5 * (sd + xd) + 1e-4) return Outcome::kWrong;
    }
    return Outcome::kOk;
  }

 private:
  long n_;
};

/// CG on the registry's cg_step: a captured K-iteration graph, one
/// launch_graph per job. The check reruns plain CG in double with the
/// benchmark's own sparse product and compares both the iterate and its
/// residual ||b - A x||.
class CgGraphTenant final : public Tenant {
 public:
  CgGraphTenant(int id, std::uint64_t seed, int n, int nz, int iters)
      : Tenant(id, seed),
        n_(n),
        nz_(nz),
        iters_(iters),
        // The step kernel's matrix is the NPB generator's (n, nz) matrix
        // with diagonal shift 10; the check needs the same A.
        a_(kernels::cg_make_matrix(n, nz, 10.0)) {}

  Status attach(const std::string& prefix, const rt::RtClientOptions& options,
                SetupCalls& calls) override {
    const std::int64_t vec = static_cast<std::int64_t>(n_) * 8;
    const std::int64_t params[4] = {n_, nz_, 0, 0};
    const int step = kernel_id("cg_step");
    Status st = connect(prefix, options, 4 * vec, 3 * vec, step, params, calls);
    if (!st.ok()) return st;
    const auto t0 = Clock::now();
    // Data area: in [b | x | r | p], out [x' | r' | p']. Each iteration is
    // one kernel node plus one feedback copy of [x' | r' | p'] over
    // [x | r | p], so every graph level holds a single node (several nodes
    // on one level abort the sharded replay; see CHANGES.md).
    if (!(st = client_->begin_capture()).ok()) return st;
    int prev = -1;
    for (int it = 0; it < iters_; ++it) {
      auto k = client_->capture_kernel(
          step, params, 0, 4 * vec, 4 * vec, 3 * vec,
          prev >= 0 ? std::span<const int>(&prev, 1) : std::span<const int>());
      if (!k.ok()) return k.status();
      if (it + 1 == iters_) break;
      const int dep[1] = {*k};
      auto c = client_->capture_copy(4 * vec, vec, 3 * vec, dep);
      if (!c.ok()) return c.status();
      prev = *c;
    }
    if (auto h = client_->end_capture(); !h.ok()) return h.status();
    st = client_->upload_graph(1);
    calls.upload_graph_ms.push_back(1e3 * elapsed_s(t0));
    return st;
  }

  int iterations() const override { return iters_; }

  Outcome run_job(const obs::Tracer& clock, JobRecord& rec) override {
    const auto n = static_cast<std::size_t>(n_);
    std::vector<double>& b = b_;
    b.resize(n);
    for (double& v : b) v = rng_.uniform(-1.0, 1.0);
    auto* in = reinterpret_cast<double*>(client_->input().data());
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = b[i];
      in[n + i] = 0.0;
      in[2 * n + i] = b[i];
      in[3 * n + i] = b[i];
    }
    if (!timed_launch(clock, rec).ok()) return Outcome::kError;
    const auto* x = reinterpret_cast<const double*>(client_->output().data());
    reference_cg();
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::fabs(x[i] - xr_[i]));
      scale = std::max(scale, std::fabs(xr_[i]));
    }
    const double res = residual(x);
    const double res_ref = residual(xr_.data());
    const double b_norm = std::sqrt(dot(b.data(), b.data()));
    if (!(diff <= 1e-9 * scale + 1e-12)) return Outcome::kWrong;
    if (!(std::fabs(res - res_ref) <= 1e-9 * b_norm)) return Outcome::kWrong;
    if (!(res < b_norm)) return Outcome::kWrong;  // CG reduced the residual
    return Outcome::kOk;
  }

 private:
  double dot(const double* u, const double* v) const {
    double acc = 0.0;
    for (int i = 0; i < n_; ++i) acc += u[i] * v[i];
    return acc;
  }
  void spmv(const double* v, double* y) const {
    for (int i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (int e = a_.row_ptr[static_cast<std::size_t>(i)];
           e < a_.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
        acc += a_.val[static_cast<std::size_t>(e)] *
               v[a_.col[static_cast<std::size_t>(e)]];
      }
      y[i] = acc;
    }
  }
  double residual(const double* x) {
    const auto n = static_cast<std::size_t>(n_);
    ax_.resize(n);
    spmv(x, ax_.data());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = b_[i] - ax_[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }
  /// Plain CG from x = 0, iters_ iterations, into xr_.
  void reference_cg() {
    const auto n = static_cast<std::size_t>(n_);
    xr_.assign(n, 0.0);
    r_ = b_;
    p_ = b_;
    ap_.resize(n);
    double rho = dot(r_.data(), r_.data());
    for (int it = 0; it < iters_; ++it) {
      spmv(p_.data(), ap_.data());
      const double alpha = rho / dot(p_.data(), ap_.data());
      for (std::size_t i = 0; i < n; ++i) {
        xr_[i] += alpha * p_[i];
        r_[i] -= alpha * ap_[i];
      }
      const double rho_next = dot(r_.data(), r_.data());
      const double beta = rho_next / rho;
      rho = rho_next;
      for (std::size_t i = 0; i < n; ++i) p_[i] = r_[i] + beta * p_[i];
    }
  }

  int n_, nz_, iters_;
  kernels::CsrMatrix a_;
  std::vector<double> b_, xr_, r_, p_, ap_, ax_;
};

/// MG on the registry's mg_step: a captured K-V-cycle graph whose kernel
/// nodes write each iterate to its own output slot, one launch_graph per
/// job. The check evaluates ||v - A u_k|| with the benchmark's own
/// 27-point operator and requires it to fall on every V-cycle.
class MgGraphTenant final : public Tenant {
 public:
  // NPB operator A by Manhattan degree: center, face, edge, corner.
  static constexpr double kA[4] = {-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0};
  static constexpr int kCharges = 10;

  MgGraphTenant(int id, std::uint64_t seed, int n, int iters)
      : Tenant(id, seed), n_(n), iters_(iters) {}

  Status attach(const std::string& prefix, const rt::RtClientOptions& options,
                SetupCalls& calls) override {
    const std::int64_t grid = cells() * 8;
    const std::int64_t params[4] = {n_, 0, 0, 0};
    const int step = kernel_id("mg_step");
    Status st = connect(prefix, options, 2 * grid, iters_ * grid, step, params,
                        calls);
    if (!st.ok()) return st;
    const auto t0 = Clock::now();
    // Data area: in [u | v], out [u_1 | ... | u_K]. V-cycle k writes slot
    // k; a copy feeds it back into u for cycle k + 1.
    if (!(st = client_->begin_capture()).ok()) return st;
    int prev = -1;
    for (int it = 0; it < iters_; ++it) {
      auto k = client_->capture_kernel(
          step, params, 0, 2 * grid, (2 + it) * grid, grid,
          prev >= 0 ? std::span<const int>(&prev, 1) : std::span<const int>());
      if (!k.ok()) return k.status();
      if (it + 1 == iters_) break;
      const int dep[1] = {*k};
      auto c = client_->capture_copy((2 + it) * grid, 0, grid, dep);
      if (!c.ok()) return c.status();
      prev = *c;
    }
    if (auto h = client_->end_capture(); !h.ok()) return h.status();
    st = client_->upload_graph(1);
    calls.upload_graph_ms.push_back(1e3 * elapsed_s(t0));
    return st;
  }

  int iterations() const override { return iters_; }

  Outcome run_job(const obs::Tracer& clock, JobRecord& rec) override {
    const auto c = static_cast<std::size_t>(cells());
    auto* in = reinterpret_cast<double*>(client_->input().data());
    double* v = in + c;
    std::fill(in, in + 2 * c, 0.0);
    // Zero-sum right-hand side (the periodic operator's range): +1 and -1
    // charges at random cells.
    for (int q = 0; q < kCharges; ++q) {
      v[rng_.below(c)] += 1.0;
      v[rng_.below(c)] -= 1.0;
    }
    if (!timed_launch(clock, rec).ok()) return Outcome::kError;
    const auto* out = reinterpret_cast<const double*>(client_->output().data());
    double prev = 0.0;
    for (std::size_t i = 0; i < c; ++i) prev += v[i] * v[i];
    prev = std::sqrt(prev);  // ||v - A 0||
    if (prev == 0.0) return Outcome::kOk;  // every charge cancelled
    for (int it = 0; it < iters_; ++it) {
      const double res = residual(out + static_cast<std::size_t>(it) * c, v);
      if (!(res < prev)) return Outcome::kWrong;
      prev = res;
    }
    return Outcome::kOk;
  }

 private:
  std::int64_t cells() const { return static_cast<std::int64_t>(n_) * n_ * n_; }

  double residual(const double* u, const double* v) const {
    const int n = n_;
    const auto at = [n, u](int i, int j, int k) {
      i = (i + n) % n;
      j = (j + n) % n;
      k = (k + n) % n;
      return u[(static_cast<std::size_t>(i) * n + j) * n + k];
    };
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        for (int k = 0; k < n; ++k) {
          double sum[4] = {0.0, 0.0, 0.0, 0.0};
          for (int di = -1; di <= 1; ++di) {
            for (int dj = -1; dj <= 1; ++dj) {
              for (int dk = -1; dk <= 1; ++dk) {
                sum[std::abs(di) + std::abs(dj) + std::abs(dk)] +=
                    at(i + di, j + dj, k + dk);
              }
            }
          }
          const double au =
              kA[0] * sum[0] + kA[1] * sum[1] + kA[2] * sum[2] + kA[3] * sum[3];
          const double d = v[(static_cast<std::size_t>(i) * n + j) * n + k] - au;
          acc += d * d;
        }
      }
    }
    return std::sqrt(acc);
  }

  int n_, iters_;
};

// ----------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string tag;  // IPC prefix component
  int tenants = 0;
  /// SPMD barrier waves: every tenant must run the same number of rounds.
  bool lockstep = false;
  rt::RtServerConfig config;
  rt::RtClientOptions client;
  std::function<std::unique_ptr<Tenant>(int id, std::uint64_t seed)> make;
  /// kernels.compute_us: the workload's kernel work for one job, called
  /// directly through the registry with no server.
  std::function<double(const rt::RtServerConfig&)> compute_us;
};

/// Median microseconds of `fn` over ~0.3 s of calls (at least 5).
double time_calls(const std::function<void()>& fn) {
  std::vector<double> samples;
  const auto t_end = Clock::now() + std::chrono::milliseconds(300);
  while (samples.size() < 5 || (Clock::now() < t_end && samples.size() < 5000)) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(1e6 * elapsed_s(t0));
  }
  return median(std::move(samples));
}

/// Times `chain` back-to-back calls of `kernel` on a seeded input: the
/// sharded variant on an exec engine sized like the server's when the
/// workload runs sharded, else the serial function.
double registry_compute_us(const rt::RtServerConfig& config, const char* kernel,
                           Bytes in_bytes, Bytes out_bytes, std::int64_t p0,
                           std::int64_t p1, int chain,
                           const std::function<void(std::span<std::byte>)>& seed_input) {
  const rt::KernelRegistry& reg = rt::builtin_registry();
  const int id = kernel_id(kernel);
  std::vector<std::byte> in(static_cast<std::size_t>(in_bytes));
  std::vector<std::byte> out(static_cast<std::size_t>(out_bytes));
  seed_input(in);
  const std::int64_t params[4] = {p0, p1, 0, 0};
  double us = 0.0;
  if (config.exec == rt::ExecMode::kSharded) {
    exec::ExecConfig ec;
    ec.workers = config.workers;
    ec.oversubscribe = config.shard_oversubscribe;
    exec::ExecEngine engine(ec);
    const long cap = exec::occupancy_shard_cap(
        config.device, (*reg.find_geometry(id))(params));
    const ParallelFor pf = engine.executor(cap);
    const rt::RtShardedKernelFn& fn = *reg.find_sharded(id);
    us = time_calls([&] {
      for (int i = 0; i < chain; ++i) fn(in, out, params, pf);
    });
    engine.shutdown();
  } else {
    const rt::RtKernelFn& fn = *reg.find(id);
    us = time_calls([&] {
      for (int i = 0; i < chain; ++i) fn(in, out, params);
    });
  }
  std::printf("kernel %s x%d: %.1f us\n", kernel, chain, us);
  return us;
}

void seed_floats(std::span<std::byte> in, float lo, float hi) {
  Rng rng(1);
  rng.fill(reinterpret_cast<float*>(in.data()), in.size() / 4, lo, hi);
}

// Workload sizes. small_jobs is control-plane bound (a ~1K vecadd is
// ~1 us of compute); spmd_staged moves MiB-scale inputs through staging;
// oversub_paged's four working sets add up to 3x the modeled device.
constexpr long kSmallN = 1024;
constexpr long kBsOptions = 65536;
constexpr int kCgN = 8192;
constexpr int kCgNz = 12;
constexpr int kCgIters = 16;
constexpr int kMgN = 16;
constexpr int kMgIters = 4;
constexpr long kPagedN = 131072;  // 1.5 MiB working set per tenant
constexpr Bytes kPage = 64 * kKiB;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  rt::RtServerConfig& c = w.config;
  if (name == "small_jobs") {
    w.tag = "sj";
    w.tenants = 4;
    c.transport = ipc::TransportKind::kShmRing;
    c.arena_size = 8 * kMiB;
    c.data_plane = rt::DataPlane::kZeroCopy;
    c.exec = rt::ExecMode::kSerial;
    c.workers = 1;
    c.sched.policy = sched::Policy::kFairShare;
    w.client.transport = ipc::TransportKind::kShmRing;
    w.client.arena = true;
    w.make = [](int id, std::uint64_t seed) {
      return std::make_unique<VecaddTenant>(id, seed, kSmallN);
    };
    w.compute_us = [](const rt::RtServerConfig& c) {
      return registry_compute_us(c, "vecadd", 2 * kSmallN * 4, kSmallN * 4,
                                 kSmallN, 0, 1,
                                 [](auto in) { seed_floats(in, -1, 1); });
    };
  } else if (name == "spmd_staged") {
    w.tag = "sp";
    w.tenants = 4;
    w.lockstep = true;
    c.transport = ipc::TransportKind::kMessageQueue;
    c.data_plane = rt::DataPlane::kStaged;
    c.exec = rt::ExecMode::kSharded;
    // Workers and clients take turns: the clients sleep in STP polls while
    // the wave computes, and the workers idle while clients check and
    // refill their inputs.
    c.workers = 4;
    c.sched.policy = sched::Policy::kBarrierCoFlush;
    c.expected_clients = 4;
    w.client.transport = ipc::TransportKind::kMessageQueue;
    w.make = [](int id, std::uint64_t seed) {
      return std::make_unique<BlackScholesTenant>(id, seed, kBsOptions);
    };
    w.compute_us = [](const rt::RtServerConfig& c) {
      return registry_compute_us(c, "blackscholes", 3 * kBsOptions * 4,
                                 2 * kBsOptions * 4, kBsOptions, 0, 1,
                                 [](auto in) { seed_floats(in, 5, 30); });
    };
  } else if (name == "graph_solver") {
    w.tag = "gs";
    w.tenants = 2;
    c.transport = ipc::TransportKind::kShmRing;
    c.data_plane = rt::DataPlane::kZeroCopy;
    c.exec = rt::ExecMode::kSharded;
    c.workers = 3;
    c.sched.policy = sched::Policy::kFairShare;
    w.client.transport = ipc::TransportKind::kShmRing;
    w.make = [](int id, std::uint64_t seed) -> std::unique_ptr<Tenant> {
      if (id == 0) {
        return std::make_unique<CgGraphTenant>(id, seed, kCgN, kCgNz, kCgIters);
      }
      return std::make_unique<MgGraphTenant>(id, seed, kMgN, kMgIters);
    };
    w.compute_us = [](const rt::RtServerConfig& c) {
      const Bytes vec = static_cast<Bytes>(kCgN) * 8;
      const double cg = registry_compute_us(
          c, "cg_step", 4 * vec, 3 * vec, kCgN, kCgNz, kCgIters, [](auto in) {
            auto* d = reinterpret_cast<double*>(in.data());
            for (std::size_t i = 0; i < in.size() / 8; ++i) d[i] = 1.0;
          });
      const Bytes grid = static_cast<Bytes>(kMgN) * kMgN * kMgN * 8;
      const double mg = registry_compute_us(
          c, "mg_step", 2 * grid, grid, kMgN, 0, kMgIters, [](auto in) {
            auto* d = reinterpret_cast<double*>(in.data());
            d[in.size() / 8 - 1] = 1.0;
            d[in.size() / 16] = -1.0;
          });
      return 0.5 * (cg + mg);
    };
  } else if (name == "oversub_paged") {
    w.tag = "op";
    w.tenants = 4;
    c.transport = ipc::TransportKind::kShmRing;
    c.data_plane = rt::DataPlane::kZeroCopy;
    c.exec = rt::ExecMode::kSerial;
    c.workers = 1;
    c.sched.policy = sched::Policy::kTimeQuantum;
    // A quantum shorter than one job rotates the device on every job, so
    // each job pages its working set in: a steady pager-bound regime.
    // (With multi-job quanta the rotation pattern flipped between runs.)
    c.sched.quantum = milliseconds(0.5);
    c.vmem.enabled = true;
    c.vmem.page_size = kPage;
    c.vmem.device_capacity = 4 * (3 * kPagedN * 4) / 3;
    c.vmem.host_ledger = 64 * kMiB;
    w.client.transport = ipc::TransportKind::kShmRing;
    w.make = [](int id, std::uint64_t seed) {
      return std::make_unique<VecaddTenant>(id, seed, kPagedN);
    };
    w.compute_us = [](const rt::RtServerConfig& c) {
      return registry_compute_us(c, "vecadd", 2 * kPagedN * 4, kPagedN * 4,
                                 kPagedN, 0, 1,
                                 [](auto in) { seed_floats(in, -1, 1); });
    };
  } else {
    w.tenants = 0;
  }
  w.client.done_timeout = kDoneTimeout;
  return w;
}

// --------------------------------------------------------------- passes

/// Server counters, read after stop() (totals over the server's life).
struct Counters {
  long requests = 0, waits_sent = 0, bytes_copied = 0, overlap_bytes = 0;
  long spin_wakeups = 0, doorbell_blocks = 0, serve_cpu_ns = 0;
  long ctrl_verbs = 0, ctrl_stp = 0, ctrl_graph = 0, batches = 0;
  long graph_replays = 0, graph_nodes_fused = 0;
  long sched_grants = 0, sched_pumps = 0, rotations = 0, resident_holds = 0;
  long launches = 0, shards = 0, steals = 0;
  long page_ins = 0, page_outs = 0, faults = 0, pin_shortfalls = 0;
  long prefetch_issued = 0, prefetch_hits = 0;
};

Counters read_counters(const rt::RtServer& server) {
  Counters k;
  const rt::RtServerStats& s = server.stats();
  k.requests = s.requests.load();
  k.waits_sent = s.waits_sent.load();
  k.bytes_copied = s.bytes_copied.load();
  k.overlap_bytes = s.overlap_bytes.load();
  k.spin_wakeups = s.spin_wakeups.load();
  k.doorbell_blocks = s.doorbell_blocks.load();
  k.serve_cpu_ns = s.serve_cpu_ns.load();
  k.ctrl_verbs = s.ctrl_snd.load() + s.ctrl_str.load() + s.ctrl_stp.load() +
                 s.ctrl_rcv.load() + s.ctrl_graph.load();
  k.ctrl_stp = s.ctrl_stp.load();
  k.ctrl_graph = s.ctrl_graph.load();
  for (const auto& b : s.batch_depth) k.batches += b.load();
  k.graph_replays = s.graph_replays.load();
  k.graph_nodes_fused = s.graph_nodes_fused.load();
  const sched::SchedStats& ss = server.scheduler().stats();
  k.sched_grants = ss.grants;
  k.sched_pumps = ss.pumps;
  k.rotations = ss.rotations;
  k.resident_holds = ss.resident_holds;
  const rt::RtExecCounters& e = server.exec_counters();
  k.launches = e.launches;
  k.shards = e.shards_executed;
  k.steals = e.steals;
  for (std::size_t d = 0; d < server.memory_domains(); ++d) {
    const vmem::PagerCounters& p = server.pager(d)->counters();
    k.page_ins += p.page_ins;
    k.page_outs += p.page_outs;
    k.faults += p.faults;
    k.pin_shortfalls += p.pin_shortfalls;
    k.prefetch_issued += p.prefetch_issued;
    k.prefetch_hits += p.prefetch_hits;
  }
  return k;
}

struct TenantRecords {
  int id = 0;
  std::vector<JobRecord> jobs;  // oldest first
};

struct PassResult {
  std::vector<double> setup_s;
  SetupCalls calls;
  std::vector<double> jobs_s;  // per window
  std::vector<double> cpu_ms;  // per window, per job
  std::vector<TenantRecords> records;
  long attempted = 0;
  long errors = 0;
  long wrong = 0;
  long leaks = 0;
  long completed = 0;   // jobs the measured server completed
  long iterations = 0;  // solver iterations in those jobs
  Counters counters;
  std::vector<obs::SpanRecord> spans;
  long spans_dropped = 0;
  std::vector<std::string> problems;
};

/// Removes, and counts, every IPC object still named under `prefix`:
/// POSIX shm segments (listed in /dev/shm) and the message queues the
/// protocol names (P_req, P_resp<k>).
long sweep_leaks(const std::string& prefix, int tenants) {
  long leaks = 0;
  const std::string stem = prefix.substr(1) + "_";
  if (DIR* dir = ::opendir("/dev/shm")) {
    std::vector<std::string> names;
    while (dirent* e = ::readdir(dir)) {
      if (std::strncmp(e->d_name, stem.c_str(), stem.size()) == 0) {
        names.emplace_back(e->d_name);
      }
    }
    ::closedir(dir);
    for (const std::string& name : names) {
      ++leaks;
      ::shm_unlink(("/" + name).c_str());
    }
  }
  std::vector<std::string> queues = {prefix + "_req"};
  for (int id = 0; id < tenants; ++id) {
    queues.push_back(prefix + "_resp" + std::to_string(id));
  }
  for (const std::string& q : queues) {
    const mqd_t fd = ::mq_open(q.c_str(), O_RDONLY);
    if (fd != static_cast<mqd_t>(-1)) {
      ++leaks;
      ::mq_close(fd);
      ::mq_unlink(q.c_str());
    }
  }
  return leaks;
}

/// RLS every session, waits for the server to recycle their slots, stops
/// it and checks that nothing is left behind.
void teardown(std::unique_ptr<rt::RtServer>& server,
              std::vector<std::unique_ptr<Tenant>>& tenants,
              const std::string& prefix, bool keep, PassResult& r) {
  for (auto& t : tenants) {
    ++r.attempted;
    Status st = t->release();
    if (!st.ok()) {
      ++r.errors;
      r.problems.push_back("rls tenant " + std::to_string(t->id()) + ": " +
                           st.to_string());
    }
  }
  const rt::RtServerStats& s = server->stats();
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (s.slots_recycled.load() < s.sessions_attached.load() &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();
  const long attached = s.sessions_attached.load() - s.slots_recycled.load();
  if (keep) {
    r.counters = read_counters(*server);
    r.spans = server->obs().tracer().collect();
    r.spans_dropped = server->obs().tracer().dropped();
  }
  server.reset();
  const long leaked = attached + sweep_leaks(prefix, static_cast<int>(tenants.size()));
  if (leaked != 0) {
    r.leaks += leaked;
    r.problems.push_back(prefix + ": " + std::to_string(leaked) +
                         " sessions or IPC objects left behind");
  }
}

/// Runs the tenants closed-loop for `seconds` after a warm-up, recording
/// windows and job records.
void drive(rt::RtServer& server, std::vector<std::unique_ptr<Tenant>>& tenants,
           const Workload& w, double seconds, PassResult& r) {
  const obs::Tracer& clock = server.obs().tracer();
  const long width = static_cast<long>(tenants.size());
  std::atomic<bool> stop{false};
  std::atomic<bool> abort{false};
  std::atomic<long> done{0};
  std::atomic<long> block{1};
  std::atomic<long> timed_from{LONG_MAX};
  std::atomic<long> end_round{LONG_MAX};
  std::mutex mu;
  struct Boundary {
    SimTime t;
    double cpu_s;
  };
  std::vector<Boundary> bounds;  // guarded by mu
  bounds.reserve(1 << 14);
  std::vector<long> attempted(tenants.size(), 0), errors(tenants.size(), 0),
      wrong(tenants.size(), 0);
  std::vector<std::string> first_error(tenants.size());

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      Tenant& tenant = *tenants[i];
      for (long round = 0;; ++round) {
        if (w.lockstep) {
          // A barrier wave needs every member: the first tenant to see
          // the stop fixes the last round, which all of them then run.
          if (stop.load()) {
            long unset = LONG_MAX;
            end_round.compare_exchange_strong(unset, round + 1);
          }
          if (round >= end_round.load()) break;
        } else if (stop.load()) {
          break;
        }
        if (abort.load()) break;
        JobRecord rec;
        ++attempted[i];
        const Outcome outcome = tenant.run_job(clock, rec);
        if (outcome == Outcome::kError) {
          ++errors[i];
          first_error[i] = "tenant " + std::to_string(tenant.id()) +
                           ": a verb failed in round " + std::to_string(round);
          abort.store(true);
          break;
        }
        if (outcome == Outcome::kWrong) ++wrong[i];
        const long n = done.fetch_add(1) + 1;
        const long from = timed_from.load(std::memory_order_acquire);
        if (n >= from && !stop.load()) {
          if (n > from) tenant.records().add(rec);
          if ((n - from) % block.load() == 0) {
            const Boundary b{clock.now(), process_cpu_s()};
            std::lock_guard<std::mutex> lock(mu);
            bounds.push_back(b);
          }
        }
      }
    });
  }

  const auto sleep_until = [&abort](Clock::time_point until) {
    while (Clock::now() < until && !abort.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  const auto t_warm = Clock::now();
  sleep_until(t_warm + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWarmupS)));
  const long warm_done = done.load();
  const double rate = static_cast<double>(warm_done) / elapsed_s(t_warm);
  // Windows span whole rounds of every tenant (whole barrier waves).
  const long rounds = std::max(1L, std::lround(rate * kWindowS / static_cast<double>(width)));
  block.store(rounds * width);
  timed_from.store((warm_done / width + 2) * width, std::memory_order_release);
  sleep_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)));
  stop.store(true);
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    r.attempted += attempted[i];
    r.errors += errors[i];
    r.wrong += wrong[i];
    if (!first_error[i].empty()) r.problems.push_back(first_error[i]);
    if (wrong[i] != 0) {
      r.problems.push_back("tenant " + std::to_string(tenants[i]->id()) + ": " +
                           std::to_string(wrong[i]) + " wrong outputs");
    }
  }
  r.completed = done.load();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    r.iterations += (attempted[i] - errors[i]) * tenants[i]->iterations();
  }
  const double per_block = static_cast<double>(block.load());
  for (std::size_t k = 1; k < bounds.size(); ++k) {
    const double dt = 1e-9 * static_cast<double>(bounds[k].t - bounds[k - 1].t);
    r.jobs_s.push_back(ratio(per_block, dt));
    r.cpu_ms.push_back(1e3 * (bounds[k].cpu_s - bounds[k - 1].cpu_s) / per_block);
  }
  for (auto& t : tenants) r.records.push_back({t->id(), t->records().ordered()});
}

/// `setup_reps` set-ups (server construction through the last attach and
/// graph upload), each but the last torn down at once; the last one is
/// driven for `seconds`.
PassResult run_pass(const Workload& w, std::uint64_t seed, double seconds,
                    bool traced, int setup_reps, const std::string& tag) {
  PassResult r;
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int id = 0; id < w.tenants; ++id) tenants.push_back(w.make(id, seed));
  for (int rep = 0; rep < setup_reps; ++rep) {
    const std::string prefix = "/lvb" + std::to_string(::getpid()) + "_" +
                               w.tag + "_" + tag + std::to_string(rep);
    rt::RtServerConfig config = w.config;
    config.prefix = prefix;
    config.obs.tracing = traced;
    config.obs.ring_capacity = kSpanRing;
    const auto t0 = Clock::now();
    auto server = std::make_unique<rt::RtServer>(config, rt::builtin_registry());
    Status st = server->start();
    r.calls.server_start_ms.push_back(1e3 * elapsed_s(t0));
    rt::RtClientOptions options = w.client;
    options.tracer = traced ? &server->obs().tracer() : nullptr;
    for (auto& t : tenants) {
      if (!st.ok()) break;
      ++r.attempted;
      st = t->attach(prefix, options, r.calls);
    }
    r.setup_s.push_back(elapsed_s(t0));
    const bool last = rep + 1 == setup_reps;
    if (!st.ok()) {
      ++r.errors;
      r.problems.push_back("set-up: " + st.to_string());
      teardown(server, tenants, prefix, false, r);
      return r;
    }
    if (last) drive(*server, tenants, w, seconds, r);
    teardown(server, tenants, prefix, last, r);
  }
  return r;
}

// -------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// job_p99_ms did not hold within any bound between identical runs on
// spmd_staged and oversub_paged, so it is reported with the per-layer
// metrics (from the untraced half of the traced run) instead.
constexpr MetricDef kEndToEnd[] = {
    {"jobs_s", "jobs/s"}, {"job_p50_ms", "ms"},  {"cpu_ms_per_job", "ms"},
    {"setup_s", "s"},     {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"tail.job_p99_ms", "ms"},
    {"client.snd_us", "us"},
    {"client.str_us", "us"},
    {"client.stp_us", "us"},
    {"client.rcv_us", "us"},
    {"client.req_ms", "ms"},
    {"server.start_ms", "ms"},
    {"client.upload_graph_ms", "ms"},
    {"client.launch_graph_us", "us"},
    {"ipc.msgs_per_job", "msgs/job"},
    {"ipc.stp_polls_per_job", "msgs/job"},
    {"ipc.doorbell_blocks_per_job", "count/job"},
    {"ipc.spin_wakeups_per_job", "count/job"},
    {"server.cpu_us_per_req", "us"},
    {"server.waits_per_job", "count/job"},
    {"server.batch_depth_mean", "count"},
    {"server.grants_per_pump_mean", "count"},
    {"dataplane.bytes_copied_per_job", "bytes/job"},
    {"dataplane.overlap_bytes_per_job", "bytes/job"},
    {"sched.queue_wait_us", "us"},
    {"sched.flush_barrier_us", "us"},
    {"sched.rotations_per_job", "count/job"},
    {"sched.resident_holds_per_job", "count/job"},
    {"exec.copy_in_us", "us"},
    {"exec.kernel_us", "us"},
    {"exec.copy_out_us", "us"},
    {"exec.shards_per_launch", "count"},
    {"exec.steals_per_launch", "count"},
    {"kernels.compute_us", "us"},
    {"graph.msgs_per_iter", "msgs/iter"},
    {"graph.replay_us", "us"},
    {"graph.nodes_fused_per_replay", "count"},
    {"vmem.page_ins_per_job", "pages/job"},
    {"vmem.page_outs_per_job", "pages/job"},
    {"vmem.faults_per_job", "count/job"},
    {"vmem.pin_shortfalls", "count"},
    {"vmem.prefetch_hits_per_issued", "ratio"},
    {"vmem.page_in_us", "us"},
    {"vmem.page_out_us", "us"},
    {"obs.tracing_overhead_pct", "%"},
    {"obs.spans_dropped", "count"},
    {"addup.client_verbs_unexplained_pct", "%"},
    {"addup.server_phases_unexplained_pct", "%"},
};

/// Unexplained-share tolerance of the add-up checks (ROADMAP item 1).
constexpr double kAddupTolerancePct = 10.0;

std::vector<JobRecord> all_jobs(const PassResult& r) {
  std::vector<JobRecord> out;
  for (const TenantRecords& t : r.records) {
    out.insert(out.end(), t.jobs.begin(), t.jobs.end());
  }
  return out;
}

std::vector<double> field(const std::vector<JobRecord>& jobs,
                          float JobRecord::*member) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const JobRecord& j : jobs) out.push_back(j.*member);
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void end_to_end(const PassResult& r, std::map<std::string, double>& m) {
  const std::vector<double> job_us = field(all_jobs(r), &JobRecord::job_us);
  m["jobs_s"] = median(r.jobs_s);
  m["job_p50_ms"] = 1e-3 * quantile(job_us, 0.50);
  m["cpu_ms_per_job"] = median(r.cpu_ms);
  m["setup_s"] = median(r.setup_s);
  m["peak_rss_mb"] = peak_rss_mib();
  std::printf("timed jobs %zu over %zu windows (jobs/s q1 %.1f q3 %.1f); "
              "set-ups %zu\n",
              job_us.size(), r.jobs_s.size(), quantile(r.jobs_s, 0.25),
              quantile(r.jobs_s, 0.75), r.setup_s.size());
}

std::vector<double> span_us(const std::vector<obs::SpanRecord>& spans,
                            obs::Phase phase) {
  std::vector<double> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.phase == phase) out.push_back(us_between(s.begin, s.end));
  }
  return out;
}

/// Add-up checks over the traced pass, per job matched by client lane and
/// time: server spans of client c that begin inside one of c's jobs belong
/// to that job. Jobs whose kernel (or graph) span was lost to ring
/// wrap-around are left out.
void addup(const PassResult& r, std::map<std::string, double>& m) {
  double job_sum = 0.0, verb_sum = 0.0, wait_sum = 0.0, server_sum = 0.0;
  long matched = 0;
  for (const TenantRecords& t : r.records) {
    std::vector<const obs::SpanRecord*> spans;
    for (const obs::SpanRecord& s : r.spans) {
      if (s.lane != t.id) continue;
      switch (s.phase) {
        case obs::Phase::kQueueWait:
        case obs::Phase::kCopyIn:
        case obs::Phase::kKernel:
        case obs::Phase::kCopyOut:
        case obs::Phase::kGraph:
          spans.push_back(&s);
          break;
        default:
          break;
      }
    }
    std::size_t k = 0;  // spans are sorted by begin (Tracer::collect)
    for (const JobRecord& j : t.jobs) {
      const SimTime end = j.begin + static_cast<SimTime>(1e3 * j.job_us);
      job_sum += j.job_us;
      verb_sum += j.snd_us + j.str_us + j.stp_us + j.rcv_us + j.launch_us;
      while (k < spans.size() && spans[k]->begin < j.begin) ++k;
      double server = 0.0;
      bool ran = false;
      for (; k < spans.size() && spans[k]->begin <= end; ++k) {
        server += us_between(spans[k]->begin, spans[k]->end);
        ran = ran || spans[k]->phase == obs::Phase::kKernel ||
              spans[k]->phase == obs::Phase::kGraph;
      }
      if (!ran) continue;
      ++matched;
      server_sum += server;
      wait_sum += j.str_us + j.stp_us + j.launch_us;
    }
  }
  const double client_pct = 100.0 * (1.0 - ratio(verb_sum, job_sum));
  const double server_pct = 100.0 * (1.0 - ratio(server_sum, wait_sum));
  m["addup.client_verbs_unexplained_pct"] = client_pct;
  m["addup.server_phases_unexplained_pct"] = server_pct;
  std::printf(
      "add-up: client verbs explain %.1f%% of job time (unexplained %.2f%%, "
      "tolerance %.0f%%: %s)\n",
      100.0 - client_pct, client_pct, kAddupTolerancePct,
      std::fabs(client_pct) <= kAddupTolerancePct ? "within" : "OUTSIDE");
  std::printf(
      "add-up: server queue+copy+kernel(+graph) spans explain %.1f%% of "
      "client STR+STP (launch) time over %ld matched jobs (unexplained "
      "%.2f%%, tolerance %.0f%%: %s)\n",
      100.0 - server_pct, matched, server_pct, kAddupTolerancePct,
      std::fabs(server_pct) <= kAddupTolerancePct ? "within" : "OUTSIDE");
}

void per_layer(const Workload& w, const PassResult& plain, const PassResult& r,
               std::map<std::string, double>& m) {
  // Verbs a workload does not use read 0.
  const std::vector<JobRecord> jobs = all_jobs(r);
  m["client.snd_us"] = median(field(jobs, &JobRecord::snd_us));
  m["client.str_us"] = median(field(jobs, &JobRecord::str_us));
  m["client.stp_us"] = median(field(jobs, &JobRecord::stp_us));
  m["client.rcv_us"] = median(field(jobs, &JobRecord::rcv_us));
  m["client.launch_graph_us"] = median(field(jobs, &JobRecord::launch_us));
  m["client.upload_graph_ms"] = median(r.calls.upload_graph_ms);
  m["client.req_ms"] = median(r.calls.req_ms);
  m["server.start_ms"] = median(r.calls.server_start_ms);

  const Counters& k = r.counters;
  const double per_job = 1.0 / std::max(1.0, static_cast<double>(r.completed));
  m["ipc.msgs_per_job"] = per_job * static_cast<double>(k.ctrl_verbs);
  m["ipc.stp_polls_per_job"] = per_job * static_cast<double>(k.ctrl_stp);
  m["ipc.doorbell_blocks_per_job"] = per_job * static_cast<double>(k.doorbell_blocks);
  m["ipc.spin_wakeups_per_job"] = per_job * static_cast<double>(k.spin_wakeups);
  m["server.cpu_us_per_req"] =
      1e-3 * ratio(static_cast<double>(k.serve_cpu_ns), static_cast<double>(k.requests));
  m["server.waits_per_job"] = per_job * static_cast<double>(k.waits_sent);
  m["server.batch_depth_mean"] =
      ratio(static_cast<double>(k.requests), static_cast<double>(k.batches));
  m["server.grants_per_pump_mean"] =
      ratio(static_cast<double>(k.sched_grants), static_cast<double>(k.sched_pumps));
  m["dataplane.bytes_copied_per_job"] = per_job * static_cast<double>(k.bytes_copied);
  m["dataplane.overlap_bytes_per_job"] = per_job * static_cast<double>(k.overlap_bytes);
  m["sched.rotations_per_job"] = per_job * static_cast<double>(k.rotations);
  m["sched.resident_holds_per_job"] = per_job * static_cast<double>(k.resident_holds);
  m["exec.shards_per_launch"] =
      ratio(static_cast<double>(k.shards), static_cast<double>(k.launches));
  m["exec.steals_per_launch"] =
      ratio(static_cast<double>(k.steals), static_cast<double>(k.launches));
  // Without graphs an iteration is a job.
  m["graph.msgs_per_iter"] = ratio(static_cast<double>(k.ctrl_verbs),
                                   static_cast<double>(r.iterations));
  m["graph.nodes_fused_per_replay"] = ratio(
      static_cast<double>(k.graph_nodes_fused), static_cast<double>(k.graph_replays));
  m["vmem.page_ins_per_job"] = per_job * static_cast<double>(k.page_ins);
  m["vmem.page_outs_per_job"] = per_job * static_cast<double>(k.page_outs);
  m["vmem.faults_per_job"] = per_job * static_cast<double>(k.faults);
  m["vmem.pin_shortfalls"] = static_cast<double>(k.pin_shortfalls);
  m["vmem.prefetch_hits_per_issued"] =
      ratio(static_cast<double>(k.prefetch_hits), static_cast<double>(k.prefetch_issued));

  m["sched.queue_wait_us"] = median(span_us(r.spans, obs::Phase::kQueueWait));
  m["sched.flush_barrier_us"] = median(span_us(r.spans, obs::Phase::kFlushBarrier));
  m["exec.copy_in_us"] = median(span_us(r.spans, obs::Phase::kCopyIn));
  m["exec.kernel_us"] = median(span_us(r.spans, obs::Phase::kKernel));
  m["exec.copy_out_us"] = median(span_us(r.spans, obs::Phase::kCopyOut));
  m["graph.replay_us"] = median(span_us(r.spans, obs::Phase::kGraph));
  m["vmem.page_in_us"] = median(span_us(r.spans, obs::Phase::kPageIn));
  m["vmem.page_out_us"] = median(span_us(r.spans, obs::Phase::kPageOut));

  m["kernels.compute_us"] = w.compute_us(w.config);
  const std::vector<double> plain_job_us = field(all_jobs(plain), &JobRecord::job_us);
  m["tail.job_p99_ms"] = 1e-3 * quantile(plain_job_us, 0.99);
  std::printf("untraced pass: %zu timed jobs, p50 %.4f ms p99 %.4f ms\n",
              plain_job_us.size(), 1e-3 * quantile(plain_job_us, 0.5),
              m["tail.job_p99_ms"]);
  const double plain_jobs_s = median(plain.jobs_s);
  m["obs.tracing_overhead_pct"] =
      100.0 * ratio(plain_jobs_s - median(r.jobs_s), plain_jobs_s);
  m["obs.spans_dropped"] = static_cast<double>(r.spans_dropped);
  std::printf("traced pass: %zu spans kept, %ld dropped; jobs/s untraced %.1f "
              "traced %.1f\n",
              r.spans.size(), r.spans_dropped, plain_jobs_s, median(r.jobs_s));
  addup(r, m);
  const double p50_us = quantile(plain_job_us, 0.5);
  std::printf("Fig. 10-style overhead: untraced job p50 %.1f us - kernel %.1f us "
              "= %.1f us\n",
              p50_us, m["kernels.compute_us"], p50_us - m["kernels.compute_us"]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

void print_json(const Args& a, long attempted, long failed, bool correct,
                std::map<std::string, double>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    double v = m[d.name];
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                d.name, v, d.unit);
    first = false;
  };
  if (a.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: livebench --workload <small_jobs|spmd_staged|"
                 "graph_solver|oversub_paged> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Workload w = make_workload(args.workload);
  if (w.tenants == 0) {
    std::fprintf(stderr, "livebench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // A fixed mmap threshold (glibc's initial 128 KiB) keeps large buffers
  // freed by one set-up from being retained in the heap depending on free
  // order; with glibc's sliding threshold peak_rss_mb varied 63-100 MiB
  // between identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::map<std::string, double> m;
  std::vector<const PassResult*> passes;
  PassResult plain, traced;
  if (!args.trace) {
    plain = run_pass(w, args.seed, args.seconds, false, kSetupReps, "u");
    passes = {&plain};
    end_to_end(plain, m);
  } else {
    // Untraced and traced halves back to back: their jobs/s difference is
    // the tracing overhead; every per-layer number is from the traced half.
    plain = run_pass(w, args.seed, args.seconds / 2, false, 1, "u");
    traced = run_pass(w, args.seed, args.seconds / 2, true, kTracedSetupReps, "t");
    passes = {&plain, &traced};
    per_layer(w, plain, traced, m);
  }

  long attempted = 0, failed = 0, wrong = 0, leaks = 0;
  for (const PassResult* p : passes) {
    attempted += p->attempted;
    failed += p->errors + p->wrong + p->leaks;
    wrong += p->wrong;
    leaks += p->leaks;
    for (const std::string& problem : p->problems) {
      std::printf("FAILED: %s\n", problem.c_str());
    }
  }
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("%-36s %14.4f %s\n", defs[i].name, m[defs[i].name], defs[i].unit);
  }
  print_json(args, attempted, failed, wrong == 0 && leaks == 0, m);
  return 0;
}
