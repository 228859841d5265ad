// NAS Parallel Benchmarks "MG" kernel: V-cycle multigrid on a 3-D periodic
// grid (paper Table IV: class S = 32^3, 4 iterations, 64-block grid,
// compute-intensive).
//
// The functional implementation follows the NPB structure: a 27-point
// operator A and smoother S classified by Manhattan degree (center, faces,
// edges, corners), full-weighting restriction (rprj3) and trilinear
// prolongation (interp), iterated as u += M^k (v - A u).
#pragma once

#include <vector>

#include "common/parallel.hpp"
#include "gpu/cost.hpp"

namespace vgpu::kernels {

/// Dense n^3 grid of doubles with periodic (wraparound) indexing.
class Grid3 {
 public:
  explicit Grid3(int n) : n_(n), data_(static_cast<std::size_t>(n) * n * n) {}

  int n() const { return n_; }

  /// Periodic access, wrapping every index with `%`: for tests and setup
  /// code. Point loops index rows of data() directly (see mg.cpp).
  double& at(int i, int j, int k) { return data_[index(i, j, k)]; }
  double at(int i, int j, int k) const { return data_[index(i, j, k)]; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::size_t index(int i, int j, int k) const {
    const int ii = wrap(i), jj = wrap(j), kk = wrap(k);
    return (static_cast<std::size_t>(ii) * n_ + jj) * n_ + kk;
  }
  int wrap(int i) const {
    i %= n_;
    return i < 0 ? i + n_ : i;
  }

  int n_;
  std::vector<double> data_;
};

/// 27-point stencil coefficients by Manhattan degree [center, face, edge,
/// corner].
struct Stencil27 {
  double c0, c1, c2, c3;
};

/// NPB operator A and class-S smoother S.
Stencil27 mg_operator_a();
Stencil27 mg_smoother_c();

// Every stage takes a ParallelFor (serial by default). The block unit is
// an i-plane of the output grid; planes write disjoint cells, so sharded
// runs are bitwise identical to the serial ones.

/// out = stencil applied to in (periodic).
void apply_stencil(const Stencil27& s, const Grid3& in, Grid3& out,
                   const ParallelFor& pf = serial_executor());

/// r = v - A u.
void mg_resid(const Grid3& u, const Grid3& v, Grid3& r,
              const ParallelFor& pf = serial_executor());

/// u += S r.
void mg_psinv(const Grid3& r, Grid3& u,
              const ParallelFor& pf = serial_executor());

/// Full-weighting restriction: coarse (n/2) from fine (n).
void mg_rprj3(const Grid3& fine, Grid3& coarse,
              const ParallelFor& pf = serial_executor());

/// Trilinear prolongation: fine += P(coarse). Block unit: coarse i-planes
/// (coarse plane i writes fine planes 2i and 2i+1 — disjoint per plane).
void mg_interp(const Grid3& coarse, Grid3& fine,
               const ParallelFor& pf = serial_executor());

/// L2 norm of v - A u.
double mg_residual_norm(const Grid3& u, const Grid3& v);

/// NPB-style right-hand side: +1 at `charges` random cells, -1 at another
/// `charges` cells (deterministic for a given seed).
Grid3 mg_make_rhs(int n, int charges = 10, std::uint64_t seed = 314159265);

/// One V-cycle of u += M^k (v - A u), recursing down to 4^3. The stage
/// chain runs in order (each stage is a barrier); `pf` shards each
/// stage's plane loop.
void mg_vcycle(Grid3& u, const Grid3& v,
               const ParallelFor& pf = serial_executor());

/// Launch descriptor for one class-sized V-cycle iteration (paper: grid 64).
gpu::KernelLaunch mg_launch(int n);

}  // namespace vgpu::kernels
