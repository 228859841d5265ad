#include "kernels/mg.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace vgpu::kernels {

Stencil27 mg_operator_a() { return {-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}; }
Stencil27 mg_smoother_c() {
  return {-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0};
}

namespace {

// Periodic neighbours of an index in [0, n): one compare, no modulo.
int prev_index(int i, int n) { return i == 0 ? n - 1 : i - 1; }
int next_index(int i, int n) { return i == n - 1 ? 0 : i + 1; }

// Start of row (i, j) of an n^3 grid; i and j must already be in [0, n).
const double* row_of(const Grid3& g, int i, int j) {
  return g.data().data() + (static_cast<std::size_t>(i) * g.n() + j) * g.n();
}
double* row_of(Grid3& g, int i, int j) {
  return g.data().data() + (static_cast<std::size_t>(i) * g.n() + j) * g.n();
}

// The 3x3 (di, dj) neighbourhood of row (i, j): rows[di + 1][dj + 1].
struct Rows3x3 {
  const double* rows[3][3];
};

Rows3x3 neighbour_rows(const Grid3& g, int i, int j) {
  const int n = g.n();
  const int is[3] = {prev_index(i, n), i, next_index(i, n)};
  const int js[3] = {prev_index(j, n), j, next_index(j, n)};
  Rows3x3 r{};
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) r.rows[a][b] = row_of(g, is[a], js[b]);
  }
  return r;
}

struct NeighbourSums {
  double faces, edges, corners;
};

// Sums the 26 neighbours of column k by Manhattan degree. Each sum starts
// from 0.0 and adds its terms in (di, dj, dk) lexicographic order, the
// order of the reference triple loop, so results are bitwise identical to
// it (signed zeros included).
inline NeighbourSums neighbour_sums(const Rows3x3& nb, int km, int k,
                                    int kp) {
  const auto& r = nb.rows;
  NeighbourSums s{0.0, 0.0, 0.0};
  s.faces += r[0][1][k];   // (-1, 0, 0)
  s.faces += r[1][0][k];   // ( 0,-1, 0)
  s.faces += r[1][1][km];  // ( 0, 0,-1)
  s.faces += r[1][1][kp];  // ( 0, 0, 1)
  s.faces += r[1][2][k];   // ( 0, 1, 0)
  s.faces += r[2][1][k];   // ( 1, 0, 0)

  s.edges += r[0][0][k];   // (-1,-1, 0)
  s.edges += r[0][1][km];  // (-1, 0,-1)
  s.edges += r[0][1][kp];  // (-1, 0, 1)
  s.edges += r[0][2][k];   // (-1, 1, 0)
  s.edges += r[1][0][km];  // ( 0,-1,-1)
  s.edges += r[1][0][kp];  // ( 0,-1, 1)
  s.edges += r[1][2][km];  // ( 0, 1,-1)
  s.edges += r[1][2][kp];  // ( 0, 1, 1)
  s.edges += r[2][0][k];   // ( 1,-1, 0)
  s.edges += r[2][1][km];  // ( 1, 0,-1)
  s.edges += r[2][1][kp];  // ( 1, 0, 1)
  s.edges += r[2][2][k];   // ( 1, 1, 0)

  s.corners += r[0][0][km];  // (-1,-1,-1)
  s.corners += r[0][0][kp];  // (-1,-1, 1)
  s.corners += r[0][2][km];  // (-1, 1,-1)
  s.corners += r[0][2][kp];  // (-1, 1, 1)
  s.corners += r[2][0][km];  // ( 1,-1,-1)
  s.corners += r[2][0][kp];  // ( 1,-1, 1)
  s.corners += r[2][2][km];  // ( 1, 1,-1)
  s.corners += r[2][2][kp];  // ( 1, 1, 1)
  return s;
}

// One plane range of an elementwise stage over the flat n^3 arrays.
template <typename Fn>
void for_each_cell(int n, const ParallelFor& pf, Fn&& fn) {
  const long plane = static_cast<long>(n) * n;
  pf(n, [&](long plane_begin, long plane_end) {
    const auto lo = static_cast<std::size_t>(plane_begin * plane);
    const auto hi = static_cast<std::size_t>(plane_end * plane);
    for (std::size_t x = lo; x < hi; ++x) fn(x);
  });
}

}  // namespace

void apply_stencil(const Stencil27& s, const Grid3& in, Grid3& out,
                   const ParallelFor& pf) {
  VGPU_ASSERT(in.n() == out.n());
  const int n = in.n();
  pf(n, [&](long plane_begin, long plane_end) {
    for (int i = static_cast<int>(plane_begin); i < plane_end; ++i) {
      for (int j = 0; j < n; ++j) {
        const Rows3x3 nb = neighbour_rows(in, i, j);
        const double* center = nb.rows[1][1];
        double* dst = row_of(out, i, j);
        for (int k = 0; k < n; ++k) {
          const NeighbourSums t =
              neighbour_sums(nb, prev_index(k, n), k, next_index(k, n));
          dst[k] = s.c0 * center[k] + s.c1 * t.faces + s.c2 * t.edges +
                   s.c3 * t.corners;
        }
      }
    }
  });
}

void mg_resid(const Grid3& u, const Grid3& v, Grid3& r,
              const ParallelFor& pf) {
  VGPU_ASSERT(u.n() == v.n() && u.n() == r.n());
  Grid3 au(u.n());
  apply_stencil(mg_operator_a(), u, au, pf);
  const double* vd = v.data().data();
  const double* aud = au.data().data();
  double* rd = r.data().data();
  for_each_cell(u.n(), pf, [&](std::size_t x) { rd[x] = vd[x] - aud[x]; });
}

void mg_psinv(const Grid3& r, Grid3& u, const ParallelFor& pf) {
  VGPU_ASSERT(r.n() == u.n());
  Grid3 sr(r.n());
  apply_stencil(mg_smoother_c(), r, sr, pf);
  const double* srd = sr.data().data();
  double* ud = u.data().data();
  for_each_cell(r.n(), pf, [&](std::size_t x) { ud[x] += srd[x]; });
}

void mg_rprj3(const Grid3& fine, Grid3& coarse, const ParallelFor& pf) {
  VGPU_ASSERT(fine.n() == 2 * coarse.n());
  const int nc = coarse.n();
  const int nf = fine.n();
  pf(nc, [&](long plane_begin, long plane_end) {
    for (int i = static_cast<int>(plane_begin); i < plane_end; ++i) {
      for (int j = 0; j < nc; ++j) {
        const Rows3x3 nb = neighbour_rows(fine, 2 * i, 2 * j);
        const double* center = nb.rows[1][1];
        double* dst = row_of(coarse, i, j);
        for (int k = 0; k < nc; ++k) {
          const int fk = 2 * k;  // fk + 1 < nf: only fk - 1 can wrap
          const NeighbourSums t =
              neighbour_sums(nb, prev_index(fk, nf), fk, fk + 1);
          dst[k] = 0.5 * center[fk] + 0.25 * t.faces + 0.125 * t.edges +
                   0.0625 * t.corners;
        }
      }
    }
  });
}

void mg_interp(const Grid3& coarse, Grid3& fine, const ParallelFor& pf) {
  VGPU_ASSERT(fine.n() == 2 * coarse.n());
  const int nc = coarse.n();
  // Trilinear prolongation: each fine point receives the average of the
  // 1, 2, 4 or 8 coarse points it sits between. Each sum starts from 0.0
  // and adds in (ci, cj, ck) order, as the reference loop does.
  pf(nc, [&](long plane_begin, long plane_end) {
    for (int i = static_cast<int>(plane_begin); i < plane_end; ++i) {
      const int ip = next_index(i, nc);
      for (int j = 0; j < nc; ++j) {
        const int jp = next_index(j, nc);
        // c[ci][cj]: coarse row (i + ci, j + cj); f[di][dj]: fine row
        // (2i + di, 2j + dj).
        const double* c[2][2] = {{row_of(coarse, i, j), row_of(coarse, i, jp)},
                                 {row_of(coarse, ip, j), row_of(coarse, ip, jp)}};
        double* f[2][2] = {{row_of(fine, 2 * i, 2 * j), row_of(fine, 2 * i, 2 * j + 1)},
                           {row_of(fine, 2 * i + 1, 2 * j),
                            row_of(fine, 2 * i + 1, 2 * j + 1)}};
        for (int k = 0; k < nc; ++k) {
          const int kp = next_index(k, nc);
          const int fk = 2 * k;
          double sum = 0.0;  // (di, dj, dk) = (0, 0, 0)
          sum += c[0][0][k];
          f[0][0][fk] += sum / 1.0;

          sum = 0.0;  // (0, 0, 1)
          sum += c[0][0][k];
          sum += c[0][0][kp];
          f[0][0][fk + 1] += sum / 2.0;

          sum = 0.0;  // (0, 1, 0)
          sum += c[0][0][k];
          sum += c[0][1][k];
          f[0][1][fk] += sum / 2.0;

          sum = 0.0;  // (0, 1, 1)
          sum += c[0][0][k];
          sum += c[0][0][kp];
          sum += c[0][1][k];
          sum += c[0][1][kp];
          f[0][1][fk + 1] += sum / 4.0;

          sum = 0.0;  // (1, 0, 0)
          sum += c[0][0][k];
          sum += c[1][0][k];
          f[1][0][fk] += sum / 2.0;

          sum = 0.0;  // (1, 0, 1)
          sum += c[0][0][k];
          sum += c[0][0][kp];
          sum += c[1][0][k];
          sum += c[1][0][kp];
          f[1][0][fk + 1] += sum / 4.0;

          sum = 0.0;  // (1, 1, 0)
          sum += c[0][0][k];
          sum += c[0][1][k];
          sum += c[1][0][k];
          sum += c[1][1][k];
          f[1][1][fk] += sum / 4.0;

          sum = 0.0;  // (1, 1, 1)
          sum += c[0][0][k];
          sum += c[0][0][kp];
          sum += c[0][1][k];
          sum += c[0][1][kp];
          sum += c[1][0][k];
          sum += c[1][0][kp];
          sum += c[1][1][k];
          sum += c[1][1][kp];
          f[1][1][fk + 1] += sum / 8.0;
        }
      }
    }
  });
}

double mg_residual_norm(const Grid3& u, const Grid3& v) {
  Grid3 r(u.n());
  mg_resid(u, v, r);
  double acc = 0.0;
  for (double x : r.data()) acc += x * x;
  return std::sqrt(acc / static_cast<double>(r.data().size()));
}

Grid3 mg_make_rhs(int n, int charges, std::uint64_t seed) {
  Grid3 v(n);
  Rng rng(seed);
  for (int sign = 0; sign < 2; ++sign) {
    for (int c = 0; c < charges; ++c) {
      const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const int k = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      v.at(i, j, k) = (sign == 0) ? 1.0 : -1.0;
    }
  }
  return v;
}

namespace {

/// Recursive V-cycle on residual r, producing correction z (NPB mg3P).
void vcycle_correct(const Grid3& r, Grid3& z, const ParallelFor& pf) {
  const int n = r.n();
  z.fill(0.0);
  if (n <= 4) {
    mg_psinv(r, z, pf);  // coarsest level: one smoothing pass
    return;
  }
  // Restrict residual, solve coarse, prolongate.
  Grid3 rc(n / 2);
  mg_rprj3(r, rc, pf);
  Grid3 zc(n / 2);
  vcycle_correct(rc, zc, pf);
  mg_interp(zc, z, pf);
  // Post-smoothing: r' = r - A z; z += S r'.
  Grid3 rf(n);
  mg_resid(z, r, rf, pf);
  mg_psinv(rf, z, pf);
}

}  // namespace

void mg_vcycle(Grid3& u, const Grid3& v, const ParallelFor& pf) {
  VGPU_ASSERT(u.n() == v.n());
  Grid3 r(u.n());
  mg_resid(u, v, r, pf);
  Grid3 z(u.n());
  vcycle_correct(r, z, pf);
  const double* zd = z.data().data();
  double* ud = u.data().data();
  for_each_cell(u.n(), pf, [&](std::size_t x) { ud[x] += zd[x]; });
}

gpu::KernelLaunch mg_launch(int n) {
  gpu::KernelLaunch l;
  l.name = "npb_mg_vcycle";
  // Paper Table IV: class S runs with a 64-block grid — small enough that
  // several processes' V-cycles co-execute on the device.
  l.geometry = gpu::KernelGeometry{64, 128, /*regs*/ 32, /*shmem*/ 4 * kKiB};
  // This descriptor aggregates one whole V-cycle of the class-S port: a
  // chain of per-level micro-kernels (resid / psinv / rprj3 / interp down
  // to 4^3) with host synchronizations between them. Two calibrated
  // components (see EXPERIMENTS.md):
  //  * ~31 ms of host/driver-serial launch-chain time per V-cycle — this
  //    serializes across processes on Fermi's single dispatch queue;
  //  * ~30 ms of deeply latency-bound device time (grids this small cannot
  //    occupy the machine, efficiency ~2.7%), which co-executes freely
  //    across processes — the source of MG's leading Figure 16 speedup.
  (void)n;
  l.host_serial_time = milliseconds(31.0);
  const double threads = 64.0 * 128.0;
  const double total_flops = 3.8e9;  // 30 ms at 2.7% of one SM per block
  l.cost = gpu::KernelCost{total_flops / threads, 40.0,
                           /*efficiency*/ 0.027};
  return l;
}

}  // namespace vgpu::kernels
