// Unit tests for the functional kernels and their launch descriptors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "kernels/blackscholes.hpp"
#include "kernels/blas1.hpp"
#include "kernels/cg.hpp"
#include "kernels/electrostatics.hpp"
#include "kernels/ep.hpp"
#include "kernels/fft.hpp"
#include "kernels/is.hpp"
#include "kernels/matmul.hpp"
#include "kernels/mg.hpp"

namespace vgpu::kernels {
namespace {

// ---------------------------------------------------------------------------
// BLAS-1
// ---------------------------------------------------------------------------

TEST(Blas1, VecAdd) {
  std::vector<float> a{1, 2, 3, 4}, b{10, 20, 30, 40}, c(4);
  vecadd(a, b, c);
  EXPECT_EQ(c, (std::vector<float>{11, 22, 33, 44}));
}

TEST(Blas1, Saxpy) {
  std::vector<float> x{1, 2, 3}, y{1, 1, 1};
  saxpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{3, 5, 7}));
}

TEST(Blas1, ReduceSumMatchesDoubleAccumulation) {
  Rng rng(11);
  std::vector<float> x(100000);
  double exact = 0.0;
  for (auto& v : x) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
    exact += v;
  }
  EXPECT_NEAR(reduce_sum(x), exact, 1e-2);
}

TEST(Blas1, DotProduct) {
  std::vector<float> x{1, 2, 3}, y{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(x, y), 32.0f);
}

TEST(Blas1, VecAddLaunchMatchesPaperGrid) {
  // Paper Table II: 50M floats -> ~50K blocks of 1024 threads.
  const gpu::KernelLaunch l = vecadd_launch(50'000'000);
  EXPECT_EQ(l.geometry.threads_per_block, 1024);
  EXPECT_NEAR(static_cast<double>(l.geometry.grid_blocks), 50e3, 2e3);
  EXPECT_LT(l.intensity(), 1.0);  // I/O-bound kernel
}

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

TEST(Matmul, MatchesReferenceOnRandomMatrix) {
  const int n = 48;
  Rng rng(5);
  std::vector<float> a(n * n), b(n * n), c(n * n), ref(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  sgemm(a, b, c, n);
  sgemm_reference(a, b, ref, n);
  for (int i = 0; i < n * n; ++i) {
    EXPECT_NEAR(c[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)],
                1e-3);
  }
}

TEST(Matmul, IdentityIsNeutral) {
  const int n = 33;  // deliberately not a tile multiple
  std::vector<float> eye(n * n, 0.0f), b(n * n), c(n * n);
  for (int i = 0; i < n; ++i) eye[static_cast<std::size_t>(i) * n + i] = 1.0f;
  Rng rng(6);
  for (auto& v : b) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  sgemm(eye, b, c, n);
  for (int i = 0; i < n * n; ++i) {
    EXPECT_FLOAT_EQ(c[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
  }
}

TEST(Matmul, LaunchMatchesPaperGrid) {
  // Paper Table IV: 2K x 2K -> 4096 blocks (64x64 tiles of 32x32 threads).
  const gpu::KernelLaunch l = matmul_launch(2048);
  EXPECT_EQ(l.geometry.grid_blocks, 4096);
  EXPECT_EQ(l.geometry.threads_per_block, 1024);
  EXPECT_DOUBLE_EQ(l.cost.flops_per_thread, 4096.0);
}

// ---------------------------------------------------------------------------
// Black-Scholes
// ---------------------------------------------------------------------------

TEST(BlackScholes, CndBasicProperties) {
  EXPECT_NEAR(cnd(0.0f), 0.5f, 1e-5);
  EXPECT_NEAR(cnd(6.0f), 1.0f, 1e-5);
  EXPECT_NEAR(cnd(-6.0f), 0.0f, 1e-5);
  EXPECT_LT(cnd(-1.0f), cnd(1.0f));
  EXPECT_NEAR(cnd(1.0f) + cnd(-1.0f), 1.0f, 1e-5);
}

TEST(BlackScholes, PutCallParityHolds) {
  const std::size_t n = 1000;
  Rng rng(7);
  std::vector<float> s(n), x(n), t(n), call(n), put(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<float>(rng.uniform(5.0, 30.0));
    x[i] = static_cast<float>(rng.uniform(1.0, 100.0));
    t[i] = static_cast<float>(rng.uniform(0.25, 10.0));
  }
  OptionBatch batch{s, x, t, 0.02f, 0.30f};
  black_scholes(batch, call, put);
  for (std::size_t i = 0; i < n; ++i) {
    const float lhs = call[i] - put[i];
    const float rhs = s[i] - x[i] * std::exp(-batch.riskfree * t[i]);
    EXPECT_NEAR(lhs, rhs, 2e-3 * std::max(1.0f, std::fabs(rhs)));
  }
}

TEST(BlackScholes, DeepInTheMoneyCallApproachesForward) {
  std::vector<float> s{100.0f}, x{0.01f}, t{1.0f}, call(1), put(1);
  black_scholes(OptionBatch{s, x, t, 0.02f, 0.30f}, call, put);
  EXPECT_NEAR(call[0], 100.0f, 0.1f);
  EXPECT_NEAR(put[0], 0.0f, 0.01f);
}

TEST(BlackScholes, LaunchMatchesPaperGrid) {
  const gpu::KernelLaunch l = black_scholes_launch(1'000'000);
  EXPECT_EQ(l.geometry.grid_blocks, 480);  // paper Table IV
}

// ---------------------------------------------------------------------------
// NPB EP
// ---------------------------------------------------------------------------

TEST(Ep, RandomSkipMatchesSequentialDraws) {
  NpbRandom a, b;
  for (int i = 0; i < 1000; ++i) a.next();
  b.skip(1000);
  EXPECT_DOUBLE_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(Ep, RandomValuesInUnitInterval) {
  NpbRandom rng;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Ep, ChunkedMatchesSequential) {
  const int m = 16;  // 65536 pairs
  const EpResult seq = ep_sequential(m);
  for (int chunks : {2, 4, 7, 64}) {
    const EpResult par = ep_chunked(m, chunks);
    EXPECT_EQ(par.q, seq.q) << "chunks=" << chunks;
    EXPECT_EQ(par.pairs_accepted, seq.pairs_accepted);
    EXPECT_NEAR(par.sx, seq.sx, 1e-8 * std::fabs(seq.sx) + 1e-9);
    EXPECT_NEAR(par.sy, seq.sy, 1e-8 * std::fabs(seq.sy) + 1e-9);
  }
}

TEST(Ep, AcceptanceRateNearPiOver4) {
  const int m = 18;
  const EpResult r = ep_sequential(m);
  const double rate =
      static_cast<double>(r.pairs_accepted) / static_cast<double>(1L << m);
  EXPECT_NEAR(rate, 3.14159265 / 4.0, 0.01);
  EXPECT_EQ(r.total_counts(), r.pairs_accepted);
}

TEST(Ep, GaussianMomentsPlausible) {
  const int m = 18;
  const EpResult r = ep_sequential(m);
  // Mean of each Gaussian deviate ~ 0: |sum| << accepted count.
  EXPECT_LT(std::fabs(r.sx), 4.0 * std::sqrt(static_cast<double>(r.pairs_accepted)));
  EXPECT_LT(std::fabs(r.sy), 4.0 * std::sqrt(static_cast<double>(r.pairs_accepted)));
  // Counts decay with annulus index.
  EXPECT_GT(r.q[0], r.q[2]);
  EXPECT_GT(r.q[1], r.q[3]);
}

TEST(Ep, LaunchMatchesPaperGrid) {
  const gpu::KernelLaunch l = ep_launch(30);
  EXPECT_EQ(l.geometry.grid_blocks, 4);  // paper Table II
}

// ---------------------------------------------------------------------------
// NPB MG
// ---------------------------------------------------------------------------

TEST(Mg, OperatorAnnihilatesConstants) {
  Grid3 u(8), au(8);
  u.fill(3.5);
  apply_stencil(mg_operator_a(), u, au);
  for (double v : au.data()) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Mg, ResidualOfExactZeroRhsIsZero) {
  Grid3 u(8), v(8), r(8);
  u.fill(0.0);
  v.fill(0.0);
  mg_resid(u, v, r);
  for (double x : r.data()) EXPECT_EQ(x, 0.0);
}

TEST(Mg, RhsIsDeterministicAndBalanced) {
  const Grid3 v1 = mg_make_rhs(16, 10, 42);
  const Grid3 v2 = mg_make_rhs(16, 10, 42);
  EXPECT_EQ(v1.data(), v2.data());
  double sum = 0.0;
  long nonzero = 0;
  for (double x : v1.data()) {
    sum += x;
    if (x != 0.0) ++nonzero;
  }
  EXPECT_LE(std::fabs(sum), 10.0);
  EXPECT_GE(nonzero, 10);
  EXPECT_LE(nonzero, 20);
}

TEST(Mg, VcycleReducesResidual) {
  const int n = 16;
  const Grid3 v = mg_make_rhs(n);
  Grid3 u(n);
  u.fill(0.0);
  double prev = mg_residual_norm(u, v);
  ASSERT_GT(prev, 0.0);
  for (int it = 0; it < 4; ++it) {
    mg_vcycle(u, v);
    const double cur = mg_residual_norm(u, v);
    EXPECT_LT(cur, prev * 0.9) << "iteration " << it;
    prev = cur;
  }
}

TEST(Mg, RestrictionPreservesConstants) {
  Grid3 fine(16), coarse(8);
  fine.fill(1.0);
  mg_rprj3(fine, coarse);
  // NPB full-weighting has total weight 4 (not normalized to 1).
  for (double v : coarse.data()) EXPECT_NEAR(v, 4.0, 1e-12);
}

TEST(Mg, InterpolationOfConstantAddsConstant) {
  Grid3 coarse(4), fine(8);
  coarse.fill(2.0);
  fine.fill(1.0);
  mg_interp(coarse, fine);
  for (double v : fine.data()) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(Mg, LaunchMatchesPaperGrid) {
  const gpu::KernelLaunch l = mg_launch(32);
  EXPECT_EQ(l.geometry.grid_blocks, 64);  // paper Table IV
}

// ---------------------------------------------------------------------------
// NPB CG
// ---------------------------------------------------------------------------

TEST(Cg, MatrixIsSymmetricWithDominantDiagonal) {
  const CsrMatrix a = cg_make_matrix(100, 6, 10.0);
  // Dense mirror for symmetry check.
  std::vector<double> dense(100 * 100, 0.0);
  for (int i = 0; i < a.n; ++i) {
    for (int e = a.row_ptr[static_cast<std::size_t>(i)];
         e < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
      dense[static_cast<std::size_t>(i) * 100 +
            static_cast<std::size_t>(a.col[static_cast<std::size_t>(e)])] =
          a.val[static_cast<std::size_t>(e)];
    }
  }
  for (int i = 0; i < 100; ++i) {
    double off = 0.0;
    for (int j = 0; j < 100; ++j) {
      EXPECT_DOUBLE_EQ(dense[static_cast<std::size_t>(i) * 100 + j],
                       dense[static_cast<std::size_t>(j) * 100 + i]);
      if (i != j) off += std::fabs(dense[static_cast<std::size_t>(i) * 100 + j]);
    }
    EXPECT_GT(dense[static_cast<std::size_t>(i) * 100 + i], off);  // SPD
  }
}

TEST(Cg, SolvesDiagonalSystemInOneIteration) {
  CsrMatrix a;
  a.n = 4;
  a.row_ptr = {0, 1, 2, 3, 4};
  a.col = {0, 1, 2, 3};
  a.val = {2.0, 2.0, 2.0, 2.0};
  std::vector<double> b{2, 4, 6, 8}, x(4);
  const CgResult r = cg_solve(a, b, x, 10, 1e-12);
  EXPECT_LE(r.iterations, 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], (i + 1.0), 1e-10);
  }
}

TEST(Cg, ConvergesOnRandomSpdSystem) {
  const int n = 300;
  const CsrMatrix a = cg_make_matrix(n, 8, 5.0);
  Rng rng(3);
  std::vector<double> b(n), x(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const CgResult r = cg_solve(a, b, x, 60, 1e-10);
  EXPECT_LT(r.final_residual, 1e-8);
  // Residual history is monotone within round-off-dominated CG behaviour.
  EXPECT_LT(r.residual_history.back(), r.residual_history.front() * 1e-6);
  // Verify the solution directly: ||b - A x||.
  std::vector<double> ax(n);
  spmv(a, x, ax);
  double err = 0.0;
  for (int i = 0; i < n; ++i) {
    err += (b[static_cast<std::size_t>(i)] - ax[static_cast<std::size_t>(i)]) *
           (b[static_cast<std::size_t>(i)] - ax[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(std::sqrt(err), 1e-8);
}

TEST(Cg, LaunchMatchesPaperGrid) {
  const gpu::KernelLaunch l = cg_launch(1400, 7);
  EXPECT_EQ(l.geometry.grid_blocks, 8);  // paper Table IV
}

// ---------------------------------------------------------------------------
// Electrostatics
// ---------------------------------------------------------------------------

TEST(Electrostatics, SingleAtomPotentialAtSource) {
  const std::vector<Atom> atoms{{0.0f, 0.0f, 0.0f, 2.0f}};
  Lattice lat{4, 4, 0.5f, 0.0f};
  std::vector<float> out(16);
  coulomb_slab(atoms, lat, out, 0.05f);
  // At the atom position: q / softening.
  EXPECT_NEAR(out[0], 2.0f / 0.05f, 1e-3f);
  // Distance-1 grid points (2 steps of 0.5): q / ~1.
  EXPECT_NEAR(out[2], 2.0f / std::sqrt(1.0f + 0.0025f), 1e-3f);
}

TEST(Electrostatics, SuperpositionHolds) {
  const std::vector<Atom> a{{1.0f, 1.0f, 0.5f, 1.5f}};
  const std::vector<Atom> b{{2.0f, 0.5f, -0.5f, -0.7f}};
  std::vector<Atom> both = a;
  both.insert(both.end(), b.begin(), b.end());
  Lattice lat{8, 8, 0.5f, 0.0f};
  std::vector<float> fa(64), fb(64), fab(64);
  coulomb_slab(a, lat, fa);
  coulomb_slab(b, lat, fb);
  coulomb_slab(both, lat, fab);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(fab[i], fa[i] + fb[i], 1e-4f);
  }
}

TEST(Electrostatics, MakeAtomsDeterministicAndInBox) {
  const auto atoms = make_atoms(1000, 10.0f, 99);
  const auto again = make_atoms(1000, 10.0f, 99);
  ASSERT_EQ(atoms.size(), 1000u);
  EXPECT_EQ(atoms[17].x, again[17].x);
  for (const Atom& a : atoms) {
    EXPECT_GE(a.x, 0.0f);
    EXPECT_LT(a.x, 10.0f);
    EXPECT_GE(a.q, -1.0f);
    EXPECT_LE(a.q, 1.0f);
  }
}

TEST(Electrostatics, LaunchMatchesPaperGrid) {
  const gpu::KernelLaunch l = electrostatics_launch(100'000, 36864);
  EXPECT_EQ(l.geometry.grid_blocks, 288);  // paper Table IV
}


// ---------------------------------------------------------------------------
// NPB FT (extension)
// ---------------------------------------------------------------------------

TEST(Ft, Fft1dRoundTrip) {
  Rng rng(21);
  std::vector<Complex> data(64), original;
  for (auto& c : data) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  original = data;
  fft1d(data, false);
  fft1d(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-12);
  }
}

TEST(Ft, Fft1dOfImpulseIsFlat) {
  std::vector<Complex> data(16, Complex(0, 0));
  data[0] = Complex(1, 0);
  fft1d(data, false);
  for (const Complex& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Ft, Fft1dParseval) {
  Rng rng(22);
  std::vector<Complex> data(128);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    time_energy += std::norm(c);
  }
  fft1d(data, false);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, 1e-8 * freq_energy);
}

TEST(Ft, Fft3dRoundTrip) {
  Field3 field = ft_make_field(8);
  const std::vector<Complex> original = field.data();
  fft3d(field, false);
  fft3d(field, true);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(std::abs(field.data()[i] - original[i]), 0.0, 1e-10);
  }
}

TEST(Ft, EvolveDecaysHighModesMore) {
  Field3 field(8);
  field.at(1, 0, 0) = Complex(1, 0);  // low mode
  field.at(3, 3, 3) = Complex(1, 0);  // high mode
  ft_evolve(field, /*t=*/1000.0);
  EXPECT_GT(std::abs(field.at(1, 0, 0)), std::abs(field.at(3, 3, 3)));
  EXPECT_LT(std::abs(field.at(1, 0, 0)), 1.0);
}

TEST(Ft, ChecksumDeterministic) {
  const Field3 a = ft_make_field(8, 5);
  const Field3 b = ft_make_field(8, 5);
  EXPECT_EQ(ft_checksum(a), ft_checksum(b));
  const Field3 c = ft_make_field(8, 6);
  EXPECT_NE(ft_checksum(a), ft_checksum(c));
}

// ---------------------------------------------------------------------------
// NPB IS (extension)
// ---------------------------------------------------------------------------

TEST(Is, RanksProduceSortedPermutation) {
  const auto keys = is_make_keys(10000, 1 << 11);
  const auto ranks = is_rank(keys, 1 << 11);
  const auto sorted = is_apply_ranks(keys, ranks);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  // Permutation: same multiset as a reference sort.
  std::vector<int> expect(keys.begin(), keys.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST(Is, RanksAreStableForEqualKeys) {
  const std::vector<int> keys{3, 1, 3, 1, 3};
  const auto ranks = is_rank(keys, 4);
  // Equal keys keep input order: the first 1 ranks before the second.
  EXPECT_LT(ranks[1], ranks[3]);
  EXPECT_LT(ranks[0], ranks[2]);
  EXPECT_LT(ranks[2], ranks[4]);
}

TEST(Is, KeysAreDeterministicAndInRange) {
  const auto a = is_make_keys(5000, 100, 9);
  const auto b = is_make_keys(5000, 100, 9);
  EXPECT_EQ(a, b);
  for (int k : a) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 100);
  }
}


// ---------------------------------------------------------------------------
// Bitwise oracles: the library kernels against verbatim copies of their
// straightforward reference loops. The library versions are rewritten for
// speed (hoisted wraps, shared exp calls) but promise the same
// floating-point operations in the same order, so outputs must match to the
// bit — signed zeros included.
// ---------------------------------------------------------------------------

// Reference 27-point stencil: %-wrapping triple loop over (di, dj, dk).
void ref_apply_stencil(const Stencil27& s, const Grid3& in, Grid3& out) {
  const int n = in.n();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        double faces = 0.0, edges = 0.0, corners = 0.0;
        for (int di = -1; di <= 1; ++di) {
          for (int dj = -1; dj <= 1; ++dj) {
            for (int dk = -1; dk <= 1; ++dk) {
              const int degree = std::abs(di) + std::abs(dj) + std::abs(dk);
              if (degree == 0) continue;
              const double v = in.at(i + di, j + dj, k + dk);
              if (degree == 1) {
                faces += v;
              } else if (degree == 2) {
                edges += v;
              } else {
                corners += v;
              }
            }
          }
        }
        out.at(i, j, k) =
            s.c0 * in.at(i, j, k) + s.c1 * faces + s.c2 * edges + s.c3 * corners;
      }
    }
  }
}

void ref_resid(const Grid3& u, const Grid3& v, Grid3& r) {
  Grid3 au(u.n());
  ref_apply_stencil(mg_operator_a(), u, au);
  const int n = u.n();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        r.at(i, j, k) = v.at(i, j, k) - au.at(i, j, k);
      }
    }
  }
}

void ref_psinv(const Grid3& r, Grid3& u) {
  Grid3 sr(r.n());
  ref_apply_stencil(mg_smoother_c(), r, sr);
  const int n = r.n();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        u.at(i, j, k) += sr.at(i, j, k);
      }
    }
  }
}

void ref_rprj3(const Grid3& fine, Grid3& coarse) {
  const int nc = coarse.n();
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      for (int k = 0; k < nc; ++k) {
        const int fi = 2 * i, fj = 2 * j, fk = 2 * k;
        double faces = 0.0, edges = 0.0, corners = 0.0;
        for (int di = -1; di <= 1; ++di) {
          for (int dj = -1; dj <= 1; ++dj) {
            for (int dk = -1; dk <= 1; ++dk) {
              const int degree = std::abs(di) + std::abs(dj) + std::abs(dk);
              if (degree == 0) continue;
              const double v = fine.at(fi + di, fj + dj, fk + dk);
              if (degree == 1) {
                faces += v;
              } else if (degree == 2) {
                edges += v;
              } else {
                corners += v;
              }
            }
          }
        }
        coarse.at(i, j, k) = 0.5 * fine.at(fi, fj, fk) + 0.25 * faces +
                             0.125 * edges + 0.0625 * corners;
      }
    }
  }
}

void ref_interp(const Grid3& coarse, Grid3& fine) {
  const int nc = coarse.n();
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      for (int k = 0; k < nc; ++k) {
        for (int di = 0; di <= 1; ++di) {
          for (int dj = 0; dj <= 1; ++dj) {
            for (int dk = 0; dk <= 1; ++dk) {
              double sum = 0.0;
              int cnt = 0;
              for (int ci = 0; ci <= di; ++ci) {
                for (int cj = 0; cj <= dj; ++cj) {
                  for (int ck = 0; ck <= dk; ++ck) {
                    sum += coarse.at(i + ci, j + cj, k + ck);
                    ++cnt;
                  }
                }
              }
              fine.at(2 * i + di, 2 * j + dj, 2 * k + dk) +=
                  sum / static_cast<double>(cnt);
            }
          }
        }
      }
    }
  }
}

void ref_vcycle_correct(const Grid3& r, Grid3& z) {
  const int n = r.n();
  z.fill(0.0);
  if (n <= 4) {
    ref_psinv(r, z);
    return;
  }
  Grid3 rc(n / 2);
  ref_rprj3(r, rc);
  Grid3 zc(n / 2);
  ref_vcycle_correct(rc, zc);
  ref_interp(zc, z);
  Grid3 rf(n);
  ref_resid(z, r, rf);
  ref_psinv(rf, z);
}

void ref_vcycle(Grid3& u, const Grid3& v) {
  Grid3 r(u.n());
  ref_resid(u, v, r);
  Grid3 z(u.n());
  ref_vcycle_correct(r, z);
  const int n = u.n();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        u.at(i, j, k) += z.at(i, j, k);
      }
    }
  }
}

// Reference Black-Scholes: four cnd() calls per option.
void ref_black_scholes(const OptionBatch& batch, std::span<float> call,
                       std::span<float> put) {
  for (std::size_t i = 0; i < batch.stock_price.size(); ++i) {
    const float s = batch.stock_price[i];
    const float x = batch.strike_price[i];
    const float t = batch.years[i];
    const float sqrt_t = std::sqrt(t);
    const float d1 =
        (std::log(s / x) +
         (batch.riskfree + 0.5f * batch.volatility * batch.volatility) * t) /
        (batch.volatility * sqrt_t);
    const float d2 = d1 - batch.volatility * sqrt_t;
    const float exp_rt = std::exp(-batch.riskfree * t);
    call[i] = s * cnd(d1) - x * exp_rt * cnd(d2);
    put[i] = x * exp_rt * cnd(-d2) - s * cnd(-d1);
  }
}

bool same_bits(const Grid3& a, const Grid3& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Random values with full 53-bit mantissas spread over nine binades, so
// reordering any two adds changes the rounding of some cells (uniform
// draws alone lie on a 2^-52 grid, where short sums are exact). About one
// cell in eight is +0.0 or -0.0, so sums that start from 0.0 and sums
// that start from their first term can come out with different zero signs.
Grid3 random_grid(int n, std::uint64_t seed) {
  Grid3 g(n);
  Rng rng(seed);
  for (double& x : g.data()) {
    const std::uint64_t pick = rng.next_below(16);
    const int binade = static_cast<int>(rng.next_below(9)) - 4;
    x = pick == 0   ? 0.0
        : pick == 1 ? -0.0
                    : std::ldexp(rng.uniform(-1.0, 1.0) / 3.0, binade);
  }
  return g;
}

// -0.0 everywhere except +0.0 where every coordinate is a multiple of 3:
// isolated positive zeros surrounded by negative ones.
Grid3 signed_zero_grid(int n) {
  Grid3 g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        g.at(i, j, k) = (i % 3 == 0 && j % 3 == 0 && k % 3 == 0) ? 0.0 : -0.0;
      }
    }
  }
  return g;
}

// Runs the range one block at a time, last block first: every plane is
// its own shard, in an order no serial loop would use.
void reverse_blocks_for(long total, const RangeFn& fn) {
  for (long b = total - 1; b >= 0; --b) fn(b, b + 1);
}

class MgOracle : public ::testing::TestWithParam<int> {
 protected:
  std::vector<Grid3> inputs(std::uint64_t seed) const {
    return {random_grid(GetParam(), seed), signed_zero_grid(GetParam())};
  }
  const ParallelFor reverse_blocks_ = reverse_blocks_for;
};

TEST_P(MgOracle, StencilMatchesReferenceBitwise) {
  const int n = GetParam();
  for (const Stencil27& s : {mg_operator_a(), mg_smoother_c()}) {
    for (const Grid3& in : inputs(11)) {
      Grid3 want(n), serial(n), sharded(n);
      ref_apply_stencil(s, in, want);
      apply_stencil(s, in, serial);
      apply_stencil(s, in, sharded, reverse_blocks_);
      EXPECT_TRUE(same_bits(want, serial)) << "n=" << n << " c0=" << s.c0;
      EXPECT_TRUE(same_bits(want, sharded)) << "n=" << n << " c0=" << s.c0;
    }
  }
}

TEST_P(MgOracle, RestrictionMatchesReferenceBitwise) {
  const int n = GetParam();
  for (const Grid3& fine : inputs(12)) {
    Grid3 want(n / 2), serial(n / 2), sharded(n / 2);
    ref_rprj3(fine, want);
    mg_rprj3(fine, serial);
    mg_rprj3(fine, sharded, reverse_blocks_);
    EXPECT_TRUE(same_bits(want, serial)) << "n=" << n;
    EXPECT_TRUE(same_bits(want, sharded)) << "n=" << n;
  }
}

TEST_P(MgOracle, ProlongationMatchesReferenceBitwise) {
  const int n = GetParam();
  const Grid3 coarse_random = random_grid(n / 2, 13);
  const Grid3 coarse_zeros = signed_zero_grid(n / 2);
  for (const Grid3* coarse : {&coarse_random, &coarse_zeros}) {
    for (const Grid3& fine : inputs(14)) {
      Grid3 want = fine, serial = fine, sharded = fine;
      ref_interp(*coarse, want);
      mg_interp(*coarse, serial);
      mg_interp(*coarse, sharded, reverse_blocks_);
      EXPECT_TRUE(same_bits(want, serial)) << "n=" << n;
      EXPECT_TRUE(same_bits(want, sharded)) << "n=" << n;
    }
  }
}

TEST_P(MgOracle, ChainedVcyclesMatchReferenceBitwise) {
  const int n = GetParam();
  const Grid3 v = mg_make_rhs(n);
  for (const Grid3& u0 : inputs(15)) {
    Grid3 want = u0, serial = u0, sharded = u0;
    for (int it = 0; it < 3; ++it) {
      ref_vcycle(want, v);
      mg_vcycle(serial, v);
      mg_vcycle(sharded, v, reverse_blocks_);
      EXPECT_TRUE(same_bits(want, serial)) << "n=" << n << " it=" << it;
      EXPECT_TRUE(same_bits(want, sharded)) << "n=" << n << " it=" << it;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MgOracle, ::testing::Values(2, 4, 8, 16, 32));

TEST(BlackScholesOracle, MatchesFourCndReferenceBitwise) {
  std::vector<float> s, x, t;
  Rng rng(21);
  for (int i = 0; i < 20000; ++i) {
    s.push_back(static_cast<float>(rng.uniform(5.0, 30.0)));
    x.push_back(static_cast<float>(rng.uniform(1.0, 100.0)));
    t.push_back(static_cast<float>(rng.uniform(0.25, 10.0)));
  }
  // Edge cases: at the money, vanishing and huge spot, vanishing expiry.
  const float edge_s[] = {10.0f, 1e-30f, 1e30f, 10.0f, 1e-30f, 1e30f};
  const float edge_x[] = {10.0f, 10.0f, 10.0f, 20.0f, 1e-30f, 1e30f};
  const float edge_t[] = {1.0f, 1.0f, 1.0f, 1e-20f, 1e-20f, 1e-20f};
  for (std::size_t i = 0; i < std::size(edge_s); ++i) {
    s.push_back(edge_s[i]);
    x.push_back(edge_x[i]);
    t.push_back(edge_t[i]);
  }
  const std::size_t n = s.size();
  const OptionBatch batch{s, x, t, 0.02f, 0.30f};
  std::vector<float> want_call(n), want_put(n), call(n), put(n);
  ref_black_scholes(batch, want_call, want_put);
  black_scholes(batch, call, put);
  EXPECT_TRUE(same_bits(want_call, call));
  EXPECT_TRUE(same_bits(want_put, put));
}

}  // namespace
}  // namespace vgpu::kernels
