// Fusion seam for elementwise kernel chains (docs/graphs.md).
//
// A graph replay that finds two adjacent elementwise nodes — node B's
// sole dependency is node A, A's sole consumer is B, equal grids, and
// B reads exactly what A wrote — can execute the pair as one pass over
// the data instead of two: every block range runs stage A then stage B
// while the range is still cache-hot, the same trick the live path's
// double-buffered streaming uses for copy/compute overlap.
//
// The contract that makes fusion bitwise-safe is the elementwise stream
// contract (docs/execution.md): a stage's block k reads exactly element
// block k of its inputs and writes exactly element block k of its
// output. Under that contract the per-element arithmetic is identical
// no matter how block ranges interleave across stages, so a fused chain
// is bitwise-equal to running the member kernels serially.
#pragma once

#include <algorithm>
#include <span>

#include "common/parallel.hpp"
#include "common/status.hpp"

#include "exec/engine.hpp"

namespace vgpu::exec {

/// One stage of a fused chain: executes blocks [begin, end) of its
/// kernel over spans the caller pre-bound (closure state).
using FusedStage = RangeFn;

/// Runs `stages` back-to-back per block range, making one pass over the
/// data: a single parallel_for (capped by `max_shards` — pass the min of
/// the member kernels' occupancy caps, or 1 for a one-shard replay) whose
/// shard body walks its range in `chunk`-block pieces, applying every
/// stage to a piece while it is cache-hot.
inline Status run_fused(ExecEngine& engine, long total_blocks,
                        std::span<const FusedStage> stages, long max_shards,
                        long chunk = 64) {
  if (total_blocks <= 0 || stages.empty()) return Status::Ok();
  chunk = std::max<long>(1, chunk);
  return engine.parallel_for(
      total_blocks,
      [&stages, chunk](long begin, long end) {
        for (long b = begin; b < end; b += chunk) {
          const long e = std::min(end, b + chunk);
          for (const auto& stage : stages) stage(b, e);
        }
      },
      max_shards);
}

}  // namespace vgpu::exec
