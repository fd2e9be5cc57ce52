// LRU cache of validated execution plans.
//
// On a real system every distinct (stencil, knob set) pair is a separate
// `aoc` bitstream, and even re-validating a configuration and rebuilding
// its BlockingPlan per job is wasted work under a job stream that reuses a
// handful of specs. The cache front-loads that cost once per distinct
// (taps, config, grid extents) key: stage-lag resolution + validation
// (resolve_stage_lag), the blocking plan, and -- when the engine autotunes
// -- the tuned geometry.
//
// Keys fingerprint the tap set by *value* (offsets + coefficient bits), so
// two TapSet objects with identical taps share a plan while a changed
// coefficient misses. Values are shared_ptr<const CachedPlan>: eviction
// never invalidates a plan a running job still holds.
//
// Thread-safe; tests cover eviction order and key sensitivity directly
// (tests/plan_cache_test.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "core/run_options.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

class CancellationToken;   // common/cancellation.hpp; pointer-only here

/// FNV-1a over the tap set's value identity: dims, radius, and each tap's
/// offsets and coefficient bit pattern (accumulation order included --
/// reordered taps are a different stencil bit-wise).
[[nodiscard]] std::uint64_t tap_set_fingerprint(const TapSet& taps);

/// A validated, ready-to-dispatch plan for one (stencil, config, grid).
struct CachedPlan {
  AcceleratorConfig config;  ///< stage lag resolved, validated against taps
  BlockingPlan blocking;     ///< decomposition for the keyed extents

  /// Autotuning provenance (zeroed when the plan was built with
  /// AutotuneMode::off or the tuner declined). `tuned` means `config`'s
  /// geometry came from the HostAutotuner; it is resolved once per plan,
  /// never on the job hot path.
  bool tuned = false;
  bool tuned_from_cache = false;  ///< TuningCache hit (no probes ran)
  double tuned_mcells = 0.0;
  double tuned_baseline_mcells = 0.0;
  std::int64_t tuner_candidates_probed = 0;
  std::int64_t tuner_search_ns = 0;
};

/// Autotuning request threaded through lookup_or_build. With a null tuner
/// or mode == off the build keeps the requested geometry. Otherwise the
/// *build path* (outside the cache lock -- probing under the admission
/// lock is forbidden) asks the tuner to resolve the plan's geometry, so a
/// probe search runs at most once per cached plan and runs in the
/// submitting worker, honoring that job's cancellation/deadline token.
struct PlanAutotune {
  AutotuneMode mode = AutotuneMode::off;
  HostAutotuner* tuner = nullptr;            ///< null -> no tuning
  const CancellationToken* cancel = nullptr;  ///< honored during probes
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 32);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for (taps, cfg, extents), building and inserting it on a
  /// miss (evicting the least recently used entry at capacity). `hit`,
  /// when non-null, reports whether the entry already existed. Building
  /// throws ConfigError for invalid configurations -- nothing is cached
  /// for a key that fails validation; a cancelled autotune search
  /// propagates (CancelledError/DeadlineExceededError) and caches
  /// nothing. Pass nz == 1 for 2D grids.
  [[nodiscard]] std::shared_ptr<const CachedPlan> lookup_or_build(
      const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
      std::int64_t ny, std::int64_t nz = 1, bool* hit = nullptr,
      const PlanAutotune& autotune = {});

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;
  [[nodiscard]] std::int64_t evictions() const;

  /// Drops every entry (counters are kept).
  void clear();

 private:
  struct Key {
    std::uint64_t taps_fp = 0;
    int dims = 0, radius = 0, parvec = 0, partime = 0, stage_lag = 0;
    std::int64_t bsize_x = 0, bsize_y = 0;
    std::int64_t nx = 0, ny = 0, nz = 1;
    // Part of the key (unlike telemetry): it changes which code executes
    // the plan's blocks.
    bool use_specialized_kernels = true;
    // Also part of the key: an untuned plan built under `off` must not be
    // served to a `search` submission for the same spec (and vice versa).
    int autotune_mode = 0;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const CachedPlan> plan;
  };

  static Key make_key(const TapSet& taps, const AcceleratorConfig& cfg,
                      std::int64_t nx, std::int64_t ny, std::int64_t nz,
                      AutotuneMode mode);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  ///< front = most recently used
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace fpga_stencil
