// Per-backend circuit breaker for the engine's router.
//
// A backend that keeps failing (fault-injected pipeline, bug in a
// threaded runtime) should not keep eating jobs: after `threshold`
// consecutive failures the breaker *opens* for that backend and the
// router sends its jobs to the synchronous simulator instead -- slower,
// but sequential and dependency-free, the fallback of last resort. After
// `cooldown` the breaker goes *half-open*: exactly one probe job is let
// through; success closes the breaker (normal routing resumes), failure
// reopens it for another cooldown.
//
//   closed --(threshold consecutive failures)--> open
//   open   --(cooldown elapsed)--> half-open (one probe admitted)
//   half-open --(probe succeeds)--> closed
//   half-open --(probe fails)--> open
//   half-open --(probe cancelled)--> half-open (next job probes)
//
// Only the concurrent, block-parallel, and resilient backends are
// breakable. sync_sim is the fallback (rerouting it to itself is
// meaningless) and cluster jobs are never rerouted: a multi-board job's
// result vocabulary (ClusterStats) has no single-board equivalent.
//
// Failure classification is the caller's job: cancellations, deadline
// expiries, and configuration errors say nothing about backend health
// and must not be reported as failures (see
// ProgramExecutor::run_program). A probe job that ends that way hands its
// slot back with release_probe(), so the next job can probe instead.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "core/run_options.hpp"

namespace fpga_stencil {

enum class BreakerState : int { closed = 0, open = 1, half_open = 2 };

[[nodiscard]] const char* breaker_state_name(BreakerState s);

class CircuitBreaker {
 public:
  /// `threshold` consecutive failures open a backend's breaker; a
  /// threshold <= 0 disables the breaker entirely (route() is identity).
  CircuitBreaker(int threshold, std::chrono::milliseconds cooldown);

  struct Decision {
    ExecutionBackend backend = ExecutionBackend::sync_sim;
    bool rerouted = false;  ///< true when the breaker overrode `requested`
    /// The half-open probe slot this job holds (its handout number), or
    /// 0 when it holds none.
    std::uint64_t probe = 0;
  };

  /// The backend a job asking for `requested` should actually run on.
  /// Must be a concrete backend (automatic already resolved).
  [[nodiscard]] Decision route(ExecutionBackend requested);

  /// Reports the outcome of a job on the backend it actually ran on.
  void on_success(ExecutionBackend used);
  void on_failure(ExecutionBackend used);
  /// Hands back the probe slot `probe` (a Decision's) on `used`, charging
  /// nothing: the probe ended for a reason that says nothing about the
  /// backend's health (cancelled, past its deadline, a spec error). The
  /// breaker stays half-open, and the next job on `used` is the probe. A
  /// slot something else already freed (a success or failure on `used`)
  /// is left alone, so a stale release cannot free a later probe's slot.
  void release_probe(ExecutionBackend used, std::uint64_t probe);

  [[nodiscard]] BreakerState state(ExecutionBackend b) const;
  /// closed -> open transitions (including half-open probes that failed).
  [[nodiscard]] std::int64_t trips() const;
  /// Jobs sent to the fallback backend instead of the one they asked for.
  [[nodiscard]] std::int64_t reroutes() const;
  [[nodiscard]] bool enabled() const { return threshold_ > 0; }

  /// The backends the breaker tracks (gauge export, docs).
  [[nodiscard]] static constexpr std::array<ExecutionBackend, 3>
  breakable_backends() {
    return {ExecutionBackend::concurrent, ExecutionBackend::block_parallel,
            ExecutionBackend::resilient};
  }

 private:
  struct Entry {
    BreakerState state = BreakerState::closed;
    int consecutive_failures = 0;
    bool probe_in_flight = false;
    std::uint64_t probes = 0;  ///< probe slots handed out so far
    std::chrono::steady_clock::time_point opened_at{};
  };

  static bool breakable(ExecutionBackend b);
  Entry& entry(ExecutionBackend b);

  const int threshold_;
  const std::chrono::milliseconds cooldown_;
  mutable std::mutex mu_;
  std::array<Entry, 6> entries_;  ///< indexed by ExecutionBackend value
  std::int64_t trips_ = 0;
  std::int64_t reroutes_ = 0;
};

}  // namespace fpga_stencil
