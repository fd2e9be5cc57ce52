// EngineCluster: the multi-tenant serving tier over N StencilEngine
// shards (docs/SERVING.md).
//
// One process, N independent engine shards -- each with its own worker
// pool, PlanCache, BufferPool, and circuit breaker -- behind a
// consistent-hash router keyed by plan fingerprint, so every job stream
// that shares a plan hits the same shard's hot caches. In front of the
// router sits tenant admission: per-tenant inflight caps and token-bucket
// rate limits, enforced before a job touches any shard, with either
// blocking backpressure or QuotaExceededError carrying a retry-after
// hint. QoS class and priority ride inside the JobSpec and are honored
// by each shard's weighted admission queue.
//
//   EngineCluster cluster({.shards = 4});
//   JobSpec spec(taps, cfg, std::move(grid), iters);
//   spec.tenant = "alice";
//   spec.qos = QosClass::interactive;
//   JobHandle h = cluster.submit(std::move(spec));   // the one front door
//
// Shards share the cluster's Telemetry under distinct metric prefixes
// ("engine.shard<k>.*"), plus cluster-level counters ("cluster.*",
// "cluster.tenant.<tenant>.*") -- nothing collides in one registry.
//
// Operability: drain_shard(k) routes new work away, finishes everything
// the shard accepted (zero jobs lost -- a submission racing the drain is
// re-routed to another shard), and leaves it out of rotation;
// reload_shard(k) swaps in a fresh engine (cold caches, clean breaker)
// and restores it. The whole-cluster drain() is the graceful stop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/token_bucket.hpp"
#include "engine/shard_router.hpp"
#include "engine/stencil_engine.hpp"

namespace fpga_stencil {

/// Per-tenant admission limits. The default-constructed quota is
/// unlimited; a tenant missing from ClusterOptions::quotas gets
/// ClusterOptions::default_quota.
struct TenantQuota {
  /// Max jobs this tenant may have queued+running across all shards;
  /// 0 = unlimited.
  int max_inflight = 0;
  /// Sustained submissions per second (token bucket); 0 = unlimited.
  double rate_per_s = 0.0;
  /// Bucket depth; 0 defaults to max(rate_per_s, 1).
  double burst = 0.0;
  /// Over quota: true = block the submitter until admission is possible
  /// (backpressure), false = throw QuotaExceededError with retry-after.
  bool block = false;
};

/// Submission rejected by tenant admission (quota, not capacity: the
/// cluster is healthy, this tenant is over its limits). retry_after() is
/// the earliest a retry can succeed -- 0 for inflight caps, where the
/// trigger is one of the tenant's own jobs finishing, not a clock.
class QuotaExceededError : public std::runtime_error {
 public:
  QuotaExceededError(const std::string& what, std::chrono::nanoseconds after)
      : std::runtime_error(what), retry_after_(after) {}
  [[nodiscard]] std::chrono::nanoseconds retry_after() const {
    return retry_after_;
  }

 private:
  std::chrono::nanoseconds retry_after_;
};

struct ClusterOptions {
  /// Engine shards (>= 1). Each is an independent StencilEngine.
  int shards = 2;
  /// Template for every shard; telemetry and metrics_prefix are
  /// overridden per shard (shared registry, "engine.shard<k>" prefixes).
  EngineOptions engine;
  /// Ring smoothing; see ShardRouter.
  int vnodes_per_shard = 64;
  /// Per-tenant limits; tenants not listed get default_quota.
  std::map<std::string, TenantQuota> quotas;
  TenantQuota default_quota;  ///< unlimited unless configured
  /// Shared observability sink; null = cluster-local. Must outlive the
  /// cluster. Shards and cluster counters all record here.
  Telemetry* telemetry = nullptr;
};

class EngineCluster {
 public:
  explicit EngineCluster(ClusterOptions options = {});
  /// Drains every shard (accepted jobs all finish).
  ~EngineCluster();

  EngineCluster(const EngineCluster&) = delete;
  EngineCluster& operator=(const EngineCluster&) = delete;

  /// The client-facing front door: validates the spec (same path as
  /// StencilEngine::submit), applies the tenant's quota, routes by plan
  /// fingerprint, and admits to the owning shard. Throws ConfigError for
  /// bad specs, QuotaExceededError over quota (non-blocking tenants),
  /// EngineOverloadedError from a full shard queue under reject
  /// admission, EngineStoppedError when no shard is available.
  JobHandle submit(JobSpec spec);

  /// Routes new work away from shard k, then blocks until everything it
  /// accepted finished. The shard stays out of rotation (reload_shard
  /// brings it back). Safe under concurrent submissions: a job racing
  /// the drain is re-admitted to another shard, never lost.
  void drain_shard(int shard);

  /// Replaces shard k with a fresh engine (cold PlanCache/BufferPool,
  /// closed breaker) and puts it back in rotation. The old engine object
  /// stays alive until its last in-flight handle is gone.
  void reload_shard(int shard);

  /// Graceful stop: drains every shard; subsequent submissions throw
  /// EngineStoppedError. Idempotent.
  void drain();

  /// Blocks until every shard is idle (no queued or running jobs).
  void wait_idle();

  [[nodiscard]] int shards() const { return options_.shards; }
  /// The live engine behind shard k (stats/telemetry introspection).
  [[nodiscard]] StencilEngine& shard(int k);
  [[nodiscard]] const ShardRouter& router() const { return router_; }

  /// The consistent-hash key submit() routes this spec by: plan identity
  /// (tap-set fingerprint + blocking knobs + grid extents), the same
  /// vocabulary the per-shard PlanCache keys on.
  [[nodiscard]] static std::uint64_t route_key(const JobSpec& spec);
  /// The shard route_key currently lands on (test/ops introspection).
  [[nodiscard]] int route_shard(const JobSpec& spec) const;

  /// This tenant's jobs currently queued or running across all shards.
  [[nodiscard]] std::int64_t tenant_inflight(const std::string& tenant) const;

  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const ClusterOptions& options() const { return options_; }

 private:
  struct TenantState {
    explicit TenantState(const TenantQuota& q)
        : quota(q), bucket(q.rate_per_s, q.burst) {}
    const TenantQuota quota;
    TokenBucket bucket;
    std::mutex mu;
    std::condition_variable cv;  ///< blocking tenants wait for inflight
    std::int64_t inflight = 0;
  };

  TenantState& tenant_state(const std::string& tenant);
  /// Inflight + rate admission for one submission; throws
  /// QuotaExceededError (non-blocking) or blocks until admitted.
  void acquire_quota(TenantState& ts, const std::string& tenant);
  void release_quota(TenantState& ts);
  [[nodiscard]] std::string tenant_metric(const std::string& tenant,
                                          const char* suffix) const;

  ClusterOptions options_;
  Telemetry own_telemetry_;
  Telemetry* telemetry_;
  ShardRouter router_;

  mutable std::mutex shards_mu_;  ///< guards engines_ slot swaps
  std::vector<std::shared_ptr<StencilEngine>> engines_;
  bool draining_ = false;

  mutable std::mutex tenants_mu_;  ///< guards the tenant map shape
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
};

}  // namespace fpga_stencil
