#include "engine/engine_cluster.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "engine/plan_cache.hpp"

namespace fpga_stencil {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

}  // namespace

EngineCluster::EngineCluster(ClusterOptions options)
    : options_(std::move(options)),
      telemetry_(options_.telemetry ? options_.telemetry : &own_telemetry_),
      router_(std::max(options_.shards, 1), options_.vnodes_per_shard) {
  FPGASTENCIL_EXPECT(options_.shards >= 1, "cluster needs at least one shard");
  engines_.reserve(std::size_t(options_.shards));
  for (int k = 0; k < options_.shards; ++k) {
    EngineOptions eo = options_.engine;
    eo.telemetry = telemetry_;
    eo.metrics_prefix = "engine.shard" + std::to_string(k);
    engines_.push_back(std::make_shared<StencilEngine>(std::move(eo)));
  }
  telemetry_->metrics().gauge("cluster.shards").set(options_.shards);
}

EngineCluster::~EngineCluster() {
  // Drain before members unwind: terminal hooks still reference tenant
  // states and the telemetry sink, so every job must be finished first.
  drain();
}

std::uint64_t EngineCluster::route_key(const JobSpec& spec) {
  // Same identity vocabulary as the per-shard PlanCache key: a stream of
  // jobs that would share a cached plan shares a route, which is the
  // whole point of fingerprint affinity.
  //
  // Program jobs route by the program fingerprint (the DAG of node
  // fingerprints): repeated submissions of one program land on one shard
  // and reuse its per-node plans/tuning. The placeholder taps/grid below
  // mix in constants, keeping the key stable per program.
  std::uint64_t h = kFnvOffset;
  if (spec.program) fnv_mix(h, spec.program->fingerprint());
  fnv_mix(h, tap_set_fingerprint(spec.taps));
  fnv_mix(h, std::uint64_t(spec.config.dims));
  fnv_mix(h, std::uint64_t(spec.config.radius));
  fnv_mix(h, std::uint64_t(spec.config.parvec));
  fnv_mix(h, std::uint64_t(spec.config.partime));
  fnv_mix(h, std::uint64_t(spec.config.bsize_x));
  fnv_mix(h, std::uint64_t(spec.config.bsize_y));
  fnv_mix(h, spec.config.use_specialized_kernels ? 1 : 0);
  const std::int64_t nx =
      std::visit([](const auto& g) { return g.nx(); }, spec.grid);
  const std::int64_t ny =
      std::visit([](const auto& g) { return g.ny(); }, spec.grid);
  const std::int64_t nz =
      spec.is_3d() ? std::get<Grid3D<float>>(spec.grid).nz() : 1;
  fnv_mix(h, std::uint64_t(nx));
  fnv_mix(h, std::uint64_t(ny));
  fnv_mix(h, std::uint64_t(nz));
  return h;
}

int EngineCluster::route_shard(const JobSpec& spec) const {
  return router_.route(route_key(spec));
}

EngineCluster::TenantState& EngineCluster::tenant_state(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    const auto q = options_.quotas.find(tenant);
    const TenantQuota& quota =
        q != options_.quotas.end() ? q->second : options_.default_quota;
    it = tenants_.emplace(tenant, std::make_unique<TenantState>(quota)).first;
  }
  return *it->second;
}

std::string EngineCluster::tenant_metric(const std::string& tenant,
                                         const char* suffix) const {
  return "cluster.tenant." + tenant + "." + suffix;
}

void EngineCluster::acquire_quota(TenantState& ts, const std::string& tenant) {
  // Inflight cap first: it releases on job completion, so a blocking
  // tenant parks on the cv rather than spinning.
  {
    std::unique_lock<std::mutex> lock(ts.mu);
    if (ts.quota.max_inflight > 0 && ts.inflight >= ts.quota.max_inflight) {
      if (!ts.quota.block) {
        telemetry_->metrics().counter("cluster.quota_rejected").add(1);
        telemetry_->metrics()
            .counter("cluster.quota_rejected_inflight")
            .add(1);
        telemetry_->metrics().counter(tenant_metric(tenant, "rejected")).add(1);
        throw QuotaExceededError(
            "tenant '" + tenant + "' is at its inflight cap (" +
                std::to_string(ts.quota.max_inflight) +
                "); retry when one of its jobs finishes",
            std::chrono::nanoseconds(0));
      }
      ts.cv.wait(lock, [&] { return ts.inflight < ts.quota.max_inflight; });
    }
    ++ts.inflight;
    telemetry_->metrics()
        .gauge(tenant_metric(tenant, "inflight"))
        .set(ts.inflight);
  }
  // Then the rate limit. Failure here must hand back the inflight slot.
  if (ts.bucket.limited() && !ts.bucket.try_acquire()) {
    if (!ts.quota.block) {
      const std::chrono::nanoseconds after = ts.bucket.time_until();
      release_quota(ts);
      telemetry_->metrics().counter("cluster.quota_rejected").add(1);
      telemetry_->metrics().counter("cluster.quota_rejected_rate").add(1);
      telemetry_->metrics().counter(tenant_metric(tenant, "rejected")).add(1);
      throw QuotaExceededError(
          "tenant '" + tenant + "' is over its rate limit (" +
              std::to_string(ts.quota.rate_per_s) + "/s)",
          after);
    }
    do {
      std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
          ts.bucket.time_until(), std::chrono::milliseconds(10)));
    } while (!ts.bucket.try_acquire());
  }
}

void EngineCluster::release_quota(TenantState& ts) {
  {
    std::lock_guard<std::mutex> lock(ts.mu);
    --ts.inflight;
  }
  ts.cv.notify_one();
}

JobHandle EngineCluster::submit(JobSpec spec) {
  validate_job_spec(spec);
  if (spec.tenant.empty()) spec.tenant = "default";
  const std::string tenant = spec.tenant;
  TenantState& ts = tenant_state(tenant);
  acquire_quota(ts, tenant);

  try {
    telemetry_->metrics().counter("cluster.jobs_submitted").add(1);
    telemetry_->metrics().counter(tenant_metric(tenant, "submitted")).add(1);

    // Quota release rides the terminal hook: the slot frees the moment
    // the job reaches a terminal state, whichever shard ran it.
    std::function<void(JobStatus)> user_cb = std::move(spec.on_terminal);
    Telemetry* telemetry = telemetry_;
    std::string status_metric_base = tenant_metric(tenant, "");
    spec.on_terminal = [this, &ts, telemetry,
                        base = std::move(status_metric_base),
                        cb = std::move(user_cb)](JobStatus s) {
      release_quota(ts);
      telemetry->metrics().counter(base + job_status_name(s)).add(1);
      if (cb) cb(s);
    };

    const std::uint64_t key = route_key(spec);
    std::shared_ptr<detail::JobState> state =
        StencilEngine::make_job_state(std::move(spec));

    // Admission races a concurrent drain_shard: the router said shard k,
    // but k stopped before admit landed. The state survives the throw,
    // so re-route and try again -- bounded because a drained shard is
    // already out of the ring when its engine rejects.
    for (int attempt = 0; attempt <= options_.shards; ++attempt) {
      int k = -1;
      try {
        k = router_.route(key);
      } catch (const NoShardAvailableError&) {
        throw EngineStoppedError(
            "cluster has no available shards; submissions are closed");
      }
      std::shared_ptr<StencilEngine> engine;
      {
        std::lock_guard<std::mutex> lock(shards_mu_);
        engine = engines_[std::size_t(k)];
      }
      try {
        return engine->admit(state);
      } catch (const EngineStoppedError&) {
        telemetry_->metrics().counter("cluster.submit_reroutes").add(1);
        continue;
      }
    }
    throw EngineStoppedError(
        "cluster could not place the job on any available shard");
  } catch (...) {
    // Not admitted anywhere: the terminal hook will never run, so the
    // quota slot comes back here.
    release_quota(ts);
    throw;
  }
}

StencilEngine& EngineCluster::shard(int k) {
  FPGASTENCIL_EXPECT(k >= 0 && k < options_.shards, "shard out of range");
  std::lock_guard<std::mutex> lock(shards_mu_);
  return *engines_[std::size_t(k)];
}

void EngineCluster::drain_shard(int shard) {
  FPGASTENCIL_EXPECT(shard >= 0 && shard < options_.shards,
                     "shard out of range");
  // Out of the ring first, so new submissions route elsewhere while the
  // shard finishes what it already accepted.
  router_.set_available(shard, false);
  std::shared_ptr<StencilEngine> engine;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    engine = engines_[std::size_t(shard)];
  }
  engine->drain();
  telemetry_->metrics().counter("cluster.shard_drains").add(1);
  telemetry_->tracer().instant("cluster.shard_drained", shard, "cluster");
}

void EngineCluster::reload_shard(int shard) {
  FPGASTENCIL_EXPECT(shard >= 0 && shard < options_.shards,
                     "shard out of range");
  EngineOptions eo = options_.engine;
  eo.telemetry = telemetry_;
  eo.metrics_prefix = "engine.shard" + std::to_string(shard);
  auto fresh = std::make_shared<StencilEngine>(std::move(eo));
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    // The old engine dies when its last in-flight handle lets go.
    engines_[std::size_t(shard)] = std::move(fresh);
  }
  router_.set_available(shard, true);
  telemetry_->metrics().counter("cluster.shard_reloads").add(1);
  telemetry_->tracer().instant("cluster.shard_reloaded", shard, "cluster");
}

void EngineCluster::drain() {
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    draining_ = true;
  }
  for (int k = 0; k < options_.shards; ++k) {
    router_.set_available(k, false);
  }
  std::vector<std::shared_ptr<StencilEngine>> engines;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    engines = engines_;
  }
  for (const auto& engine : engines) engine->drain();
}

void EngineCluster::wait_idle() {
  std::vector<std::shared_ptr<StencilEngine>> engines;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    engines = engines_;
  }
  for (const auto& engine : engines) engine->wait_idle();
}

std::int64_t EngineCluster::tenant_inflight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  std::lock_guard<std::mutex> tlock(it->second->mu);
  return it->second->inflight;
}

}  // namespace fpga_stencil
