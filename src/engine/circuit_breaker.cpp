#include "engine/circuit_breaker.hpp"

namespace fpga_stencil {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::closed: return "closed";
    case BreakerState::open: return "open";
    case BreakerState::half_open: return "half_open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(int threshold,
                               std::chrono::milliseconds cooldown)
    : threshold_(threshold), cooldown_(cooldown) {}

bool CircuitBreaker::breakable(ExecutionBackend b) {
  return b == ExecutionBackend::concurrent ||
         b == ExecutionBackend::block_parallel ||
         b == ExecutionBackend::resilient;
}

CircuitBreaker::Entry& CircuitBreaker::entry(ExecutionBackend b) {
  return entries_[std::size_t(b)];
}

CircuitBreaker::Decision CircuitBreaker::route(ExecutionBackend requested) {
  if (!enabled() || !breakable(requested)) return {requested, false};
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(requested);
  switch (e.state) {
    case BreakerState::closed:
      return {requested, false};
    case BreakerState::open:
      if (std::chrono::steady_clock::now() - e.opened_at >= cooldown_) {
        // Cooldown over: this job is the half-open probe.
        e.state = BreakerState::half_open;
        e.probe_in_flight = true;
        return {requested, false, ++e.probes};
      }
      ++reroutes_;
      return {ExecutionBackend::sync_sim, true};
    case BreakerState::half_open:
      if (!e.probe_in_flight) {
        e.probe_in_flight = true;
        return {requested, false, ++e.probes};
      }
      // One probe at a time; everyone else stays on the fallback.
      ++reroutes_;
      return {ExecutionBackend::sync_sim, true};
  }
  return {requested, false};
}

void CircuitBreaker::on_success(ExecutionBackend used) {
  if (!enabled() || !breakable(used)) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(used);
  // A success is proof of health whatever the state (the probe closing a
  // half-open breaker, or a straggler finishing after the trip).
  e.state = BreakerState::closed;
  e.consecutive_failures = 0;
  e.probe_in_flight = false;
}

void CircuitBreaker::on_failure(ExecutionBackend used) {
  if (!enabled() || !breakable(used)) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(used);
  e.probe_in_flight = false;
  if (e.state == BreakerState::half_open) {
    // The probe failed: back to open for another cooldown.
    e.state = BreakerState::open;
    e.opened_at = std::chrono::steady_clock::now();
    ++trips_;
    return;
  }
  ++e.consecutive_failures;
  if (e.state == BreakerState::closed &&
      e.consecutive_failures >= threshold_) {
    e.state = BreakerState::open;
    e.opened_at = std::chrono::steady_clock::now();
    ++trips_;
  }
}

void CircuitBreaker::release_probe(ExecutionBackend used,
                                   std::uint64_t probe) {
  if (!enabled() || !breakable(used)) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(used);
  if (e.state == BreakerState::half_open && e.probes == probe) {
    e.probe_in_flight = false;
  }
}

BreakerState CircuitBreaker::state(ExecutionBackend b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_[std::size_t(b)].state;
}

std::int64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

std::int64_t CircuitBreaker::reroutes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reroutes_;
}

}  // namespace fpga_stencil
