#include "server/admission.h"

#include "obs/metrics.h"

namespace tsc::server {
void AdmissionController::Permit::Release() {
  if (controller_ != nullptr) {
    controller_->Release();
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {}

AdmissionController::Outcome AdmissionController::Acquire(
    std::chrono::steady_clock::time_point deadline, Permit* permit) {
  static obs::Counter& rejected =
      obs::MetricRegistry::Default().GetCounter("server.rejected");
  static obs::Counter& queue_timeouts =
      obs::MetricRegistry::Default().GetCounter("server.queue_timeouts");

  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Outcome::kShutdown;
  if (active_ < options_.max_concurrent) {
    ++active_;
    *permit = Permit(this);
    return Outcome::kAdmitted;
  }
  if (queued_ >= options_.max_queue) {
    rejected.Increment();
    return Outcome::kRejected;
  }
  ++queued_;
  const bool got_slot = cv_.wait_until(lock, deadline, [this] {
    return shutdown_ || active_ < options_.max_concurrent;
  });
  --queued_;
  if (shutdown_) return Outcome::kShutdown;
  if (!got_slot) {
    queue_timeouts.Increment();
    return Outcome::kTimedOut;
  }
  ++active_;
  *permit = Permit(this);
  return Outcome::kAdmitted;
}

void AdmissionController::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::size_t AdmissionController::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

std::size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

void AdmissionController::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
  cv_.notify_one();
}

}  // namespace tsc::server
