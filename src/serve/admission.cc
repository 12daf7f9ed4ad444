#include "serve/admission.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace hiergat {
namespace serve {

namespace {

obs::Counter& RejectedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.admission.rejected");
  return counter;
}
obs::Gauge& PendingPairsGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "hiergat.serve.admission.pending_pairs");
  return gauge;
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {}

AdmissionController::Permit& AdmissionController::Permit::operator=(
    Permit&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = std::exchange(other.controller_, nullptr);
    pairs_ = std::exchange(other.pairs_, 0);
  }
  return *this;
}

void AdmissionController::Permit::Release() {
  if (controller_ != nullptr) {
    controller_->Release(pairs_);
    controller_ = nullptr;
    pairs_ = 0;
  }
}

StatusOr<AdmissionController::Permit> AdmissionController::Admit(
    int num_pairs) {
  if (options_.max_pending_pairs <= 0) {
    return Permit();  // Unlimited: nothing to release.
  }
  const int64_t pending =
      pending_pairs_.fetch_add(num_pairs, std::memory_order_relaxed);
  if (pending + num_pairs > options_.max_pending_pairs) {
    pending_pairs_.fetch_sub(num_pairs, std::memory_order_relaxed);
    RejectedCounter().Increment();
    obs::RecordFlightEvent(obs::FlightEventKind::kServeShed,
                           "admission.queue", num_pairs, pending);
    return Status::ResourceExhausted(
        "admission: " + std::to_string(pending) +
        " pair(s) already pending (max_pending_pairs " +
        std::to_string(options_.max_pending_pairs) + ")");
  }
  PendingPairsGauge().Set(
      static_cast<double>(pending_pairs_.load(std::memory_order_relaxed)));
  return Permit(this, num_pairs);
}

void AdmissionController::Release(int pairs) {
  pending_pairs_.fetch_sub(pairs, std::memory_order_relaxed);
  PendingPairsGauge().Set(
      static_cast<double>(pending_pairs_.load(std::memory_order_relaxed)));
}

}  // namespace serve
}  // namespace hiergat
