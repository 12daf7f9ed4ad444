#ifndef HIERGAT_SERVE_ADMISSION_H_
#define HIERGAT_SERVE_ADMISSION_H_

/// Admission control for the serving layer (DESIGN.md §14): overload
/// answers with an explicit RESOURCE_EXHAUSTED shed response instead of
/// queueing without bound. One global gate on pending work (pairs
/// admitted but not yet answered) bounds server memory and tail
/// latency. It is lock-free (fetch_add + undo on overflow). Every shed
/// is counted (`hiergat.serve.admission.rejected`) and logged to the
/// flight recorder.

#include <atomic>
#include <cstdint>

#include "core/status.h"

namespace hiergat {
namespace serve {

struct AdmissionOptions {
  /// Cap on pairs admitted and not yet answered, across the whole
  /// server. 0 = unlimited.
  int max_pending_pairs = 8192;
};

class AdmissionController {
 public:
  explicit AdmissionController(
      const AdmissionOptions& options = AdmissionOptions());

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII admission ticket: releases the admitted capacity on
  /// destruction (after the response was produced). Default-constructed
  /// permits are empty and release nothing.
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& other) noexcept { *this = std::move(other); }
    Permit& operator=(Permit&& other) noexcept;
    ~Permit() { Release(); }

    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    void Release();

   private:
    friend class AdmissionController;
    Permit(AdmissionController* controller, int pairs)
        : controller_(controller), pairs_(pairs) {}

    AdmissionController* controller_ = nullptr;
    int pairs_ = 0;
  };

  /// Tries to admit a request of `num_pairs`. On overload returns
  /// ResourceExhausted and counts the shed; the caller must turn that
  /// into a wire-level RESOURCE_EXHAUSTED response.
  StatusOr<Permit> Admit(int num_pairs);

  int64_t pending_pairs() const {
    return pending_pairs_.load(std::memory_order_relaxed);
  }

 private:
  void Release(int pairs);

  const AdmissionOptions options_;
  std::atomic<int64_t> pending_pairs_{0};
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_ADMISSION_H_
