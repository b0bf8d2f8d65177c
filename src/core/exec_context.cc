#include "core/exec_context.h"

namespace setrec {

ExecContext ExecContext::Fork() {
  if (shared_ == nullptr) {
    // First fork: migrate this context's accumulated accounting into shared
    // atomic storage so parent and children keep one exact global tally.
    auto shared = std::make_shared<SharedBudget>();
    shared->steps.store(steps_, std::memory_order_relaxed);
    shared->rows.store(rows_, std::memory_order_relaxed);
    shared->memory_in_use.store(memory_in_use_, std::memory_order_relaxed);
    shared->memory_high_water.store(memory_high_water_,
                                    std::memory_order_relaxed);
    if (cancelled_.load(std::memory_order_relaxed)) {
      shared->cancelled.store(true, std::memory_order_relaxed);
    }
    shared_ = std::move(shared);
  }
  return ExecContext(ForkTag{}, *this);
}

}  // namespace setrec
