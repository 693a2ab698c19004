// Serial-core executor: models a single-threaded processing element.
//
// Kernel PEs and service PEs are serial resources — a message handler
// occupies the core for its modelled cost before the next queued handler may
// start. This serialization is the main source of contention behind the
// paper's parallel-efficiency results (Figures 6-10), so it is modelled
// explicitly: work posted to an Executor runs at
//     start = max(now, busy_until), finish = start + cost
// and the closure executes at `finish` (its effects — replies, sends — become
// visible when the handler completes). FIFO order of posted work is
// preserved.
#ifndef SEMPEROS_SIM_EXECUTOR_H_
#define SEMPEROS_SIM_EXECUTOR_H_

#include <utility>

#include "base/types.h"
#include "sim/simulation.h"

namespace semperos {

class Executor {
 public:
  explicit Executor(Simulation* sim) : sim_(sim) {}

  // Runs `fn` after occupying the core for `cost` cycles (queueing behind any
  // work already posted). Returns the completion time.
  template <typename F>
  Cycles Post(Cycles cost, F&& fn) {
    Cycles start = busy_until_ > sim_->Now() ? busy_until_ : sim_->Now();
    Cycles finish = start + cost;
    busy_until_ = finish;
    busy_cycles_ += cost;
    sim_->ScheduleAt(finish, std::forward<F>(fn));
    return finish;
  }

  // Occupies the core without running anything (pure compute delay). No
  // event is scheduled — the completion time is only recorded as the
  // simulation's work horizon, so a drain still idles at the same Now().
  Cycles Occupy(Cycles cost) {
    Cycles start = busy_until_ > sim_->Now() ? busy_until_ : sim_->Now();
    Cycles finish = start + cost;
    busy_until_ = finish;
    busy_cycles_ += cost;
    sim_->NoteTime(finish);
    return finish;
  }

  Cycles busy_until() const { return busy_until_; }

  // Total cycles this core spent executing work (utilization numerator).
  Cycles busy_cycles() const { return busy_cycles_; }

 private:
  Simulation* sim_;
  Cycles busy_until_ = 0;
  Cycles busy_cycles_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_EXECUTOR_H_
