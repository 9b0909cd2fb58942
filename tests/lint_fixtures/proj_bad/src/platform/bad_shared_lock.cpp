// Fixture: shared locks in lane code. Lanes own their state and the
// epoch join is the one synchronisation point, so every lock type here is
// a shared-lock finding outside src/platform/concurrency.*.
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

namespace bad {

struct SharedLane {
  std::mutex mu;
  std::shared_mutex rw;
  std::condition_variable_any cv;
  RankedMutex ranked;
  OptimisticLatch latch;
};

}  // namespace bad
