// Fixture: the executor's own module, exempt from shared-lock, so its
// mutex and condition variable pass unwaived. The predicate waits and a
// deliberately suppressed bare wait are clean for the unbounded-wait rule.
#include <condition_variable>
#include <mutex>

namespace good {

bool done = false;

void wait_with_predicate(std::condition_variable& cv, std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [] { return done; });
}

void wait_split_over_lines(std::condition_variable& cv, std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock,
          [] { return done; });
}

void wait_externally_bounded(std::condition_variable& cv, std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock);  // toss-lint: allow(unbounded-wait)
}

}  // namespace good
