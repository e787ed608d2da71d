#include "analysis/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "util/strings.hpp"

namespace daos::analysis {

namespace {

/// One worker's slice of the grid. Owners pop from the front, thieves
/// steal from the back — the classic Chase-Lev split, with a plain mutex
/// instead of a lock-free deque because one grid point costs milliseconds
/// to seconds and the queue operation nanoseconds; contention is noise.
class WorkQueue {
 public:
  void Push(std::size_t index) { deque_.push_back(index); }

  bool PopFront(std::size_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (deque_.empty()) return false;
    *index = deque_.front();
    deque_.pop_front();
    return true;
  }

  bool StealBack(std::size_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (deque_.empty()) return false;
    *index = deque_.back();
    deque_.pop_back();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<std::size_t> deque_;
};

}  // namespace

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : JobsFromEnv()) {}

unsigned ParallelRunner::JobsFromEnv() {
  if (const char* env = std::getenv("DAOS_JOBS")) {
    const auto v = ParseU32(env);
    if (v && *v > 0 && *v < 1024) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ParallelRunner::ForEach(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(jobs_, n);
  if (workers <= 1) {
    // Sequential fast path: no threads, no queues — and the reference
    // behaviour the parallel path must reproduce bit for bit.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Round-robin initial distribution; neighbours in the grid tend to have
  // similar cost, so striding spreads the heavy region of a sweep across
  // all workers instead of concentrating it in one deque.
  std::vector<WorkQueue> queues(workers);
  for (std::size_t i = 0; i < n; ++i) queues[i % workers].Push(i);

  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> abort{false};

  auto worker = [&](std::size_t self) {
    std::size_t index = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      bool found = queues[self].PopFront(&index);
      // Own deque drained: steal from the busiest-looking victims in ring
      // order. One full silent lap means every deque is empty — done.
      for (std::size_t v = 1; !found && v < workers; ++v) {
        found = queues[(self + v) % workers].StealBack(&index);
      }
      if (!found) return;
      try {
        fn(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::vector<ExperimentResult> ParallelRunner::Run(
    const std::vector<RunSpec>& specs) {
  std::vector<ExperimentResult> results(specs.size());
  ForEach(specs.size(), [&](std::size_t i) {
    const RunSpec& spec = specs[i];
    results[i] = RunWorkload(
        spec.profile, spec.config, spec.options,
        spec.schemes.has_value() ? &*spec.schemes : nullptr, spec.recorder);
  });
  return results;
}

}  // namespace daos::analysis
