// The one worker pool in the tree. Fleet devices, sweep cells and
// contract worlds are all independent items whose results the caller
// reduces in index order, so each parallel loop is the same shape: claim
// the next index off a shared cursor, run it, repeat until none are left.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ehdnn {

// Calls fn(index, worker) exactly once for every index in [0, n), on
// min(jobs, n) workers numbered [0, workers). Indices are claimed off one
// atomic cursor, so which worker runs which index is unspecified: fn must
// write per-index results (or lock around shared state) and may use
// `worker` only to pick per-worker scratch. With one worker the loop runs
// inline on the calling thread, in index order. If fn throws, workers
// stop claiming indices and the first exception is rethrown after the
// pool joins.
template <class Fn>
void parallel_for(std::size_t n, int jobs, Fn&& fn) {
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto work = [&](int worker) {
    try {
      for (std::size_t i = cursor++; i < n; i = cursor++) fn(i, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      cursor = n;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    // A thread that cannot be started (resource limits) is not an error:
    // the workers that did start, this thread included, claim every index.
    try {
      pool.emplace_back(work, static_cast<int>(t));
    } catch (const std::system_error&) {
      break;
    }
  }
  work(0);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ehdnn
