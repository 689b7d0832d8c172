#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace adept {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1 || workers_.size() <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Shared by the caller and the helper tasks. Helpers that the queue
  // releases only after the caller has drained every index find `next`
  // exhausted and return without touching `body`, so the state (which
  // owns a copy of the body) is the only thing that must outlive this
  // call — hence the shared_ptr.
  struct State {
    explicit State(std::function<void(std::size_t)> fn, std::size_t n)
        : body(std::move(fn)), count(n) {}
    std::function<void(std::size_t)> body;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> evaluations{0};  ///< Moved off the drains.
    std::exception_ptr error;  ///< First exception; guarded by mutex.
    std::mutex mutex;
    std::condition_variable finished;
  };
  auto state = std::make_shared<State>(body, count);
  auto drain = [](const std::shared_ptr<State>& s) {
    const std::uint64_t evaluations_before = detail::thread_evaluations;
    std::size_t completed = 0;
    for (std::size_t i; (i = s->next.fetch_add(1)) < s->count;) {
      // A body exception must not escape into worker_loop (which would
      // terminate) nor unwind the caller while helpers still run: record
      // the first one, skip the remaining indices, and let the caller
      // rethrow after every claimed index has finished.
      if (!s->failed.load(std::memory_order_acquire)) {
        try {
          s->body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(s->mutex);
          if (s->error == nullptr) s->error = std::current_exception();
          s->failed.store(true, std::memory_order_release);
        }
      }
      ++completed;
    }
    if (completed == 0) return;
    // One sum per drain, published before `done` so the caller sees it.
    s->evaluations += detail::thread_evaluations - evaluations_before;
    detail::thread_evaluations = evaluations_before;
    if (s->done.fetch_add(completed) + completed == s->count) {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->finished.notify_all();
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  for (std::size_t i = 0; i < helpers; ++i)
    submit([state, drain] { drain(state); });
  drain(state);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->finished.wait(lock,
                       [&] { return state->done.load() == state->count; });
  detail::thread_evaluations += state->evaluations.load();
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t worker = 0; worker < threads; ++worker) {
    workers.emplace_back([&, worker] {
      for (std::size_t i = worker; i < count; i += threads) body(i);
    });
  }
  for (auto& thread : workers) thread.join();
}

}  // namespace adept
