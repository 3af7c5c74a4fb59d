#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace urlf::util {

namespace {
thread_local const ThreadPool* currentPool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threadCount, bool widthForced)
    : widthForced_(widthForced) {
  if (threadCount == 0) {
    threadCount = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threadCount);
  for (std::size_t i = 0; i < threadCount; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
}

ThreadPool& ThreadPool::shared() {
  // URLF_THREADS overrides the width (CI, benchmarking). Otherwise use the
  // hardware concurrency, but never fewer than two workers: a single-core
  // host still interleaves the pool's scheduling, so the determinism
  // contract is exercised rather than silently degrading to inline loops.
  static const std::size_t forcedWidth = [] {
    if (const char* env = std::getenv("URLF_THREADS")) {
      const long n = std::atol(env);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};
  }();
  static ThreadPool pool(
      forcedWidth != 0
          ? forcedWidth
          : std::max<std::size_t>(2, std::thread::hardware_concurrency()),
      /*widthForced=*/forcedWidth != 0);
  return pool;
}

bool ThreadPool::onWorkerThread() const { return currentPool == this; }

void ThreadPool::workerLoop() {
  currentPool = this;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

namespace {

/// Shared state of one chunked run: an atomic cursor every participating
/// thread (pool helpers and the caller) claims contiguous chunks from.
struct ChunkRun {
  std::atomic<std::size_t> cursor{0};
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<bool> failed{false};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t pendingHelpers = 0;
  std::exception_ptr firstError;

  /// Claim and process chunks until the range is exhausted or a chunk threw
  /// somewhere. Records the first exception; never lets one escape.
  void drain() {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        (*body)(begin, std::min(n, begin + grain));
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex);
      if (!firstError) firstError = std::current_exception();
    }
  }
};

}  // namespace

void parallelForChunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t threadLimit, std::size_t minChunk) {
  if (n == 0) return;
  if (minChunk == 0) minChunk = 1;

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t width =
      threadLimit == 0 ? pool.threadCount()
                       : std::min(threadLimit, pool.threadCount());
  // On a single-core host the pool still keeps two workers so scheduling
  // interleave is exercised by the test suite, but *fan-outs* run inline:
  // enlisting helpers there buys no concurrency and costs wakeups and
  // context switches on the one core. An explicit URLF_THREADS width is
  // honored as given.
  const bool soloHardware =
      !pool.widthForced() && std::thread::hardware_concurrency() <= 1;
  if (width <= 1 || n <= minChunk || pool.onWorkerThread() || soloHardware) {
    body(0, n);
    return;
  }

  ChunkRun run;
  run.n = n;
  run.body = &body;
  // A few chunks per participant so uneven chunks balance out, but never
  // below the cutoff that makes a chunk worth dispatching.
  run.grain = std::max(minChunk, (n + width * 4 - 1) / (width * 4));

  const std::size_t chunks = (n + run.grain - 1) / run.grain;
  const std::size_t helpers = std::min(width - 1, chunks - 1);
  {
    const std::lock_guard<std::mutex> lock(run.mutex);
    run.pendingHelpers = helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([&run] {
      run.drain();
      // Notify while holding the mutex: the caller cannot observe the last
      // decrement (and destroy `run`, which lives on its stack) until this
      // helper has released the lock, after its last touch of `run`.
      const std::lock_guard<std::mutex> lock(run.mutex);
      --run.pendingHelpers;
      run.done.notify_one();
    });
  }

  // The caller is a participant, not a bystander: it claims chunks off the
  // same cursor, so the fan-out costs no handoff latency when the pool is
  // busy or the host has few cores.
  run.drain();

  std::unique_lock<std::mutex> lock(run.mutex);
  run.done.wait(lock, [&run] { return run.pendingHelpers == 0; });
  if (run.firstError) std::rethrow_exception(run.firstError);
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threadLimit) {
  parallelForChunks(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threadLimit, /*minChunk=*/1);
}

}  // namespace urlf::util
