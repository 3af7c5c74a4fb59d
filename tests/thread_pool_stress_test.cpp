// Stress property of util::parallelForChunks: many small fan-outs on the
// shared pool, issued concurrently from threads outside the pool. Each
// fan-out keeps its bookkeeping on the caller's stack, so a helper that
// touches it after the caller has returned is a use-after-scope; the
// sanitizer jobs (ASan/UBSan, TSan) run this suite to catch exactly that.
// Iteration and thread counts are fixed and small.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace urlf::util {
namespace {

constexpr int kCallers = 3;
constexpr int kFanOutsPerCaller = 4000;

TEST(ThreadPoolStress, ManySmallFanOutsFromConcurrentCallers) {
  std::atomic<std::size_t> total{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < kFanOutsPerCaller; ++i) {
        // 2..9 items, one per chunk: every fan-out enlists helpers and the
        // caller usually finishes its share first, then waits on them.
        const std::size_t n = 2 + static_cast<std::size_t>((i + c) % 8);
        std::vector<int> hits(n, 0);
        parallelForChunks(
            n,
            [&hits](std::size_t begin, std::size_t end) {
              for (std::size_t k = begin; k < end; ++k) ++hits[k];
            },
            0, 1);
        for (const int h : hits)
          if (h != 1) wrong.fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  for (auto& caller : callers) caller.join();

  EXPECT_EQ(wrong.load(), 0);
  std::size_t expected = 0;
  for (int c = 0; c < kCallers; ++c)
    for (int i = 0; i < kFanOutsPerCaller; ++i)
      expected += 2 + static_cast<std::size_t>((i + c) % 8);
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolStress, FanOutsThatThrowLeaveThePoolUsable) {
  for (int i = 0; i < 500; ++i) {
    EXPECT_THROW(parallelForChunks(
                     4,
                     [](std::size_t begin, std::size_t) {
                       if (begin == 3) throw std::runtime_error("chunk 3");
                     },
                     0, 1),
                 std::runtime_error);
  }
  std::atomic<int> calls{0};
  parallelFor(16, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 16);
}

}  // namespace
}  // namespace urlf::util
