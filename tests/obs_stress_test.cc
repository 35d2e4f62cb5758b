// Concurrency stress for the metrics primitives (runs under the `tsan`
// preset via the `concurrency` label): many threads hammer one
// histogram/counter/gauge and the trace store's rings while a scraper
// thread renders the registry (or the store) in a loop. The assertions
// are conservation laws — every recorded sample must be visible in the
// final snapshot — and the real check is ThreadSanitizer finding no race
// in the relaxed-atomic record paths or the render path.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cpdb::obs {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kPerThread = 20000;

TEST(ObsStressTest, ConcurrentRecordsAllLand) {
  Registry reg;
  Counter* counter = reg.GetCounter("cpdb_ops_total", "h", "", "ops");
  Gauge* gauge = reg.GetGauge("cpdb_level", "h", "", "level");
  Histogram* hist = reg.GetHistogram("cpdb_lat_us", "h", "", "lat_us");

  std::atomic<bool> stop{false};
  // Scraper: renders both surfaces concurrently with the writers. The
  // renders must be internally consistent enough to not crash or tear;
  // values are statistical by contract.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string p = reg.RenderPrometheus();
      std::string j = reg.RenderJson();
      EXPECT_NE(p.find("cpdb_ops_total"), std::string::npos);
      EXPECT_NE(j.find("\"ops\":"), std::string::npos);
    }
  });

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        hist->Record(static_cast<double>((t * kPerThread + i) % 4096));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(gauge->Value(), 0);  // equal +1/-1 thread counts
  Histogram::Snapshot s = hist->Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsStressTest, ConcurrentRegistrationIsIdempotent) {
  Registry reg;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        seen[t] = reg.GetCounter("cpdb_same_total", "h", "", "same");
        seen[t]->Inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), kThreads * 500u);
}

TEST(ObsStressTest, TraceRingUnderConcurrentRecordAndRead) {
  SpanStore store(/*capacity=*/64, /*slow_capacity=*/16);
  store.SetSlowThresholdUs(1e9);  // nothing qualifies: no stderr noise
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Nothing crosses the threshold, so the slow ring renders empty.
      const std::string json = store.TracesJson(8);
      EXPECT_NE(json.find("\"slow\":[]}"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < 5000; ++i) {
        // A commit-shaped tree: root plus one stage span with its tid,
        // under a root kind per writer so the rings fill concurrently.
        SpanCollector col(TraceContext{t * 5000 + i + 1, 0, true});
        const uint64_t root = col.Open("server.W" + std::to_string(t), 0);
        col.AppendTimed("commit.seal", root, 0, 1,
                        static_cast<int64_t>(t * 5000 + i), "T/t");
        col.Close(root);
        store.Record(col.Take(), /*sampled=*/true);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(store.recorded(), 4u * 5000u);
  EXPECT_EQ(store.slow_recorded(), 0u);
}

}  // namespace
}  // namespace cpdb::obs
