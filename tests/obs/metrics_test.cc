#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/json.h"

namespace sysds {
namespace obs {
namespace {

TEST(MetricsTest, CounterConcurrentIncrements) {
  Counter* c = MetricsRegistry::Get().GetCounter("test.metrics.concurrent");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kIncrements);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Get().GetCounter("test.metrics.stable");
  Counter* b = MetricsRegistry::Get().GetCounter("test.metrics.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(MetricsRegistry::Get().CounterValue("test.metrics.never_made"),
            0);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge* g = MetricsRegistry::Get().GetGauge("test.metrics.gauge");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 40);
}

TEST(MetricsTest, HistogramLogBucketsAndQuantiles) {
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.hist");
  h->Reset();
  // 100 small values and 1 huge outlier: p50 stays small, p99 region large.
  for (int i = 0; i < 100; ++i) h->Observe(100);  // bucket bit_width(100)=7
  h->Observe(1 << 20);
  EXPECT_EQ(h->Count(), 101);
  EXPECT_EQ(h->Sum(), 100 * 100 + (1 << 20));
  EXPECT_LE(h->ApproxQuantile(0.5), 128);
  EXPECT_GE(h->ApproxQuantile(1.0), 1 << 20);
  EXPECT_EQ(h->BucketCount(7), 100);
}

TEST(MetricsTest, HistogramNonPositiveValuesLandInBucketZero) {
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.hist0");
  h->Reset();
  h->Observe(0);
  h->Observe(-5);
  EXPECT_EQ(h->BucketCount(0), 2);
}

TEST(MetricsTest, ExportJsonIsWellFormed) {
  MetricsRegistry::Get().GetCounter("test.metrics.json\"quote")->Add(3);
  MetricsRegistry::Get().GetGauge("test.metrics.jsong")->Set(7);
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.jsonh");
  h->Observe(1000);
  auto doc = ParseJson(MetricsRegistry::Get().ExportJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* quoted = counters->Find("test.metrics.json\"quote");
  ASSERT_NE(quoted, nullptr);
  EXPECT_EQ(quoted->AsNumber(), 3);
  const JsonValue* hist = doc->Find("histograms")->Find("test.metrics.jsonh");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->Find("count")->AsNumber(), 1);
}

TEST(MetricsTest, StatisticsInstructionTimesAggregate) {
  MetricsRegistry::Get().ResetValues();
  InstrStat* op = MetricsRegistry::Get().GetInstrStat("test.op");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([op] {
      for (int i = 0; i < 1000; ++i) op->Record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  std::string report = HeavyHitterReport();
  EXPECT_NE(report.find("test.op\t4000\t"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace sysds
