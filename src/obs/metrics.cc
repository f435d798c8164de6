#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <sstream>

namespace sysds {
namespace obs {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1) % kMetricShards;
  return shard;
}

void Histogram::Observe(int64_t v) {
  int bucket =
      v <= 0 ? 0 : std::bit_width(static_cast<uint64_t>(v));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.Add(v);
}

int64_t Histogram::Count() const {
  int64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

int64_t Histogram::ApproxQuantile(double p) const {
  int64_t n = Count();
  if (n == 0) return 0;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(n - 1));
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      return i == 0 ? 0 : (int64_t{1} << std::min(i, 62));
    }
  }
  return int64_t{1} << 62;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.Reset();
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

namespace {
// Shared-lock lookup with exclusive-lock insertion on miss; values are
// never erased, so returned pointers stay valid forever.
template <typename T>
T* GetOrCreate(std::shared_mutex& mutex,
               std::map<std::string, std::unique_ptr<T>>& map,
               const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex);
    auto it = map.find(name);
    if (it != map.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mutex);
  auto& slot = map[name];
  if (slot == nullptr) slot = std::make_unique<T>();
  return slot.get();
}

void JsonEscapeTo(const std::string& s, std::ostream& os) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}
}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(mutex_, counters_, name);
}
Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(mutex_, gauges_, name);
}
Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(mutex_, histograms_, name);
}
InstrStat* MetricsRegistry::GetInstrStat(const std::string& name) {
  return GetOrCreate(mutex_, instructions_, name);
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

void MetricsRegistry::ResetValues() {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, s] : instructions_) {
    s->count.Reset();
    s->nanos.Reset();
  }
}

std::vector<MetricsRegistry::CounterSnapshot> MetricsRegistry::Counters()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back({name, c->Value()});
  return out;
}

std::vector<MetricsRegistry::GaugeSnapshot> MetricsRegistry::Gauges() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back({name, g->Value()});
  return out;
}

std::vector<MetricsRegistry::InstrSnapshot> MetricsRegistry::Instructions()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<InstrSnapshot> out;
  out.reserve(instructions_.size());
  for (const auto& [name, s] : instructions_) {
    out.push_back({name, s->count.Value(),
                   static_cast<double>(s->nanos.Value()) / 1e9});
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::ostringstream os;
  os << "{";
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":" << c->Value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":" << g->Value();
  }
  os << "},\"instructions\":{";
  first = true;
  for (const auto& [name, s] : instructions_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":{\"count\":" << s->count.Value()
       << ",\"seconds\":" << static_cast<double>(s->nanos.Value()) / 1e9
       << "}";
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":{\"count\":" << h->Count() << ",\"sum\":" << h->Sum()
       << ",\"p50\":" << h->ApproxQuantile(0.5)
       << ",\"p99\":" << h->ApproxQuantile(0.99) << ",\"buckets\":[";
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      int64_t v = h->BucketCount(i);
      if (v == 0) continue;
      if (!bfirst) os << ",";
      bfirst = false;
      os << "[" << i << "," << v << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string HeavyHitterReport(int top_k) {
  const MetricsRegistry& reg = MetricsRegistry::Get();
  std::ostringstream os;
  std::vector<MetricsRegistry::InstrSnapshot> instrs;
  for (auto& s : reg.Instructions()) {
    if (s.count > 0) instrs.push_back(std::move(s));
  }
  std::sort(instrs.begin(), instrs.end(),
            [](const auto& a, const auto& b) { return a.seconds > b.seconds; });
  os << "Heavy hitter instructions (count, time[s]):\n";
  const size_t shown = std::min(instrs.size(), static_cast<size_t>(top_k));
  for (size_t i = 0; i < shown; ++i) {
    os << "  " << instrs[i].name << "\t" << instrs[i].count << "\t"
       << instrs[i].seconds << "\n";
  }
  bool header = false;
  for (const auto& c : reg.Counters()) {
    if (c.value == 0) continue;
    if (!header) os << "Counters:\n";
    header = true;
    os << "  " << c.name << "\t" << c.value << "\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace sysds
