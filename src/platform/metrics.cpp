#include "platform/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace toss {

size_t LatencyHistogram::bucket_of(Nanos t) {
  const double clamped = std::max(t, 0.0);
  const u64 ns = static_cast<u64>(std::min(clamped, 1e18));
  if (ns <= 1) return 0;
  const int idx = std::bit_width(ns) - 1;  // floor(log2(ns))
  return static_cast<size_t>(std::min(idx, kBucketCount - 1));
}

double LatencyHistogram::percentile(double p) const {
  if (count == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const u64 rank = static_cast<u64>(
      std::ceil(clamped / 100.0 * static_cast<double>(count)));
  u64 seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets[static_cast<size_t>(i)];
    if (seen >= std::max<u64>(rank, 1)) {
      const double upper = std::ldexp(1.0, i + 1);  // 2^(i+1) ns
      return std::min(upper, max);
    }
  }
  return max;
}

u64 MetricsSnapshot::total_invocations() const {
  u64 n = 0;
  for (const FunctionMetrics& m : functions) n += m.invocations;
  return n;
}

const FunctionMetrics* MetricsSnapshot::find(const std::string& name) const {
  for (const FunctionMetrics& m : functions)
    if (m.function == name) return &m;
  return nullptr;
}

namespace {

void append_histogram(std::string& out, const char* key,
                      const LatencyHistogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"mean_ns\":%.1f,\"min_ns\":%.1f,"
                "\"max_ns\":%.1f,\"p50_ns\":%.1f,\"p95_ns\":%.1f,"
                "\"p99_ns\":%.1f}",
                key, static_cast<unsigned long long>(h.count), h.mean(),
                h.min, h.max, h.percentile(50), h.percentile(95),
                h.percentile(99));
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"schema\":" + std::to_string(kJsonSchemaVersion) + ",";
  if (!host.empty()) out += "\"host\":\"" + host + "\",";
  if (!tiers.empty()) {
    out += "\"tiers\":[";
    for (size_t i = 0; i < tiers.size(); ++i) {
      const TierRollup& t = tiers[i];
      if (i) out += ",";
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "{\"tier\":\"%s\",\"resident_bytes\":%llu,"
                    "\"capacity_bytes\":%llu,\"occupancy\":%.6f}",
                    t.tier.c_str(),
                    static_cast<unsigned long long>(t.resident_bytes),
                    static_cast<unsigned long long>(t.capacity_bytes),
                    t.occupancy);
      out += buf;
    }
    out += "],";
  }
  if (health.present) {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "\"health\":{\"lost\":%s,\"quarantined\":%s,"
                  "\"brownouts\":%llu,\"quarantines\":%llu,"
                  "\"readmissions\":%llu,\"lanes_failed_over\":%llu},",
                  health.lost ? "true" : "false",
                  health.quarantined ? "true" : "false",
                  static_cast<unsigned long long>(health.brownouts),
                  static_cast<unsigned long long>(health.quarantines),
                  static_cast<unsigned long long>(health.readmissions),
                  static_cast<unsigned long long>(health.lanes_failed_over));
    out += buf;
  }
  if (!qos.empty()) {
    out += "\"qos\":[";
    for (size_t i = 0; i < qos.size(); ++i) {
      const QosClassRollup& q = qos[i];
      if (i) out += ",";
      char buf[224];
      std::snprintf(buf, sizeof(buf),
                    "{\"class\":\"%s\",\"offered\":%llu,\"completed\":%llu,"
                    "\"slo_met\":%llu,\"attainment\":%.6f}",
                    qos_class_name(q.cls),
                    static_cast<unsigned long long>(q.ledger.offered),
                    static_cast<unsigned long long>(q.ledger.completed),
                    static_cast<unsigned long long>(q.ledger.slo_met),
                    q.ledger.attainment());
      out += buf;
    }
    out += "],";
  }
  out += "\"functions\":[";
  for (size_t i = 0; i < functions.size(); ++i) {
    const FunctionMetrics& m = functions[i];
    if (i) out += ",";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"function\":\"%s\",\"invocations\":%llu,"
                  "\"cold_boots\":%llu,\"phase_invocations\":[%llu,%llu,"
                  "%llu],\"total_charge\":%.6e,",
                  m.function.c_str(),
                  static_cast<unsigned long long>(m.invocations),
                  static_cast<unsigned long long>(m.cold_boots),
                  static_cast<unsigned long long>(m.phase_invocations[0]),
                  static_cast<unsigned long long>(m.phase_invocations[1]),
                  static_cast<unsigned long long>(m.phase_invocations[2]),
                  m.total_charge);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"recovery\":{\"faults\":%llu,\"retries\":%llu,"
                  "\"fallback_single_tier\":%llu,\"fallback_cold_boot\":%llu,"
                  "\"quarantines\":%llu,\"regenerations\":%llu,"
                  "\"breaker_suspended\":%llu,\"incomplete\":%llu},",
                  static_cast<unsigned long long>(m.recovered_faults),
                  static_cast<unsigned long long>(m.recovery_retries),
                  static_cast<unsigned long long>(m.fallbacks_single_tier),
                  static_cast<unsigned long long>(m.fallbacks_cold_boot),
                  static_cast<unsigned long long>(m.quarantines),
                  static_cast<unsigned long long>(m.regenerations),
                  static_cast<unsigned long long>(m.breaker_suspended),
                  static_cast<unsigned long long>(m.incomplete));
    out += buf;
    // The per-cause keys are the historical schema-2/5 names, one per
    // ShedCause, emitted in enum order (shed_cause_json_key).
    out += "\"overload\":{\"admitted\":" + std::to_string(m.admitted) + ",";
    for (size_t c = 0; c < kShedCauseCount; ++c) {
      out += "\"";
      out += shed_cause_json_key(static_cast<ShedCause>(c));
      out += "\":" + std::to_string(m.shed[c]) + ",";
    }
    char obuf[256];
    std::snprintf(obuf, sizeof(obuf),
                  "\"deadline_misses\":%llu,"
                  "\"demotions\":%llu,\"promotions\":%llu,"
                  "\"watchdog_trips\":%llu},",
                  static_cast<unsigned long long>(m.deadline_misses),
                  static_cast<unsigned long long>(m.demotions),
                  static_cast<unsigned long long>(m.promotions),
                  static_cast<unsigned long long>(m.watchdog_trips));
    out += obuf;
    if (m.qos != QosClass::kNone) {
      std::snprintf(obuf, sizeof(obuf),
                    "\"qos\":{\"class\":\"%s\",\"slo_slowdown\":%g,"
                    "\"offered\":%llu,\"completed\":%llu,\"slo_met\":%llu,"
                    "\"attainment\":%.6f},",
                    qos_class_name(m.qos), m.slo_slowdown,
                    static_cast<unsigned long long>(m.slo.offered),
                    static_cast<unsigned long long>(m.slo.completed),
                    static_cast<unsigned long long>(m.slo.slo_met),
                    m.slo.attainment());
      out += obuf;
    }
    append_histogram(out, "total_ns", m.total_ns);
    out += ",";
    append_histogram(out, "setup_ns", m.setup_ns);
    out += ",";
    append_histogram(out, "exec_ns", m.exec_ns);
    out += "}";
  }
  out += "],\"total_invocations\":";
  out += std::to_string(total_invocations());
  out += "}";
  return out;
}

}  // namespace toss
