#include "tapo/live.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"

namespace tapo::analysis {

LiveConfig& LiveConfig::with_analyzer(const AnalyzerConfig& a) {
  a.validate();
  analyzer = a;
  return *this;
}

LiveConfig& LiveConfig::with_demux(const DemuxOptions& d) {
  demux = d;
  return *this;
}

LiveConfig& LiveConfig::with_idle_timeout(Duration d) {
  if (d <= Duration::zero()) {
    throw std::invalid_argument(
        "LiveConfig: idle_timeout must be > 0 (flows would finalize on "
        "every packet)");
  }
  idle_timeout = d;
  return *this;
}

LiveConfig& LiveConfig::with_fin_linger(Duration d) {
  if (d < Duration::zero()) {
    throw std::invalid_argument("LiveConfig: fin_linger must be >= 0");
  }
  fin_linger = d;
  return *this;
}

LiveConfig& LiveConfig::with_max_flows(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument(
        "LiveConfig: max_flows must be > 0 (the table could hold nothing)");
  }
  max_flows = n;
  return *this;
}

LiveConfig& LiveConfig::with_max_packets_per_flow(std::size_t n) {
  if (n <= 1) {
    throw std::invalid_argument(
        "LiveConfig: max_packets_per_flow must be > 1 (every flow would be "
        "truncated on arrival)");
  }
  max_packets_per_flow = n;
  return *this;
}

LiveConfig& LiveConfig::with_mem_budget(util::MemoryBudget* b) {
  mem_budget = b;
  return *this;
}

void LiveConfig::validate() const {
  analyzer.validate();
  if (idle_timeout <= Duration::zero()) {
    throw std::invalid_argument("LiveConfig: idle_timeout must be > 0");
  }
  if (fin_linger < Duration::zero()) {
    throw std::invalid_argument("LiveConfig: fin_linger must be >= 0");
  }
  if (max_flows == 0) {
    throw std::invalid_argument("LiveConfig: max_flows must be > 0");
  }
  if (max_packets_per_flow <= 1) {
    throw std::invalid_argument(
        "LiveConfig: max_packets_per_flow must be > 1");
  }
}

namespace {

void count_flow_event(const char* which) {
  if (!telemetry::metrics_enabled()) return;
  static auto& finalized = telemetry::Registry::instance().counter(
      "tapo_live_flows_finalized_total");
  static auto& evicted =
      telemetry::Registry::instance().counter("tapo_live_flows_evicted_total");
  static auto& truncated = telemetry::Registry::instance().counter(
      "tapo_live_flows_truncated_total");
  static auto& budget = telemetry::Registry::instance().counter(
      "tapo_live_flows_budget_evicted_total");
  switch (which[0]) {
    case 'f': finalized.add(1); break;
    case 'e': evicted.add(1); break;
    case 't': truncated.add(1); break;
    case 'b': budget.add(1); break;
  }
}

}  // namespace

LiveAnalyzer::LiveAnalyzer(LiveConfig config, FlowSink& sink)
    : config_(config), sink_(sink), analyzer_(config.analyzer) {
  config_.validate();
}

void LiveAnalyzer::finalize(const net::FlowKey& key) {
  auto it = flows_.find(key);
  if (it == flows_.end()) return;
  Entry entry = std::move(it->second);
  lru_.erase(entry.lru_it);
  flows_.erase(it);
  ++stats_.flows_finalized;
  TAPO_TRACE(telemetry::EventKind::kFlowFinalize,
             entry.last_activity.us(), entry.trace.size(), flows_.size());
  count_flow_event("finalize");
  stats_.active_flows = flows_.size();
  if (!entry.trace.empty()) {
    // The one analysis engine (FlowAccumulator demux + analyze_flow) over
    // this flow's arena.
    AnalysisResult result = analyzer_.analyze(entry.trace, config_.demux);
    if (!result.flows.empty()) {
      FlowResult fr;
      fr.index = sink_ordinal_++;
      fr.packets = entry.trace.size();
      fr.analyses = std::move(result.flows);
      sink_.consume(std::move(fr));
    }
  }
  // Release only after analysis: the arena was live until here.
  if (config_.mem_budget != nullptr && entry.charged_bytes != 0) {
    config_.mem_budget->release(entry.charged_bytes);
    stats_.flow_bytes -= entry.charged_bytes;
    update_resident_gauge();
  }
}

void LiveAnalyzer::recharge(Entry& entry) {
  if (config_.mem_budget == nullptr) return;
  const std::size_t want = entry.trace.capacity_bytes() + kFlowOverheadBytes;
  if (want > entry.charged_bytes) {
    config_.mem_budget->charge(want - entry.charged_bytes);
    stats_.flow_bytes += want - entry.charged_bytes;
    entry.charged_bytes = want;
  }
}

std::size_t LiveAnalyzer::soft_limit() const {
  // Evict down to half the cap, not the cap itself: the headroom absorbs
  // the open ingest chunk plus the finalize-time transients (demux pointer
  // pool, per-packet analysis state), which scale with the largest
  // buffered flow — i.e. with the retained half. This is what keeps the
  // allocator-measured process peak, not just the ledger, under the cap
  // (bench/streaming_scale gates exactly that).
  return config_.mem_budget->limit() / 2;
}

void LiveAnalyzer::evict_for(std::size_t incoming, const net::FlowKey* keep) {
  util::MemoryBudget* budget = config_.mem_budget;
  if (budget == nullptr || budget->unlimited()) return;
  const std::size_t soft = soft_limit();
  while (budget->resident() + incoming > soft && !lru_.empty()) {
    if (keep != nullptr && lru_.front() == *keep) break;
    const std::size_t before = budget->resident();
    ++stats_.budget_evictions;
    TAPO_TRACE(telemetry::EventKind::kFlowEvict, 0, budget->resident(),
               budget->limit());
    count_flow_event("budget");
    finalize(lru_.front());
    if (budget->resident() >= before) break;  // other stages hold the rest
  }
}

void LiveAnalyzer::update_resident_gauge() {
  if (!telemetry::metrics_enabled() || config_.mem_budget == nullptr) return;
  static auto& resident =
      telemetry::Registry::instance().gauge("tapo_pipeline_resident_bytes");
  resident.set(static_cast<double>(config_.mem_budget->resident()));
}

void LiveAnalyzer::reap(TimePoint now) {
  // Finalize idle / lingering-after-FIN flows from the LRU front.
  while (!lru_.empty()) {
    const net::FlowKey key = lru_.front();
    const auto it = flows_.find(key);
    if (it == flows_.end()) {
      lru_.pop_front();
      continue;
    }
    const Entry& e = it->second;
    const Duration idle = now - e.last_activity;
    const bool idle_out = idle >= config_.idle_timeout;
    const bool fin_out = e.fin_seen && idle >= config_.fin_linger;
    if (!idle_out && !fin_out) break;  // LRU front is freshest of the stale
    finalize(key);
  }
}

void LiveAnalyzer::add_packet(const net::CapturedPacket& pkt) {
  ++stats_.packets;
  const net::FlowKey key = pkt.key.canonical();

  auto [it, inserted] = flows_.try_emplace(key);
  if (inserted) {
    ++stats_.flows_started;
    lru_.push_back(key);
    it->second.lru_it = std::prev(lru_.end());
  } else {
    // Move to the back of the LRU; splicing relinks the node in place, so
    // the iterator stays valid and nothing is allocated.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }

  // Make room for the projected arena growth BEFORE add() allocates it —
  // evicting afterwards could not undo the peak. Other entries may be
  // finalized here; unordered_map erasure leaves `it` valid, and `key`
  // itself (just moved to the LRU back) is pinned.
  if (config_.mem_budget != nullptr && !config_.mem_budget->unlimited()) {
    const std::size_t want =
        it->second.trace.capacity_bytes_after_append() + kFlowOverheadBytes;
    if (want > it->second.charged_bytes) {
      const std::size_t delta = want - it->second.charged_bytes;
      evict_for(delta, &key);
      // Still no room with every other flow gone: this one flow outgrows
      // the budget on its own. Analyze what we have and restart the
      // window, exactly like the max_packets_per_flow truncation path.
      if (config_.mem_budget->resident() + delta > soft_limit() &&
          !it->second.trace.empty()) {
        ++stats_.budget_evictions;
        count_flow_event("budget");
        finalize(key);  // invalidates `it`
        it = flows_.try_emplace(key).first;
        lru_.push_back(key);
        it->second.lru_it = std::prev(lru_.end());
      }
    }
  }

  Entry& entry = it->second;
  entry.trace.add(pkt);
  entry.last_activity = pkt.timestamp;
  if (pkt.tcp.flags.fin) entry.fin_seen = true;
  recharge(entry);

  if (entry.trace.size() >= config_.max_packets_per_flow) {
    // Long-lived elephant: analyze what we have and restart the window.
    ++stats_.truncated_flows;
    TAPO_TRACE(telemetry::EventKind::kFlowTruncate, pkt.timestamp.us(),
               entry.trace.size(), flows_.size());
    count_flow_event("truncate");
    finalize(key);
  }

  reap(pkt.timestamp);

  // Table-full eviction: kick the least recently active flow.
  while (flows_.size() > config_.max_flows && !lru_.empty()) {
    ++stats_.flows_evicted;
    TAPO_TRACE(telemetry::EventKind::kFlowEvict, pkt.timestamp.us(),
               flows_.size(), config_.max_flows);
    count_flow_event("evict");
    finalize(lru_.front());
  }
  evict_over_budget();
  stats_.active_flows = flows_.size();
  stats_.peak_active_flows =
      std::max(stats_.peak_active_flows, stats_.active_flows);
  update_resident_gauge();
}

void LiveAnalyzer::add_chunk(const net::TraceChunk& chunk) {
  for (const net::CapturedPacket& pkt : chunk.packets()) add_packet(pkt);
}

void LiveAnalyzer::flush() {
  while (!lru_.empty()) finalize(lru_.front());
  stats_.active_flows = 0;
  RunStats rs;
  rs.flows = sink_ordinal_;
  rs.threads = 1;
  sink_.finish(rs);
}

}  // namespace tapo::analysis
