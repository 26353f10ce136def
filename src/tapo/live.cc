#include "tapo/live.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"

namespace tapo::analysis {

void LiveConfig::validate() const {
  analyzer.validate();
  if (idle_timeout <= Duration::zero()) {
    throw std::invalid_argument(
        "LiveConfig: idle_timeout must be > 0 (flows would finalize on "
        "every packet)");
  }
  if (fin_linger < Duration::zero()) {
    throw std::invalid_argument("LiveConfig: fin_linger must be >= 0");
  }
}

namespace {

void count_finalized() {
  if (!telemetry::metrics_enabled()) return;
  static auto& finalized = telemetry::Registry::instance().counter(
      "tapo_live_flows_finalized_total");
  finalized.add(1);
}

void count_budget_evicted() {
  if (!telemetry::metrics_enabled()) return;
  static auto& evicted = telemetry::Registry::instance().counter(
      "tapo_live_flows_budget_evicted_total");
  evicted.add(1);
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
  count_finalized();
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
    update_resident_gauge();
  }
}

void LiveAnalyzer::recharge(Entry& entry) {
  if (config_.mem_budget == nullptr) return;
  const std::size_t want = entry.trace.capacity_bytes() + kFlowOverheadBytes;
  if (want > entry.charged_bytes) {
    config_.mem_budget->charge(want - entry.charged_bytes);
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

void LiveAnalyzer::evict(const net::FlowKey& key, TimePoint now) {
  ++stats_.budget_evictions;
  TAPO_TRACE(telemetry::EventKind::kFlowEvict, now.us(),
             config_.mem_budget->resident(), config_.mem_budget->limit());
  count_budget_evicted();
  finalize(key);
}

void LiveAnalyzer::evict_for(TimePoint now, std::size_t incoming,
                             const net::FlowKey* keep) {
  util::MemoryBudget* budget = config_.mem_budget;
  if (budget == nullptr || budget->unlimited()) return;
  const std::size_t soft = soft_limit();
  while (budget->resident() + incoming > soft && !lru_.empty()) {
    if (keep != nullptr && lru_.front().key == *keep) break;
    const std::size_t before = budget->resident();
    evict(lru_.front().key, now);
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
    const LruNode front = lru_.front();
    const Duration idle = now - front.entry->last_activity;
    const bool idle_out = idle >= config_.idle_timeout;
    const bool fin_out = front.entry->fin_seen && idle >= config_.fin_linger;
    if (!idle_out && !fin_out) break;  // LRU front is freshest of the stale
    finalize(front.key);
  }
}

void LiveAnalyzer::add_packet(const net::CapturedPacket& pkt) {
  ++stats_.packets;
  const net::FlowKey key = pkt.key.canonical();

  auto [it, inserted] = flows_.try_emplace(key);
  if (inserted) {
    lru_.push_back({key, &it->second});
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
      evict_for(pkt.timestamp, delta, &key);
      // Still no room with every other flow gone: this one flow outgrows
      // the budget on its own. Analyze what we have and restart the
      // window.
      if (config_.mem_budget->resident() + delta > soft_limit() &&
          !it->second.trace.empty()) {
        evict(key, pkt.timestamp);  // invalidates `it`
        it = flows_.try_emplace(key).first;
        lru_.push_back({key, &it->second});
        it->second.lru_it = std::prev(lru_.end());
      }
    }
  }

  Entry& entry = it->second;
  entry.trace.add(pkt);
  entry.last_activity = pkt.timestamp;
  if (pkt.tcp.flags.fin) entry.fin_seen = true;
  recharge(entry);

  reap(pkt.timestamp);
  evict_for(pkt.timestamp, 0, nullptr);
  stats_.active_flows = flows_.size();
  stats_.peak_active_flows =
      std::max(stats_.peak_active_flows, stats_.active_flows);
  update_resident_gauge();
}

void LiveAnalyzer::add_chunk(const net::TraceChunk& chunk) {
  for (const net::CapturedPacket& pkt : chunk.packets()) add_packet(pkt);
}

void LiveAnalyzer::flush() {
  while (!lru_.empty()) finalize(lru_.front().key);
  stats_.active_flows = 0;
  RunStats rs;
  rs.flows = sink_ordinal_;
  rs.threads = 1;
  sink_.finish(rs);
}

}  // namespace tapo::analysis
