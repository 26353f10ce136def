// Streaming TAPO: continuous analysis of a live packet feed.
//
// The paper's TAPO ran offline on daily traces but was "integrated into the
// TCP analysis platform for daily maintenance of the network" (§3.3). This
// is that integration surface: packets are fed one at a time (e.g. from a
// capture socket), flows are tracked in a bounded-memory table, and each
// flow is analyzed with the full offline fidelity when it finishes (FIN
// observed + quiescent) or idles out.
//
// Memory bounds: at most `max_flows` concurrent flows (least-recently-
// active evicted first) and at most `max_packets_per_flow` buffered packets
// per flow (flows exceeding it are analyzed and restarted, counted in
// `truncated_flows`). With a util::MemoryBudget attached the bound becomes
// byte-accurate: every buffered flow charges its arena footprint against
// the shared pipeline ledger, and crossing the soft limit finalizes flows
// from the LRU front instead of letting residency grow toward OOM.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "net/chunk.h"
#include "tapo/analyzer.h"
#include "tapo/sink.h"
#include "util/memory_budget.h"

namespace tapo::analysis {

struct LiveConfig {
  AnalyzerConfig analyzer;
  DemuxOptions demux;
  /// A flow with no packet for this long is finished and analyzed.
  Duration idle_timeout = Duration::seconds(60.0);
  /// A flow whose FIN (both-direction quiescence) is this old is finalized.
  Duration fin_linger = Duration::seconds(3.0);
  std::size_t max_flows = 100'000;
  std::size_t max_packets_per_flow = 200'000;
  /// Optional shared pipeline ledger (non-owning; must outlive the
  /// analyzer). When set and limited, every buffered flow charges its
  /// arena footprint plus a fixed per-flow overhead; once residency
  /// crosses the soft limit (half the cap) the least-recently-active
  /// flows are analyzed-and-dropped until back under it, and a single
  /// flow that outgrows the budget alone is analyzed-and-restarted like
  /// the max_packets_per_flow truncation path. An evicted flow that
  /// keeps sending restarts mid-stream, which the classifier already
  /// surfaces as capture-suspect rather than inventing a stall cause.
  /// The half-budget headroom keeps the *peak* (which includes the open
  /// ingest chunk and the finalize-time transients that scale with the
  /// largest buffered flow) under the configured cap, not just the
  /// steady state.
  util::MemoryBudget* mem_budget = nullptr;

  // Fluent construction (aggregate-init keeps working); setters validate
  // eagerly and throw std::invalid_argument, mirroring ExperimentConfig.
  LiveConfig& with_analyzer(const AnalyzerConfig& a);
  LiveConfig& with_demux(const DemuxOptions& d);
  LiveConfig& with_idle_timeout(Duration d);   // > 0
  LiveConfig& with_fin_linger(Duration d);     // >= 0
  LiveConfig& with_max_flows(std::size_t n);   // > 0
  LiveConfig& with_max_packets_per_flow(std::size_t n);  // > 1
  LiveConfig& with_mem_budget(util::MemoryBudget* b);    // nullptr detaches

  /// Throws std::invalid_argument on any unusable field (non-positive
  /// idle_timeout, zero max_flows, ...). Called by the LiveAnalyzer
  /// constructor, plus the nested analyzer validation.
  void validate() const;
};

struct LiveStats {
  std::uint64_t packets = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_finalized = 0;
  std::uint64_t flows_evicted = 0;    // table-full evictions
  std::uint64_t truncated_flows = 0;  // per-flow packet cap hit
  std::uint64_t budget_evictions = 0; // mem-budget soft-limit evictions
  std::size_t active_flows = 0;
  /// Most flows the table held at once, after each packet's evictions.
  std::size_t peak_active_flows = 0;
  /// Bytes currently charged by this analyzer's flow table (subset of the
  /// shared budget's resident() when other stages charge the same ledger).
  std::size_t flow_bytes = 0;
};

class LiveAnalyzer {
 public:
  /// Streams finalized flows into a tapo::FlowSink — the same delivery API
  /// the parallel experiment runner uses, so one sink implementation (an
  /// aggregator, a CSV writer) serves both producers. Each finalized flow
  /// becomes one FlowResult{index = finalize ordinal, analyses, packets};
  /// the simulation-only outcome fields stay default. flush() calls
  /// sink.finish() once with the flows-finalized total. The sink must
  /// outlive the analyzer.
  LiveAnalyzer(LiveConfig config, FlowSink& sink);

  /// Feeds one packet. Packets must arrive in (roughly) capture order;
  /// the packet's timestamp drives idle-timeout bookkeeping.
  void add_packet(const net::CapturedPacket& pkt);

  /// Feeds every packet of a sealed chunk (the StreamingReader hand-off).
  /// The chunk stays owned by the caller; its packets are copied into the
  /// per-flow arenas, so the caller should drop the chunk right after —
  /// holding both doubles residency.
  void add_chunk(const net::TraceChunk& chunk);

  /// Finalizes every remaining flow (end of capture / shutdown) and
  /// invokes the sink's finish() — call flush() once.
  void flush();

  const LiveStats& stats() const { return stats_; }

 private:
  struct Entry {
    net::PacketTrace trace;
    TimePoint last_activity;
    std::size_t charged_bytes = 0;  // what this flow holds in the budget
    bool fin_seen = false;
    std::list<net::FlowKey>::iterator lru_it;
  };

  /// Ledger charge per tracked flow beyond its packet arena (hash-table
  /// slot, LRU node, Entry bookkeeping). A coarse constant: the point is
  /// that a million tiny flows still register, not byte-exact malloc math.
  static constexpr std::size_t kFlowOverheadBytes = 512;

  void finalize(const net::FlowKey& key);
  void reap(TimePoint now);
  /// Re-syncs `entry`'s budget charge with its current arena capacity.
  void recharge(Entry& entry);
  /// Eviction threshold: half the cap (see LiveConfig::mem_budget).
  std::size_t soft_limit() const;
  /// Analyzes-and-drops LRU-front flows while the shared ledger plus
  /// `incoming` bytes sits above the soft limit. Never drops `keep`
  /// (the flow about to receive the incoming bytes).
  void evict_for(std::size_t incoming, const net::FlowKey* keep);
  void evict_over_budget() { evict_for(0, nullptr); }
  void update_resident_gauge();

  LiveConfig config_;
  FlowSink& sink_;
  std::size_t sink_ordinal_ = 0;  // FlowResult::index for the next flow
  Analyzer analyzer_;

  std::unordered_map<net::FlowKey, Entry, net::FlowKeyHash> flows_;
  /// LRU order: front = least recently active.
  std::list<net::FlowKey> lru_;
  LiveStats stats_;
};

}  // namespace tapo::analysis
