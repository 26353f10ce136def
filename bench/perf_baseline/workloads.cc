#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "fleet/record.h"
#include "fleet/record_sink.h"
#include "fleet/window.h"
#include "net/chunk.h"
#include "pcap/pcap.h"
#include "tapo/analyzer.h"
#include "tapo/csv.h"
#include "tapo/live.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"

namespace perf {
namespace {

using namespace tapo;

// Timed work runs on one thread: on a few shared cores, a run that keeps
// every core busy measures the host's other tenants more than the code.
// The parallel runner is exercised by the untimed output checks instead.
constexpr std::size_t kTimedThreads = 1;
constexpr std::size_t kCheckThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr int kMinRounds = 5;
constexpr std::uint64_t kBulkFlowSeed = 3;  // see bulk_flow

// pcap_* captures: alternating cloud-storage / web-search flows arriving
// 20 ms apart, each capture filled to a packet target (so its size does
// not swing with the heavy-tailed cloud flow sizes) and written with a
// header-only snaplen. Several captures per run average the flow mix.
constexpr std::size_t kCaptures = 4;
constexpr std::size_t kCapturePackets = 600'000;
constexpr Duration kArrivalSpacing = Duration::millis(20);
constexpr std::uint32_t kSnaplen = 128;
constexpr std::size_t kStreamBudgetBytes = 8u << 20;

struct SimSpec {
  const char* name;
  workload::ServiceProfile (*profile)();
  workload::Service service;
  std::size_t round_flows;   // flows per timed ParallelRunner run
  std::size_t check_flows;   // prefix checked against a serial run
  std::size_t replay_flows;  // prefix replayed serially by a traced run
  bool records;              // RecordSink (else BreakdownSink)
};

const SimSpec kSimWeb{.name = "sim_web",
                      .profile = workload::web_search_profile,
                      .service = workload::Service::kWebSearch,
                      .round_flows = 50'000,
                      .check_flows = 2'000,
                      .replay_flows = 100'000,
                      .records = true};
const SimSpec kSimCloud{.name = "sim_cloud",
                        .profile = workload::cloud_storage_profile,
                        .service = workload::Service::kCloudStorage,
                        .round_flows = 600,
                        .check_flows = 200,
                        .replay_flows = 2'000,
                        .records = false};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double per(double num, std::uint64_t den) {
  return per(num, static_cast<double>(den));
}
double per(std::uint64_t num, std::uint64_t den) {
  return per(static_cast<double>(num), static_cast<double>(den));
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Highest nearest-rank percentile with at least ten samples beyond it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const double rank = std::ceil(pct / 100.0 * n);
    if (n - rank >= 10.0 || pct == 50.0) {
      t.pct = pct;
      t.value = v[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
      return t;
    }
  }
  return t;
}

// ------------------------------------------------------------- sim_*

workload::ExperimentConfig sim_config(const SimSpec& spec, std::uint64_t seed,
                                      std::size_t flows) {
  return workload::ExperimentConfig{}
      .with_profile(spec.profile())
      .with_flows(flows)
      .with_seed(seed);
}

workload::RunOptions threads(std::size_t n) {
  workload::RunOptions o;
  o.threads = n;
  return o;
}

/// Round 0 runs the flows of `seed` itself; later rounds run fresh flows,
/// so one run covers round_flows x rounds distinct flows.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  if (round == 0) return seed;
  Rng rng(~seed);
  std::uint64_t s = 0;
  for (int i = 0; i < round; ++i) s = rng.split_seed();
  return s;
}

/// Folds delivered flows into counters and the check digest.
struct FlowTally {
  explicit FlowTally(std::size_t check) : check_flows(check) {}

  void add(const FlowResult& r) {
    ++flows;
    packets += r.packets;
    if (r.outcome.status == FlowStatus::kSimDiverged) ++diverged;
    segments += r.outcome.sender_stats.segments_sent;
    retrans += r.outcome.sender_stats.retransmissions;
    for (const auto& fa : r.analyses) stalls += fa.stalls.size();
    if (r.index >= check_flows) return;
    if (r.analyses.empty()) digest.add_empty(r.index);
    for (const auto& fa : r.analyses) digest.add(r.index, fa);
  }

  std::size_t check_flows;
  Digest digest;
  std::uint64_t flows = 0, packets = 0, diverged = 0, stalls = 0;
  std::uint64_t segments = 0, retrans = 0;
};

/// Tallies every flow, then hands it on to `inner` (if any).
struct TallySink : FlowSink {
  TallySink(FlowSink* inner_sink, std::size_t check)
      : inner(inner_sink), tally(check) {}
  void consume(FlowResult&& r) override {
    tally.add(r);
    if (inner != nullptr) inner->consume(std::move(r));
  }
  void finish(const RunStats& stats) override {
    if (inner != nullptr) inner->finish(stats);
  }

  FlowSink* inner;
  FlowTally tally;
};

/// The sink a sim workload delivers into: fleet::RecordSink over `out`
/// (sim_web: the tapo_agg emit shard path) or workload::BreakdownSink
/// (sim_cloud: the Table 3/5 and Fig. 3 aggregates).
struct SimSink {
  SimSink(const SimSpec& spec, std::ostream& out)
      : writer(out),
        records(writer, fleet::RecordSinkConfig{}.with_service(
                            static_cast<std::uint8_t>(spec.service))),
        use_records(spec.records) {}
  FlowSink& sink() {
    return use_records ? static_cast<FlowSink&>(records) : breakdown;
  }

  fleet::RecordWriter writer;
  fleet::RecordSink records;
  workload::BreakdownSink breakdown;
  bool use_records;
};

/// Digest of the checked prefix of `seed`'s flows, run on `n` threads —
/// what the checked prefix of every timed round must reproduce.
std::string prefix_digest(const SimSpec& spec, std::uint64_t seed,
                          std::size_t n, WorkloadResult& r) {
  TallySink tally(nullptr, spec.check_flows);
  workload::ParallelRunner(sim_config(spec, seed, spec.check_flows), threads(n))
      .run(tally);
  r.check(tally.tally.diverged == 0, "reference prefix: diverged flows",
          tally.tally.diverged);
  return tally.tally.digest.hex();
}

/// Set-up of a sim run, repeated: config, seeds and the serial reference
/// run of round 0's checked prefix. `setup_s` gets the median nominal time
/// of one set-up (when `clock` is given).
std::string sim_setup(const SimSpec& spec, std::uint64_t seed,
                      WorkloadResult& r, HostClock* clock, double* setup_s) {
  std::vector<double> times;
  std::string ref;
  if (clock != nullptr) clock->begin();
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    const std::string digest = prefix_digest(spec, seed, 1, r);
    const double wall_s = seconds_since(t0);
    times.push_back(clock != nullptr ? clock->nominal(wall_s) : wall_s);
    r.check(ref.empty() || ref == digest,
            "serial reference digest differs between repeats");
    ref = digest;
  }
  if (setup_s != nullptr) *setup_s = median(times);
  return ref;
}

/// One ParallelRunner run on `n` threads into the workload sink.
struct Round {
  double wall_s = 0.0;
  workload::RunStats stats;
  FlowTally tally{0};
};

Round sim_round(const SimSpec& spec, std::uint64_t seed, std::size_t n,
                WorkloadResult& r) {
  DiscardBuf buf;
  std::ostream out(&buf);
  SimSink sink(spec, out);
  TallySink tally(&sink.sink(), spec.check_flows);
  workload::ParallelRunner runner(sim_config(spec, seed, spec.round_flows),
                                  threads(n));
  Round round;
  const auto t0 = Clock::now();
  round.stats = runner.run(tally);
  round.wall_s = seconds_since(t0);
  round.tally = tally.tally;

  r.attempted += round.tally.flows;
  r.check(round.tally.flows == spec.round_flows, "runner lost flows");
  r.check(round.tally.diverged == 0, "diverged flows", round.tally.diverged);
  return round;
}

void check_digest(const std::string& got, const std::string& ref,
                  const std::string& what, WorkloadResult& r) {
  r.check(got == ref, what + " digest " + got + " != reference " + ref);
}

/// Flow `i` of a run, drawn and simulated exactly as ParallelRunner does
/// it (capture on, default guards, the config's event budget). `largest`
/// turns the drawn connection into the profile's largest one: its most
/// requests, each of its largest response size.
workload::FlowOutcome simulate_flow(const workload::ExperimentConfig& cfg,
                                    std::uint64_t seed, std::size_t i,
                                    SpanLog* log, bool largest = false) {
  Rng flow_rng(seed);
  workload::FlowScenario scenario;
  {
    const Span s(log, "workload.draw_scenario", i);
    scenario = workload::draw_scenario(cfg.profile, flow_rng, i + 1);
  }
  if (largest) {
    auto& requests = scenario.connection.requests;
    const tcp::RequestSpec first = requests.front();
    requests.assign(cfg.profile.max_requests, first);
    for (auto& req : requests) req.response_bytes = cfg.profile.resp_max_bytes;
  }
  workload::FlowGuards guards;
  guards.event_budget = cfg.event_budget;
  guards.flow_id = i;
  const Span s(log, "sim.run_flow", i);
  return workload::run_flow(scenario, flow_rng.split(), cfg.max_flow_time,
                            workload::TraceCapture::kServerNic, guards);
}

/// The profile's largest connection, simulated, analyzed and delivered
/// into the workload sink like any round's flow. Every run holds the same
/// one, whatever its seed, so the heavy tail of flow sizes does not decide
/// the peak RSS. Its path is drawn from kBulkFlowSeed, a fast one on which
/// the whole transfer completes within the flow time cap.
void bulk_flow(const SimSpec& spec, WorkloadResult& r) {
  const auto cfg = sim_config(spec, kBulkFlowSeed, 1);
  workload::FlowOutcome outcome =
      simulate_flow(cfg, kBulkFlowSeed, 0, nullptr, true);
  FlowResult result;
  result.packets = outcome.trace ? outcome.trace->size() : 0;
  if (outcome.trace && !outcome.trace->empty()) {
    result.analyses =
        analysis::Analyzer(cfg.analyzer).analyze(*outcome.trace).flows;
  }
  outcome.trace.reset();
  result.outcome = std::move(outcome);
  r.attempted += 1;
  r.check(result.outcome.status != FlowStatus::kSimDiverged,
          "bulk flow diverged");
  r.check(result.packets != 0, "bulk flow captured nothing");
  DiscardBuf buf;
  std::ostream out(&buf);
  SimSink sink(spec, out);
  sink.sink().consume(std::move(result));
  sink.sink().finish(RunStats{});
}

WorkloadResult measure_sim(const SimSpec& spec, const MeasureOptions& opts) {
  WorkloadResult r;
  HostReference reference;
  HostClock clock(reference);
  double setup_s = 0.0;
  const std::string ref = sim_setup(spec, opts.seed, r, &clock, &setup_s);
  r.digest = ref;

  // Warm-up, untimed: the bulk flow, then round 0, so the timed rounds
  // start with a warm heap and warm caches.
  bulk_flow(spec, r);
  const Round warm =
      sim_round(spec, round_seed(opts.seed, 0), kTimedThreads, r);
  check_digest(warm.tally.digest.hex(), ref, "warm-up round prefix", r);

  std::vector<double> flows_per_s, packets_per_s, wall_packets_per_s;
  std::vector<std::string> digests;
  clock.begin();
  const auto start = Clock::now();
  for (int n = 0; n < kMinRounds || seconds_since(start) < opts.seconds; ++n) {
    const Round round =
        sim_round(spec, round_seed(opts.seed, n), kTimedThreads, r);
    const double nominal_s = clock.nominal(round.wall_s);
    const auto packets = static_cast<double>(round.tally.packets);
    digests.push_back(round.tally.digest.hex());
    flows_per_s.push_back(static_cast<double>(round.tally.flows) / nominal_s);
    packets_per_s.push_back(packets / nominal_s);
    wall_packets_per_s.push_back(packets / round.wall_s);
    std::fprintf(stderr,
                 "[%s] round %d: %.0f packets/s (%.0f at wall speed)\n",
                 spec.name, n, packets_per_s.back(),
                 wall_packets_per_s.back());
  }
  // Read before the checks below start threads: the workload's own peak,
  // without the check runners' per-thread heaps.
  const double rss_mib = peak_rss_mib();
  // Untimed: each round's checked prefix against a run of that prefix on
  // kCheckThreads threads, which must be bit-identical to the serial path.
  for (std::size_t n = 0; n < digests.size(); ++n) {
    const int round = static_cast<int>(n);
    check_digest(digests[n],
                 prefix_digest(spec, round_seed(opts.seed, round),
                               kCheckThreads, r),
                 "round " + std::to_string(n) + " prefix", r);
  }
  r.put("packets_per_s", median(packets_per_s), "packets/s");
  r.put("peak_rss_mib", rss_mib, "MiB");
  r.put("setup_s", setup_s, "s");
  r.note("flows_per_s", median(flows_per_s), "flows/s");
  r.note("wall_packets_per_s", median(wall_packets_per_s), "packets/s");
  r.note("host_factor", clock.median_factor(), "ratio");
  return r;
}

/// Serial replay of a prefix, step by step as ParallelRunner runs each
/// flow, plus demux_flow_views + analyze_flow on the same trace so the
/// batch wrapper's overhead can be split out.
struct Replay {
  double wall_s = 0.0;
  FlowTally tally{0};
  std::uint64_t view_stalls = 0;  // stalls found by analyze_flow per view
  std::string record_bytes;
};

Replay sim_replay(const SimSpec& spec, const std::vector<std::uint64_t>& seeds,
                  SpanLog* log) {
  const auto cfg = sim_config(spec, 0, seeds.size());
  const analysis::Analyzer analyzer(cfg.analyzer);
  std::ostringstream out;
  SimSink sink(spec, out);
  Replay rep;
  rep.tally = FlowTally(spec.check_flows);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Span flow_span(log, "replay.flow", i);
    workload::FlowOutcome outcome = simulate_flow(cfg, seeds[i], i, log);
    FlowResult result;
    result.index = i;
    result.packets = outcome.trace ? outcome.trace->size() : 0;
    if (outcome.trace && !outcome.trace->empty()) {
      {
        const Span s(log, "tapo.analyze", i);
        result.analyses = analyzer.analyze(*outcome.trace).flows;
      }
      analysis::FlowViewSet views;
      {
        const Span s(log, "tapo.demux_flow_views", i);
        views = analysis::demux_flow_views(*outcome.trace);
      }
      for (const auto& view : views) {
        const Span s(log, "tapo.analyze_flow", i);
        rep.view_stalls += analyzer.analyze_flow(view).stalls.size();
      }
    }
    outcome.trace.reset();
    result.outcome = std::move(outcome);
    rep.tally.add(result);
    const Span s(log, "sink.consume", i);
    sink.sink().consume(std::move(result));
  }
  sink.sink().finish(RunStats{});
  rep.wall_s = seconds_since(t0);
  rep.record_bytes = out.str();
  return rep;
}

/// Separate counting pass with the library's own registry switched on:
/// simulator events and TCP segments over the replayed prefix. Nothing is
/// timed here.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
};

SimCounts sim_count(const SimSpec& spec,
                    const std::vector<std::uint64_t>& seeds) {
  const auto cfg = sim_config(spec, 0, seeds.size());
  auto& registry = telemetry::Registry::instance();
  registry.reset();
  telemetry::set_metrics_enabled(true);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    simulate_flow(cfg, seeds[i], i, nullptr);
  }
  telemetry::set_metrics_enabled(false);
  SimCounts c;
  c.events = registry.counter("tapo_sim_events_total").value();
  c.segments = registry.counter("tapo_tcp_segments_total").value();
  registry.reset();
  return c;
}

void write_layers(const std::string& dir, const std::string& workload,
                  const MeasureOptions& opts, const WorkloadResult& r,
                  const SpanLog& log) {
  std::filesystem::create_directories(dir);
  log.write_chrome_trace(dir + "/spans.json", workload);
  std::ofstream out(dir + "/layers.json");
  out << "{\"workload\": " << telemetry::json_quote(workload)
      << ", \"seed\": " << opts.seed
      << ", \"metrics\": " << metrics_json(r.layers) << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : log.totals()) {
    out << (first ? "" : ", ") << telemetry::json_quote(name)
        << ": {\"count\": " << t.count << ", \"total_ms\": "
        << num(t.total_ns / 1e6) << ", \"self_ms\": " << num(t.self_ns / 1e6)
        << ", \"allocs\": " << t.allocs
        << ", \"self_allocs\": " << t.self_allocs << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + dir + "/layers.json");
}

/// The per_layer metrics of BENCHMARK.json: every workload has a packet
/// source, an analysis stage and a sink, timed at their public calls.
void put_stage_metrics(WorkloadResult& r, double packets, double flows,
                       const SpanTotals& source, double analysis_ns,
                       double analysis_allocs, const SpanTotals& sink,
                       double stalls, double overhead) {
  r.put("source.ns_per_pkt", per(source.total_ns, packets), "ns/pkt");
  r.put("source.allocs_per_pkt",
        per(static_cast<double>(source.allocs), packets), "allocs/pkt");
  r.put("analysis.ns_per_pkt", per(analysis_ns, packets), "ns/pkt");
  r.put("analysis.allocs_per_pkt", per(analysis_allocs, packets),
        "allocs/pkt");
  r.put("sink.ns_per_flow", per(sink.total_ns, flows), "ns/flow");
  r.put("sink.allocs_per_flow", per(static_cast<double>(sink.allocs), flows),
        "allocs/flow");
  r.put("trace.overhead_frac", overhead, "ratio");
  for (const Metric& m : r.metrics) r.layers.push_back(m);
  r.layer("tapo.stalls_per_flow", per(stalls, flows), "stalls/flow");
}

void put_analyze_flow_layers(WorkloadResult& r, const SpanTotals& af,
                             double packets) {
  r.layer("tapo.analyze_flow_ns_per_pkt", per(af.total_ns, packets),
          "ns/pkt");
  r.layer("tapo.analyze_flow_allocs_per_pkt",
          per(static_cast<double>(af.allocs), packets), "allocs/pkt");
  r.layer("tapo.analyze_flow_us_p50", median(af.durations_ns) / 1e3, "us");
  const Tail tail = tail_of(af.durations_ns);
  r.layer("tapo.analyze_flow_us_ptail", tail.value / 1e3, "us");
  r.layer("tapo.analyze_flow_ptail_pct", tail.pct, "percentile");
  r.layer("tapo.analyze_flow_n", static_cast<double>(af.count), "calls");
}

WorkloadResult trace_sim(const SimSpec& spec, const MeasureOptions& opts) {
  WorkloadResult r;
  HostReference reference;
  HostClock clock(reference);
  const std::string ref = sim_setup(spec, opts.seed, r, nullptr, nullptr);
  r.digest = ref;

  // One untraced parallel round: the runner's own RunStats.
  const Round round = sim_round(spec, opts.seed, kCheckThreads, r);
  check_digest(round.tally.digest.hex(), ref, "parallel round prefix", r);

  const auto seeds = workload::derive_flow_seeds(opts.seed, spec.replay_flows);
  // The two replays run one after the other, so the overhead compares
  // their times at nominal host speed.
  clock.begin();
  const Replay plain = sim_replay(spec, seeds, nullptr);
  const double plain_s = clock.nominal(plain.wall_s);
  SpanLog log;
  set_alloc_counting(true);
  const Replay traced = sim_replay(spec, seeds, &log);
  set_alloc_counting(false);
  const double traced_s = clock.nominal(traced.wall_s);
  const SimCounts counts = sim_count(spec, seeds);
  for (const Replay* rep : {&plain, &traced}) {
    r.attempted += rep->tally.flows;
    r.check(rep->tally.diverged == 0, "replay: diverged flows",
            rep->tally.diverged);
    check_digest(rep->tally.digest.hex(), ref, "serial replay prefix", r);
    r.check(rep->view_stalls == rep->tally.stalls,
            "demux_flow_views + analyze_flow stall count != analyze");
  }

  auto totals = log.totals();
  const double flows = static_cast<double>(traced.tally.flows);
  const double packets = static_cast<double>(traced.tally.packets);
  const SpanTotals& gen = totals["workload.draw_scenario"];
  const SpanTotals& sim = totals["sim.run_flow"];
  const SpanTotals& an = totals["tapo.analyze"];
  const SpanTotals& dm = totals["tapo.demux_flow_views"];
  const SpanTotals& af = totals["tapo.analyze_flow"];
  const SpanTotals& sk = totals["sink.consume"];
  const double overhead = traced_s / plain_s - 1.0;

  put_stage_metrics(r, packets, flows, sim, an.total_ns,
                    static_cast<double>(an.allocs), sk,
                    static_cast<double>(traced.tally.stalls), overhead);

  const workload::RunStats& st = round.stats;
  const double worker_s_per_flow =
      per(st.generate_seconds + st.simulate_seconds + st.analyze_seconds,
          static_cast<double>(st.flows));
  const double serial_s_per_flow =
      per((gen.total_ns + sim.total_ns + an.total_ns) / 1e9, flows);
  r.layer("workload.generate_ns_per_flow", per(gen.total_ns, flows),
          "ns/flow");
  r.layer("workload.runner_busy_frac", st.worker_utilization, "ratio");
  r.layer("workload.parallel_inflation",
          per(worker_s_per_flow, serial_s_per_flow), "ratio");
  r.layer("sim.run_flow_us_per_flow", per(sim.total_ns / 1e3, flows),
          "us/flow");
  r.layer("sim.ns_per_event", per(sim.total_ns, counts.events), "ns/event");
  r.layer("sim.events_per_flow", per(counts.events, traced.tally.flows),
          "events/flow");
  r.layer("sim.allocs_per_event", per(sim.allocs, counts.events),
          "allocs/event");
  r.layer("tcp.segments_per_flow", per(counts.segments, traced.tally.flows),
          "segments/flow");
  r.layer("tcp.retrans_ratio",
          per(traced.tally.retrans, traced.tally.segments), "ratio");
  r.layer("tapo.demux_ns_per_pkt", per(dm.total_ns, packets), "ns/pkt");
  r.layer("tapo.demux_allocs_per_pkt",
          per(static_cast<double>(dm.allocs), packets), "allocs/pkt");
  put_analyze_flow_layers(r, af, packets);
  r.layer("tapo.analyze_ns_per_pkt", per(an.total_ns, packets), "ns/pkt");
  r.layer("tapo.analyze_overhead_ns_per_pkt",
          per(an.total_ns - dm.total_ns - af.total_ns, packets), "ns/pkt");
  r.layer("tapo.analyze_allocs_per_pkt",
          per(static_cast<double>(an.allocs), packets), "allocs/pkt");
  r.layer("sink.consume_ns_per_flow", per(sk.total_ns, flows), "ns/flow");

  if (spec.records) {
    // Fleet ingest of what the sink emitted: decode + window aggregation.
    const auto& bytes = traced.record_bytes;
    const auto t0 = Clock::now();
    const auto read = fleet::read_records(as_bytes(bytes));
    fleet::WindowAggregator agg;
    agg.ingest(read.records);
    const double ingest_ns = seconds_since(t0) * 1e9;
    r.check(read.ok(), "replay records failed to read back");
    r.check(read.records.size() == traced.tally.flows,
            "replay record count != flows");
    r.layer("fleet.record_bytes_per_flow",
            per(static_cast<double>(bytes.size()), flows), "bytes/flow");
    r.layer("fleet.ingest_ns_per_record",
            per(ingest_ns, static_cast<double>(read.records.size())),
            "ns/record");
  }
  if (!opts.trace_out.empty()) {
    write_layers(opts.trace_out, spec.name, opts, r, log);
  }
  return r;
}

// ------------------------------------------------------------ pcap_*

/// Simulates flows from `master` until the capture holds kCapturePackets.
/// Flow `slot` gets id slot + 1: even slots are cloud-storage flows, odd
/// ones web-search. Slot 0 is a bulk transfer — three responses of the
/// cloud profile's largest size — so every capture holds one flow that
/// outgrows pcap_stream's memory budget. It is the same flow in every
/// capture, on bulk_flow's path: drawn from the seed, the bulk flow alone
/// decided up to 64 % of a capture's analysis time, on a lossy path.
net::PacketTrace simulate_capture(Rng& master, std::uint64_t* diverged) {
  const auto cloud = workload::cloud_storage_profile();
  const auto web = workload::web_search_profile();
  net::PacketTrace merged;
  for (std::int64_t slot = 0; merged.size() < kCapturePackets; ++slot) {
    Rng flow_rng = slot == 0 ? Rng(kBulkFlowSeed) : master.split();
    auto scenario = workload::draw_scenario(
        slot % 2 == 0 ? cloud : web, flow_rng,
        static_cast<std::uint64_t>(slot) + 1);
    if (slot == 0) {
      auto& requests = scenario.connection.requests;
      const tcp::RequestSpec first = requests.front();
      requests.assign(3, first);
      for (auto& req : requests) req.response_bytes = cloud.resp_max_bytes;
    }
    workload::FlowGuards guards;
    guards.event_budget = workload::kDefaultEventBudget;
    const auto outcome = workload::run_flow(
        scenario, flow_rng.split(), Duration::seconds(600.0),
        workload::TraceCapture::kServerNic, guards);
    if (outcome.status == FlowStatus::kSimDiverged) ++*diverged;
    const Duration offset = kArrivalSpacing * slot;
    for (const auto& pkt : outcome.trace->packets()) {
      net::CapturedPacket& copy = merged.append();
      copy = pkt;
      copy.timestamp = pkt.timestamp + offset;
    }
  }
  merged.sort_by_time();
  return merged;
}

/// Flow ids are encoded in the client address (workload/profiles.cc); see
/// simulate_capture for which ids are cloud-storage flows.
bool is_cloud_flow(const net::FlowKey& server_to_client) {
  const std::uint32_t id = server_to_client.dst_ip & 0xffffffu;
  return id != 0 && (id - 1) % 2 == 0;
}

/// One pass over one capture.
struct Pass {
  double wall_s = 0.0;
  pcap::ReadStats read;
  std::uint64_t flows = 0;  // flows analyzed (batch) / finalized (stream)
  std::uint64_t stalls = 0;
  std::string digest;
  // batch, traced: the demux_flow_views + analyze_flow path on the input.
  std::string view_digest;
  double cloud_ns = 0.0, web_ns = 0.0;
  std::uint64_t cloud_packets = 0, web_packets = 0;
  // stream
  analysis::LiveStats live;
  std::size_t high_water = 0;
  std::uint64_t records = 0;
  std::uint64_t record_bytes = 0;
  bool records_ok = true;
};

/// pcap_analyze FILE --csv: StreamingReader -> ChunkedTrace ->
/// Analyzer::analyze(ChunkedTrace) -> CSV writers into a discard stream.
Pass batch_pass(const std::string& path, SpanLog* log) {
  Pass p;
  DiscardBuf buf;
  std::ostream csv(&buf);
  const analysis::Analyzer analyzer;
  util::MemoryBudget budget(0);
  net::ChunkedTrace chunks(net::ChunkedTrace::kDefaultChunkPackets, nullptr,
                           &budget);
  analysis::AnalysisResult result;

  const auto t0 = Clock::now();
  pcap::StreamingReader reader(path, pcap::StreamingOptions{.budget = &budget});
  for (;;) {
    std::optional<net::TraceChunk> chunk;
    {
      const Span s(log, "pcap.next_chunk");
      chunk = reader.next_chunk();
    }
    if (!chunk) break;
    const Span s(log, "net.chunk_append");
    for (const auto& pkt : chunk->packets()) chunks.add(pkt);
  }
  {
    const Span s(log, "tapo.analyze");
    result = analyzer.analyze(chunks);
  }
  {
    const Span s(log, "tapo.write_flows_csv");
    analysis::write_flows_csv(csv, result.flows);
  }
  {
    const Span s(log, "tapo.write_stalls_csv");
    analysis::write_stalls_csv(csv, result.flows);
  }
  p.wall_s = seconds_since(t0);

  p.read = reader.stats();
  p.flows = result.flows.size();
  Digest d;
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    d.add(i, result.flows[i]);
    p.stalls += result.flows[i].stalls.size();
  }
  p.digest = d.hex();
  if (log == nullptr) return p;

  // Traced only, outside the timed region: the same input through
  // demux_flow_views + analyze_flow, which Analyzer::analyze wraps.
  net::PacketTrace whole;
  {
    const Span s(log, "net.to_trace");
    whole = chunks.to_trace();
  }
  analysis::FlowViewSet views;
  {
    const Span s(log, "tapo.demux_flow_views");
    views = analysis::demux_flow_views(whole);
  }
  Digest vd;
  for (std::size_t i = 0; i < views.size(); ++i) {
    analysis::FlowAnalysis fa;
    {
      const Span s(log, "tapo.analyze_flow", i);
      fa = analyzer.analyze_flow(views[i]);
    }
    vd.add(i, fa);
    const SpanRecord& span = log->spans().back();
    const auto ns = static_cast<double>(span.end_ns - span.start_ns);
    if (is_cloud_flow(views[i].server_to_client)) {
      p.cloud_ns += ns;
      p.cloud_packets += views[i].size();
    } else {
      p.web_ns += ns;
      p.web_packets += views[i].size();
    }
  }
  p.view_digest = vd.hex();
  return p;
}

/// Times each delivery into the wrapped sink.
class TimedSink : public FlowSink {
 public:
  TimedSink(FlowSink& inner, SpanLog* log) : inner_(inner), log_(log) {}
  void consume(FlowResult&& r) override {
    const Span s(log_, "sink.consume", r.index);
    inner_.consume(std::move(r));
  }
  void finish(const RunStats& stats) override { inner_.finish(stats); }

 private:
  FlowSink& inner_;
  SpanLog* log_;
};

/// StreamingReader (default options) -> LiveAnalyzer (default timeouts,
/// 8 MiB MemoryBudget) -> fleet::RecordSink. The emitted records are read
/// back, aggregated and digested after the timed region.
Pass stream_pass(const std::string& path, SpanLog* log) {
  Pass p;
  std::ostringstream out;
  util::MemoryBudget budget(kStreamBudgetBytes);
  fleet::RecordWriter writer(out);
  fleet::RecordSink records(writer, fleet::RecordSinkConfig{});
  TimedSink sink(records, log);

  const auto t0 = Clock::now();
  pcap::StreamingReader reader(path);
  analysis::LiveAnalyzer live(analysis::LiveConfig{}.with_mem_budget(&budget),
                              sink);
  for (;;) {
    std::optional<net::TraceChunk> chunk;
    {
      const Span s(log, "pcap.next_chunk");
      chunk = reader.next_chunk();
    }
    if (!chunk) break;
    const Span s(log, "tapo.live_add_chunk");
    live.add_chunk(*chunk);
  }
  {
    const Span s(log, "tapo.live_flush");
    live.flush();
  }
  p.wall_s = seconds_since(t0);

  p.read = reader.stats();
  p.live = live.stats();
  p.flows = p.live.flows_finalized;
  p.high_water = budget.high_water();
  p.records = records.records();
  const std::string bytes = out.str();
  p.record_bytes = bytes.size();

  fleet::ReadResult read;
  {
    const Span s(log, "fleet.read_records");
    read = fleet::read_records(as_bytes(bytes));
  }
  {
    const Span s(log, "fleet.ingest");
    fleet::WindowAggregator agg;
    agg.ingest(read.records);
  }
  p.records_ok = read.ok() && read.records.size() == p.records;
  Digest d;
  for (const auto& rec : read.records) {
    d.add(rec);
    p.stalls += rec.stalls.size();
  }
  p.digest = d.hex();
  return p;
}

void check_pass(bool batch, const Pass& p, const CaptureRef& ref,
                const std::string& first_digest, WorkloadResult& r) {
  r.attempted += ref.flows;
  r.check(p.read.skipped == 0, "reader skipped records", p.read.skipped);
  r.check(p.read.tcp_packets == ref.packets,
          ref.path + ": reader packets " + std::to_string(p.read.tcp_packets) +
              " != capture " + std::to_string(ref.packets));
  if (batch) {
    r.check(p.flows == ref.flows, ref.path + ": flow count != reference");
    check_digest(p.digest, ref.digest, ref.path + ": batch pass", r);
    r.check(p.view_digest.empty() || p.view_digest == p.digest,
            ref.path + ": demux_flow_views + analyze_flow digest != analyze");
    return;
  }
  r.check(p.live.packets == p.read.tcp_packets,
          ref.path + ": live analyzer packets != reader packets");
  r.check(p.records_ok, ref.path + ": records failed to read back cleanly");
  r.check(p.records == p.flows, ref.path + ": records != flows finalized");
  r.check(p.high_water <= kStreamBudgetBytes,
          ref.path + ": ledger high-water mark above the budget");
  r.check(first_digest.empty() || p.digest == first_digest,
          ref.path + ": stream digest differs between passes");
}

/// Seconds for one sweep over every capture: the sum over captures of
/// each capture's median pass time.
double sweep_seconds(const std::vector<std::vector<double>>& walls) {
  double total = 0.0;
  for (const auto& w : walls) total += median(w);
  return total;
}

/// One pass over `cap`, checked; the first pass sets `digest`, which every
/// later pass over the same capture must reproduce.
Pass checked_pass(bool batch, const CaptureRef& cap, SpanLog* log,
                  std::string& digest, WorkloadResult& r) {
  const Pass p = batch ? batch_pass(cap.path, log) : stream_pass(cap.path, log);
  check_pass(batch, p, cap, digest, r);
  if (digest.empty()) digest = p.digest;
  return p;
}

std::string joined(const std::vector<std::string>& digests) {
  std::string out;
  for (const std::string& d : digests) out += (out.empty() ? "" : ",") + d;
  return out;
}

WorkloadResult measure_pcap(const MeasureOptions& opts) {
  const bool batch = opts.workload == "pcap_batch";
  const std::vector<CaptureRef>& caps = opts.captures.captures;
  if (caps.empty()) throw std::invalid_argument("no captures to measure");
  WorkloadResult r;
  HostReference reference;
  HostClock clock(reference);
  std::vector<std::string> digests(caps.size());
  double flows = 0.0, packets = 0.0;
  for (const CaptureRef& cap : caps) {
    flows += static_cast<double>(cap.flows);
    packets += static_cast<double>(cap.packets);
  }

  // Warm-up, untimed: one sweep brings every capture into the page cache
  // and warms the heap.
  for (std::size_t c = 0; c < caps.size(); ++c) {
    checked_pass(batch, caps[c], nullptr, digests[c], r);
  }

  // Timed: sweeps of one pass over every capture.
  std::vector<double> flows_per_s, packets_per_s, wall_packets_per_s;
  clock.begin();
  const auto start = Clock::now();
  for (int n = 0; n < kMinRounds || seconds_since(start) < opts.seconds; ++n) {
    double wall_s = 0.0;
    for (std::size_t c = 0; c < caps.size(); ++c) {
      wall_s += checked_pass(batch, caps[c], nullptr, digests[c], r).wall_s;
    }
    const double nominal_s = clock.nominal(wall_s);
    flows_per_s.push_back(flows / nominal_s);
    packets_per_s.push_back(packets / nominal_s);
    wall_packets_per_s.push_back(packets / wall_s);
    std::fprintf(stderr,
                 "[%s] sweep %d: %.0f packets/s (%.0f at wall speed)\n",
                 opts.workload.c_str(), n, packets_per_s.back(),
                 wall_packets_per_s.back());
  }
  r.digest = joined(digests);
  r.put("packets_per_s", median(packets_per_s), "packets/s");
  r.put("peak_rss_mib", peak_rss_mib(), "MiB");
  r.note("flows_per_s", median(flows_per_s), "flows/s");
  r.note("wall_packets_per_s", median(wall_packets_per_s), "packets/s");
  r.note("host_factor", clock.median_factor(), "ratio");
  return r;
}

WorkloadResult trace_pcap(const MeasureOptions& opts) {
  const bool batch = opts.workload == "pcap_batch";
  const std::vector<CaptureRef>& caps = opts.captures.captures;
  const std::size_t k = caps.size();
  if (k == 0) throw std::invalid_argument("no captures to measure");
  WorkloadResult r;
  std::vector<std::vector<double>> walls(k), traced_walls(k);
  std::vector<std::string> digests(k);
  Pass sum;  // traced passes, summed
  SpanLog log;

  // Passes cycle over the captures, an untraced and then a traced pass on
  // each, so the overhead compares like with like.
  const auto start = Clock::now();
  for (std::size_t n = 0; n < 2 * k || seconds_since(start) < opts.seconds;
       ++n) {
    const bool traced = n % 2 == 1;
    const std::size_t c = n / 2 % k;
    if (traced) set_alloc_counting(true);
    const Pass p =
        checked_pass(batch, caps[c], traced ? &log : nullptr, digests[c], r);
    set_alloc_counting(false);
    (traced ? traced_walls : walls)[c].push_back(p.wall_s);
    if (!traced) continue;
    sum.read.tcp_packets += p.read.tcp_packets;
    sum.read.records += p.read.records;
    sum.read.skipped += p.read.skipped;
    sum.flows += p.flows;
    sum.stalls += p.stalls;
    sum.records += p.records;
    sum.record_bytes += p.record_bytes;
    sum.live.budget_evictions += p.live.budget_evictions;
    sum.high_water = std::max(sum.high_water, p.high_water);
    sum.cloud_ns += p.cloud_ns;
    sum.web_ns += p.web_ns;
    sum.cloud_packets += p.cloud_packets;
    sum.web_packets += p.web_packets;
  }
  r.digest = joined(digests);

  auto totals = log.totals();
  const double pk = static_cast<double>(sum.read.tcp_packets);
  const double overhead =
      sweep_seconds(traced_walls) / sweep_seconds(walls) - 1.0;
  std::uint64_t capture_flows = 0;  // connections behind the traced passes
  std::uint64_t traced_passes = 0;
  for (std::size_t c = 0; c < k; ++c) {
    capture_flows += traced_walls[c].size() * caps[c].flows;
    traced_passes += traced_walls[c].size();
  }
  const SpanTotals& rd = totals["pcap.next_chunk"];
  r.layer("pcap.read_ns_per_pkt", per(rd.total_ns, pk), "ns/pkt");
  r.layer("pcap.allocs_per_pkt", per(static_cast<double>(rd.allocs), pk),
          "allocs/pkt");
  r.layer("pcap.skipped_frac", per(sum.read.skipped, sum.read.records),
          "ratio");

  if (batch) {
    const SpanTotals& ap = totals["net.chunk_append"];
    const SpanTotals& an = totals["tapo.analyze"];
    const SpanTotals& dm = totals["tapo.demux_flow_views"];
    const SpanTotals& af = totals["tapo.analyze_flow"];
    SpanTotals source = rd;
    source.total_ns += ap.total_ns;
    source.allocs += ap.allocs;
    SpanTotals csv = totals["tapo.write_flows_csv"];
    const SpanTotals& sc = totals["tapo.write_stalls_csv"];
    csv.total_ns += sc.total_ns;
    csv.allocs += sc.allocs;
    put_stage_metrics(r, pk, static_cast<double>(sum.flows), source,
                      an.total_ns, static_cast<double>(an.allocs), csv,
                      static_cast<double>(sum.stalls), overhead);
    r.layer("net.chunk_append_ns_per_pkt", per(ap.total_ns, pk), "ns/pkt");
    r.layer("tapo.demux_ns_per_pkt", per(dm.total_ns, pk), "ns/pkt");
    r.layer("tapo.demux_allocs_per_pkt",
            per(static_cast<double>(dm.allocs), pk), "allocs/pkt");
    put_analyze_flow_layers(r, af, pk);
    r.layer("tapo.analyze_flow_ns_per_pkt.cloud",
            per(sum.cloud_ns, sum.cloud_packets), "ns/pkt");
    r.layer("tapo.analyze_flow_ns_per_pkt.web",
            per(sum.web_ns, sum.web_packets), "ns/pkt");
    r.layer("tapo.analyze_ns_per_pkt", per(an.total_ns, pk), "ns/pkt");
    r.layer("tapo.analyze_overhead_ns_per_pkt",
            per(an.total_ns - dm.total_ns - af.total_ns, pk), "ns/pkt");
    r.layer("tapo.analyze_allocs_per_pkt",
            per(static_cast<double>(an.allocs), pk), "allocs/pkt");
    r.layer("tapo.csv_ns_per_flow", per(csv.total_ns, sum.flows), "ns/flow");
  } else {
    const SpanTotals& add = totals["tapo.live_add_chunk"];
    const SpanTotals& fl = totals["tapo.live_flush"];
    const SpanTotals& sk = totals["sink.consume"];
    const SpanTotals& rr = totals["fleet.read_records"];
    const SpanTotals& ig = totals["fleet.ingest"];
    const double live_ns = add.self_ns + fl.self_ns;
    const double live_allocs =
        static_cast<double>(add.self_allocs + fl.self_allocs);
    put_stage_metrics(r, pk, static_cast<double>(sum.records), rd, live_ns,
                      live_allocs, sk, static_cast<double>(sum.stalls),
                      overhead);
    r.layer("tapo.live_ns_per_pkt", per(live_ns, pk), "ns/pkt");
    r.layer("tapo.live_allocs_per_pkt", per(live_allocs, pk), "allocs/pkt");
    r.layer("tapo.live_segments_per_flow", per(sum.flows, capture_flows),
            "segments/flow");
    r.layer("tapo.live_budget_evictions",
            per(sum.live.budget_evictions, traced_passes),
            "evictions/pass");
    r.layer("tapo.live_ledger_high_water_mib",
            static_cast<double>(sum.high_water) / (1024.0 * 1024.0), "MiB");
    r.layer("sink.consume_ns_per_flow", per(sk.total_ns, sum.records),
            "ns/flow");
    r.layer("fleet.record_bytes_per_flow",
            per(sum.record_bytes, sum.records), "bytes/flow");
    r.layer("fleet.ingest_ns_per_record",
            per(rr.total_ns + ig.total_ns, sum.records), "ns/record");
  }
  if (!opts.trace_out.empty()) {
    write_layers(opts.trace_out, opts.workload, opts, r, log);
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim_web", "sim_cloud",
                                                 "pcap_batch", "pcap_stream"};
  return names;
}

bool is_pcap_workload(const std::string& name) {
  return name == "pcap_batch" || name == "pcap_stream";
}

std::string CaptureSet::to_json() const {
  std::string out = "{\"setup_s\": " + num(setup_s) +
                    ", \"diverged\": " + std::to_string(diverged) +
                    ", \"captures\": [";
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const CaptureRef& c = captures[i];
    out += std::string(i == 0 ? "" : ", ") +
           "{\"path\": " + telemetry::json_quote(c.path) +
           ", \"flows\": " + std::to_string(c.flows) +
           ", \"packets\": " + std::to_string(c.packets) +
           ", \"skipped\": " + std::to_string(c.skipped) +
           ", \"digest\": " + telemetry::json_quote(c.digest) + "}";
  }
  return out + "]}";
}

CaptureSet CaptureSet::load(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = telemetry::json_parse(text.str());
  const telemetry::Json* caps = doc ? doc->find("captures") : nullptr;
  const telemetry::Json* setup = doc ? doc->find("setup_s") : nullptr;
  const telemetry::Json* diverged = doc ? doc->find("diverged") : nullptr;
  if (caps == nullptr || setup == nullptr || diverged == nullptr) {
    throw std::runtime_error("malformed capture list " + path);
  }
  const auto count = [](const telemetry::Json& o, const char* key) {
    const telemetry::Json* v = o.find(key);
    if (v == nullptr) throw std::runtime_error(std::string("missing ") + key);
    return static_cast<std::uint64_t>(v->number());
  };
  CaptureSet set;
  set.setup_s = setup->number();
  set.diverged = static_cast<std::uint64_t>(diverged->number());
  for (const telemetry::Json& c : caps->array()) {
    const telemetry::Json* p = c.find("path");
    const telemetry::Json* d = c.find("digest");
    if (p == nullptr || d == nullptr) {
      throw std::runtime_error("malformed capture entry in " + path);
    }
    set.captures.push_back({p->str(), count(c, "flows"), count(c, "packets"),
                            count(c, "skipped"), d->str()});
  }
  return set;
}

CaptureSet prepare_captures(std::uint64_t seed, const std::string& prefix) {
  CaptureSet set;
  std::vector<double> times;
  HostReference reference;
  HostClock clock(reference);
  Rng master(seed);
  clock.begin();
  for (std::size_t c = 0; c < kCaptures; ++c) {
    CaptureRef ref;
    ref.path = prefix + "." + std::to_string(c) + ".pcap";
    const auto t0 = Clock::now();
    const net::PacketTrace trace = simulate_capture(master, &set.diverged);
    pcap::write_file(ref.path, trace, pcap::WriteOptions{.snaplen = kSnaplen});
    times.push_back(clock.nominal(seconds_since(t0)));
    set.captures.push_back(ref);
  }
  set.setup_s = median(times);

  const analysis::Analyzer analyzer;
  for (CaptureRef& ref : set.captures) {
    pcap::ReadStats stats;
    const net::PacketTrace back = pcap::read_file(ref.path, &stats);
    const auto views = analysis::demux_flow_views(back);
    Digest d;
    for (std::size_t i = 0; i < views.size(); ++i) {
      d.add(i, analyzer.analyze_flow(views[i]));
    }
    ref.flows = views.size();
    ref.packets = stats.tcp_packets;
    ref.skipped = stats.skipped;
    ref.digest = d.hex();
  }
  return set;
}

WorkloadResult measure(const MeasureOptions& opts) {
  if (opts.workload == "sim_web" || opts.workload == "sim_cloud") {
    const SimSpec& spec = opts.workload == "sim_web" ? kSimWeb : kSimCloud;
    return opts.trace ? trace_sim(spec, opts) : measure_sim(spec, opts);
  }
  if (is_pcap_workload(opts.workload)) {
    return opts.trace ? trace_pcap(opts) : measure_pcap(opts);
  }
  throw std::invalid_argument("unknown workload " + opts.workload);
}

}  // namespace perf
