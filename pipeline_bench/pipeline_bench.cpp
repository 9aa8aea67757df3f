// End-to-end pipeline benchmark: one in-process, single-process closed loop
// over the whole CSB pipeline,
//
//   pcap -> seed bundle -> Generator::generate_into -> store finish()
//        -> ShardStoreReader open + verify -> veracity,
//
// one rep at a time, timed from outside at the calls into each module's
// public functions. One ThreadPool of nproc threads serves the seed
// pipeline, the ClusterSim, the ShardStore finish and veracity; the virtual
// cluster is fixed at 1 node x 4 cores so the output bytes never depend on
// the host.
//
//   csb_pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--scale F] [--work-dir DIR] [--corrupt-rep R]
//
// --seed seeds the synthetic capture (csb::TrafficModel); the generator's
// RNG seed is fixed. With --trace 0 every rep is plain (undecorated sink,
// no spans) and the result carries the end-to-end metrics. With --trace 1
// plain and traced reps alternate; traced reps run the sink through
// TimingStore and record spans into one csb::TraceRecorder (set-ups record
// the seed pipeline's own phases through TraceRecorder::current), and the
// result carries the per-layer metrics plus the tracing overhead (traced
// minus plain pipeline_s medians); the spans go to
// <work-dir>/<workload>-seed<N>.trace.ndjson as csb.trace.v1, which
// `csbgen report --check` accepts. Each set-up or rep is one root span
// (parent 0); its spans are the ones below it. A rep that throws
// or fails a check is counted as failed and the run goes on. --corrupt-rep
// flips one byte of a written edge shard on that rep (shard workloads),
// which verify must catch; the benchmark's own tests use it. --scale
// shrinks the seed and the target edge count for smoke tests.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.hpp"
#include "instrument.hpp"
#include "mr/cluster.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "store/shard_store.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "veracity/veracity.hpp"

namespace fs = std::filesystem;
using namespace csb;
using namespace pipeline_bench;

namespace {

/// The three workloads share one seed shape (bench::default_seed's host
/// counts); they differ in generator, sink and target size, so each loads a
/// different layer (see BENCHMARK.json for the rationale). Both pgsk
/// workloads run at the 2x10^7-edge target of the reference run, so one rep
/// lasts seconds; pgpba-shards runs at 2x10^6, where its output (~2.6x10^6
/// vertices and edges, ~260 MB peak, 0.2 GB of shards) keeps a rep near one
/// second and the host's memory and disk free.
struct Workload {
  std::string name;
  std::string generator;
  bool shards = false;
  bool properties = false;
  std::uint64_t target_edges = 0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"pgsk-fast-shards", "pgsk-fast", true, true, 20'000'000},
      {"pgpba-shards", "pgpba", true, true, 2'000'000},
      {"pgsk-memory", "pgsk", false, false, 20'000'000},
  };
  return all;
}

// The capture is a fixed session count, not a fixed byte volume: the seed
// graph then always has ~20k edges, and pgpba's output size (which steps
// with the seed's edge count) stays the same from one --seed to the next.
// The capture's byte size still varies with the heavy-tailed session sizes.
constexpr std::uint64_t kSeedSessions = 20'000;
constexpr std::uint32_t kSeedClients = 4'000;
constexpr std::uint32_t kSeedServers = 200;
constexpr std::uint64_t kGeneratorSeed = 3;
constexpr std::uint32_t kShardCount = 8;
constexpr ClusterConfig kCluster{.nodes = 1, .cores_per_node = 4};
/// Set-ups per run; setup_s and setup_peak_rss_bytes are their medians.
constexpr int kSetupReps = 5;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".bench_work";
  long corrupt_rep = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "csb_pipeline_bench: " << why
            << "\nusage: csb_pipeline_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F] [--work-dir DIR] "
               "[--corrupt-rep R]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const std::string& key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  const auto number = [&](const std::string& key, const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
      usage("--" + key + " needs a number, got '" + text + "'");
    }
    return value;
  };
  const auto name = take("workload");
  if (!name) usage("--workload is required");
  for (const Workload& w : workloads()) {
    if (w.name == *name) o.workload = &w;
  }
  if (o.workload == nullptr) usage("unknown workload '" + *name + "'");
  if (auto v = take("seed")) {
    o.seed = static_cast<std::uint64_t>(number("seed", *v));
  }
  if (auto v = take("seconds")) o.seconds = number("seconds", *v);
  if (auto v = take("trace")) o.trace = number("trace", *v) != 0.0;
  if (auto v = take("scale")) o.scale = number("scale", *v);
  if (auto v = take("work-dir")) o.work_dir = *v;
  if (auto v = take("corrupt-rep")) {
    o.corrupt_rep = static_cast<long>(number("corrupt-rep", *v));
  }
  if (!kv.empty()) usage("unknown option --" + kv.begin()->first);
  if (o.seconds <= 0.0 || o.scale <= 0.0 || o.scale > 1.0) {
    usage("--seconds must be positive, --scale in (0, 1]");
  }
  return o;
}

std::uint64_t scaled(std::uint64_t base, double scale, std::uint64_t floor) {
  return std::max<std::uint64_t>(
      floor, static_cast<std::uint64_t>(static_cast<double>(base) * scale));
}

/// Kronecker order of the pgsk workloads: 2^16 vertices per 2x10^6 edges
/// (2^19 at 2x10^7), so every edge target keeps ~30-38 edges per vertex.
long kronecker_order(std::uint64_t edges) {
  return std::max(
      4L, 16 + std::lround(std::log2(static_cast<double>(edges) / 2e6)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Host-wide CPU time from /proc/stat's "cpu" line, in ticks: the steal
/// column (time this VM's vCPUs waited for the hypervisor) and the total.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  std::uint64_t value = 0;
  for (int column = 0; column < 8 && in >> value; ++column) {
    ticks.total += value;
    if (column == 7) ticks.steal = value;
  }
  return ticks;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Flushes the work directory's filesystem so one rep's writeback is not
/// billed to the next.
void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Flips one byte in the middle of the first edge shard.
void corrupt_edge_shard(const std::string& dir, const ShardManifest& m) {
  CSB_CHECK_MSG(!m.shards.empty(), "no shard to corrupt");
  const std::string path =
      (fs::path(dir) / m.shards.front().edge_file).string();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  CSB_CHECK_MSG(f.is_open(), "cannot open " << path);
  const auto offset = static_cast<std::streamoff>(fs::file_size(path) / 2);
  char byte = 0;
  f.seekg(offset);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(offset);
  f.write(&byte, 1);
  CSB_CHECK_MSG(f.good(), "cannot rewrite " << path);
}

std::uint64_t manifest_digest(const ShardManifest& m) {
  std::uint64_t h = hash_combine(m.vertices, m.edges);
  for (const ShardInfo& s : m.shards) {
    h = hash_combine(h, hash_combine(s.edge_checksum, s.prop_checksum));
  }
  return hash_combine(h, m.csr_checksum);
}

template <typename T>
std::uint64_t column_digest(std::uint64_t h, std::span<const T> column) {
  for (const T& value : column) {
    h = hash_combine(h, static_cast<std::uint64_t>(value));
  }
  return h;
}

std::uint64_t graph_digest(const PropertyGraph& g) {
  std::uint64_t h = hash_combine(g.num_vertices(), g.num_edges());
  h = column_digest(h, g.sources());
  h = column_digest(h, g.destinations());
  if (g.has_properties()) {
    h = column_digest(h, g.protocols());
    h = column_digest(h, g.src_ports());
    h = column_digest(h, g.dst_ports());
    h = column_digest(h, g.durations_ms());
    h = column_digest(h, g.out_bytes());
    h = column_digest(h, g.in_bytes());
    h = column_digest(h, g.out_pkts());
    h = column_digest(h, g.in_pkts());
    h = column_digest(h, g.states());
  }
  return h;
}

/// Per-layer span time aggregation: a span's self time is its duration
/// minus the union of its children's intervals (children may overlap, e.g.
/// put_edges calls from several pool threads).
double self_seconds(const SpanRecord& span,
                    const std::vector<SpanRecord>& all) {
  std::vector<std::pair<double, double>> kids;
  for (const SpanRecord& s : all) {
    if (s.parent == span.id) {
      kids.emplace_back(std::max(s.t0, span.t0), std::min(s.t1, span.t1));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double end = span.t0;
  for (const auto& [a, b] : kids) {
    const double start = std::max(a, end);
    if (b > start) {
      covered += b - start;
      end = b;
    }
  }
  return (span.t1 - span.t0) - covered;
}

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double span_seconds(const std::vector<SpanRecord>& spans,
                    const std::string& name) {
  const SpanRecord* span = find_span(spans, name);
  return span != nullptr ? span->t1 - span->t0 : 0.0;
}

/// The spans of one set-up or rep: its root span and every span below it.
/// Completion order records children before their parents, so a walk from
/// the newest span back meets each parent before its children.
std::vector<SpanRecord> spans_under(const TraceRecorder& trace,
                                    std::uint64_t root) {
  std::set<std::uint64_t> ids{root};
  std::vector<SpanRecord> out;
  const std::vector<SpanRecord>& spans = trace.spans();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->id == root || ids.count(it->parent) != 0) {
      ids.insert(it->id);
      out.push_back(*it);
    }
  }
  return out;
}

/// A named figure with its unit, in print order. Figures with `reported`
/// off are printed but left out of the result line: they are times that
/// read exactly 0 on a workload that bypasses the layer (no properties, or
/// no shard reader on the memory sink).
struct Figure {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool reported = true;
};
using Figures = std::vector<Figure>;

struct SetupRep {
  double setup_s = 0.0;
  std::uint64_t peak_rss = 0;
  Figures layers;  ///< per-layer figures (all reps; spans only when traced)
};

struct PipelineRep {
  bool traced = false;
  double pipeline_s = 0.0;
  double gen_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t peak_rss = 0;
  std::uint64_t edges = 0;
  std::uint64_t vertices = 0;
  double store_bytes_per_edge = 0.0;
  std::uint64_t digest = 0;
  VeracityReport scores;
  Figures layers;  ///< per-layer figures (traced reps only)
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : o_(options),
        pool_(std::max(1u, std::thread::hardware_concurrency())),
        store_dir_((fs::path(options.work_dir) / "store").string()) {}

  int run();

 private:
  std::string synthesize_pcap();
  SetupRep setup_once(const std::string& pcap, TraceRecorder* trace);
  PipelineRep pipeline_once(TraceRecorder* trace, bool corrupt);

  Options o_;
  ThreadPool pool_;
  std::string store_dir_;
  SeedBundle seed_{PropertyGraph{}, SeedProfile{}};
  std::uint64_t capture_packets_ = 0;
};

std::string Bench::synthesize_pcap() {
  TrafficModelConfig config;
  config.benign_sessions = scaled(kSeedSessions, o_.scale, 50);
  config.client_hosts =
      static_cast<std::uint32_t>(scaled(kSeedClients, o_.scale, 10));
  config.server_hosts =
      static_cast<std::uint32_t>(scaled(kSeedServers, o_.scale, 2));
  config.seed = o_.seed;
  const std::string path =
      (fs::path(o_.work_dir) / ("seed-" + std::to_string(o_.seed) + ".pcap"))
          .string();
  const std::vector<SessionSpec> sessions =
      TrafficModel(config).generate_benign();
  const std::vector<PcapPacket> packets = sessions_to_packets(sessions);
  capture_packets_ = packets.size();
  write_pcap_file(path, packets);
  std::cout << "capture: " << sessions.size() << " sessions, "
            << fs::file_size(path) << " bytes\n";
  return path;
}

SetupRep Bench::setup_once(const std::string& pcap, TraceRecorder* trace) {
  SetupRep out;
  malloc_trim(0);
  reset_peak_rss();
  // Traced set-ups hand the recorder to the seed pipeline, which books its
  // own phases (seed:index, seed:decode, ...) under the "setup" root. The
  // slot is cleared on every exit, so no pipeline rep records into it.
  struct CurrentRecorder {
    explicit CurrentRecorder(TraceRecorder* t) {
      TraceRecorder::set_current(t);
    }
    ~CurrentRecorder() { TraceRecorder::set_current(nullptr); }
  };
  std::uint64_t root = 0;
  const auto t0 = Clock::now();
  SeedBundle bundle = [&] {
    const CurrentRecorder current(trace);
    const PhaseScope phase(trace, "setup");
    if (trace != nullptr) root = trace->open_parent();
    return build_seed_from_pcap_file(pcap, {.pool = &pool_});
  }();
  out.setup_s = seconds_between(t0, Clock::now());
  out.peak_rss = peak_rss_bytes();
  if (seed_.graph.num_edges() != 0) {
    CSB_CHECK_MSG(bundle.graph == seed_.graph &&
                      bundle.profile == seed_.profile,
                  "set-up output differs between set-up reps");
  }
  seed_ = std::move(bundle);
  if (trace != nullptr) {
    const std::vector<SpanRecord> spans = spans_under(*trace, root);
    // The counts are exact without a copy of the pipeline: the reader reads
    // the whole file, every synthesized frame decodes, and the seed graph
    // has one edge per assembled flow.
    out.layers = {
        {"pcap.read_s", "s", span_seconds(spans, "seed:index")},
        {"pcap.bytes_read", "B", static_cast<double>(fs::file_size(pcap))},
        {"seed.decode_s", "s", span_seconds(spans, "seed:decode")},
        {"seed.graph_s", "s", span_seconds(spans, "seed:build-graph")},
        {"seed.profile_s", "s", span_seconds(spans, "seed:profile")},
        {"seed.packets", "count", static_cast<double>(capture_packets_)},
        {"flow.assemble_s", "s", span_seconds(spans, "seed:assemble-flows")},
        {"flow.flows", "count", static_cast<double>(seed_.graph.num_edges())},
    };
  }
  return out;
}

PipelineRep Bench::pipeline_once(TraceRecorder* trace, bool corrupt) {
  const Workload& w = *o_.workload;
  PipelineRep out;
  out.traced = trace != nullptr;

  // Untimed hygiene: no store left from the previous rep, its writeback
  // flushed, and the heap it freed handed back to the kernel as far as
  // malloc_trim can (see run() for what it cannot).
  fs::remove_all(store_dir_);
  sync_filesystem(o_.work_dir);
  malloc_trim(0);

  GenConfig config;
  config.desired_edges = scaled(w.target_edges, o_.scale, 2'000);
  config.seed = kGeneratorSeed;
  config.with_properties = w.properties;
  if (w.generator == "pgsk" || w.generator == "pgsk-fast") {
    config.extra["dedup-spill-dir"] = o_.work_dir;
    // The Kronecker order derived from the fitted initiator flips by one
    // across capture seeds; pin it so every seed yields the same output
    // shape.
    config.extra["force-k"] =
        std::to_string(kronecker_order(config.desired_edges));
  }
  const Generator& generator = require_generator(w.generator);
  ClusterSim cluster(kCluster, pool_);
  ShardStoreOptions store_options;
  store_options.directory = store_dir_;
  store_options.shard_count = kShardCount;
  store_options.pool = &pool_;
  std::optional<ShardStore> shard_store;
  std::optional<MemoryStore> memory_store;
  GraphStore* store = nullptr;
  if (w.shards) {
    store = &shard_store.emplace(store_options);
  } else {
    store = &memory_store.emplace();
  }

  SinkStats sink;
  double open_s = 0, verify_s = 0, veracity_s = 0, degree_s = 0,
         pagerank_s = 0;
  std::optional<ShardStoreReader> reader;
  StoreGenResult result;

  reset_peak_rss();
  std::uint64_t root = 0;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    const PhaseScope pipeline(trace, "pipeline");
    if (trace != nullptr) root = trace->open_parent();
    {
      const PhaseScope gen(trace, "gen:generate_into");
      const auto a = Clock::now();
      if (trace != nullptr) {
        TimingStore timed(*store, trace, trace->open_parent());
        result = generator.generate_into(seed_.graph, seed_.profile, cluster,
                                         config, timed);
        sink = timed.stats();
      } else {
        result = generator.generate_into(seed_.graph, seed_.profile, cluster,
                                         config, *store);
      }
      out.gen_s = seconds_between(a, Clock::now());
    }
    if (corrupt) {
      CSB_CHECK_MSG(w.shards, "--corrupt-rep needs a shard workload");
      corrupt_edge_shard(store_dir_, shard_store->manifest());
    }
    if (w.shards) {
      timed_phase(trace, "store:open", open_s,
                  [&] { reader.emplace(store_dir_); });
      timed_phase(trace, "store:verify", verify_s,
                  [&] { reader->verify(&pool_); });
    }
    const PhaseScope veracity(trace, "veracity");
    const auto v0 = Clock::now();
    if (trace == nullptr) {
      out.scores = w.shards
                       ? evaluate_veracity(seed_.graph, reader->csr(), pool_)
                       : evaluate_veracity(seed_.graph, memory_store->graph(),
                                           pool_);
    } else {
      // evaluate_veracity's body, with the synthetic-side calls timed.
      std::vector<double> synth_degree, synth_pagerank;
      const std::vector<double> seed_degree =
          normalized_degree_distribution(seed_.graph);
      timed_phase(trace, "veracity:degree", degree_s, [&] {
        synth_degree =
            w.shards ? normalized_degree_distribution(reader->csr(), &pool_)
                     : normalized_degree_distribution(memory_store->graph());
      });
      out.scores.degree_score = veracity_score(seed_degree, synth_degree);
      const std::vector<double> seed_pagerank =
          normalized_pagerank_distribution(seed_.graph, pool_);
      timed_phase(trace, "veracity:pagerank", pagerank_s, [&] {
        synth_pagerank =
            w.shards ? normalized_pagerank_distribution(reader->csr(), pool_)
                     : normalized_pagerank_distribution(memory_store->graph(),
                                                        pool_);
      });
      out.scores.pagerank_score =
          veracity_score(seed_pagerank, synth_pagerank);
    }
    veracity_s = seconds_between(v0, Clock::now());
  }
  out.pipeline_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss = std::max(peak_rss_bytes(), sink.peak_before_finish);

  // Untimed checks.
  out.edges = result.edges;
  out.vertices = result.vertices;
  if (w.shards) {
    const ShardManifest& m = reader->manifest();
    CSB_CHECK_MSG(m.vertices == result.vertices && m.edges == result.edges,
                  "manifest dimensions " << m.vertices << "x" << m.edges
                                         << " differ from the generator's "
                                         << result.vertices << "x"
                                         << result.edges);
    out.digest = manifest_digest(m);
    out.store_bytes_per_edge =
        static_cast<double>(directory_bytes(store_dir_)) /
        static_cast<double>(result.edges);
  } else {
    const PropertyGraph& g = memory_store->graph();
    CSB_CHECK_MSG(g.num_vertices() == result.vertices &&
                      g.num_edges() == result.edges,
                  "stored graph dimensions differ from the generator's");
    out.digest = graph_digest(g);
    out.store_bytes_per_edge = static_cast<double>(g.memory_bytes()) /
                               static_cast<double>(result.edges);
  }
  CSB_CHECK_MSG(result.edges > 0, "generator produced no edges");
  CSB_CHECK_MSG(std::isfinite(out.scores.degree_score) &&
                    std::isfinite(out.scores.pagerank_score),
                "veracity scores are not finite");

  if (trace != nullptr) {
    const std::vector<SpanRecord> spans = spans_under(*trace, root);
    const SpanRecord* pipeline = find_span(spans, "pipeline");
    const SpanRecord* gen = find_span(spans, "gen:generate_into");
    const auto window = [](double first, double last) {
      return first < 0.0 ? 0.0 : last - first;
    };
    const JobMetrics& mr = result.metrics;
    const auto num = [](std::uint64_t n) { return static_cast<double>(n); };
    out.layers = {
        {"gen.pre_emit_s", "s", sink.begin_at},
        {"gen.edge_window_s", "s", window(sink.first_edges, sink.last_edges)},
        {"gen.prop_window_s", "s", window(sink.first_props, sink.last_props),
         false},
        {"gen.cpu_s", "s", sink.cpu_at_finish - sink.cpu_at_start},
        {"gen.self_s", "s", gen != nullptr ? self_seconds(*gen, spans) : 0.0},
        {"gen.edges", "count", num(result.edges)},
        {"gen.vertices", "count", num(result.vertices)},
        {"store.put_edges_calls", "count", num(sink.edge_calls)},
        {"store.put_edges_busy_s", "s", sink.edge_busy_s},
        {"store.edge_bytes", "B", num(sink.edge_bytes)},
        {"store.put_props_calls", "count", num(sink.prop_calls)},
        {"store.put_props_busy_s", "s", sink.prop_busy_s, false},
        {"store.prop_bytes", "B", num(sink.prop_bytes)},
        {"store.put_threads", "count", num(sink.threads.size())},
        {"store.finish_s", "s", sink.finish_end - sink.finish_start},
        {"store.finish_cpu_s", "s", sink.cpu_after_finish - sink.cpu_at_finish},
        {"store.finish_peak_rss_bytes", "B", num(sink.finish_peak)},
        {"store.open_s", "s", open_s, false},
        {"store.verify_s", "s", verify_s, false},
        {"store.bytes_on_disk", "B",
         w.shards ? num(directory_bytes(store_dir_)) : 0.0},
        {"mr.simulated_s", "s", mr.simulated_seconds},
        {"mr.serial_s", "s", mr.serial_seconds},
        {"mr.tasks", "count", num(mr.tasks)},
        {"veracity.s", "s", veracity_s},
        {"veracity.degree_s", "s", degree_s},
        {"veracity.pagerank_s", "s", pagerank_s},
        {"veracity.degree_score", "score", out.scores.degree_score},
        {"veracity.pagerank_score", "score", out.scores.pagerank_score},
        {"unattributed_s", "s",
         pipeline != nullptr ? self_seconds(*pipeline, spans) : 0.0},
    };
  }
  return out;
}

/// Per-figure medians over reps that each list the same figures in the
/// same order.
Figures medians(const std::vector<Figures>& reps) {
  Figures out;
  if (reps.empty()) return out;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> values;
    for (const Figures& f : reps) values.push_back(f[i].value);
    out.push_back(reps.front()[i]);
    out.back().value = median(values);
  }
  return out;
}

void print_figures(const std::string& title, const Figures& figures) {
  std::cout << title << "\n";
  for (const Figure& f : figures) {
    std::cout << "  " << std::left << std::setw(30) << f.name << std::right
              << std::setw(16) << std::setprecision(6) << f.value << " "
              << f.unit << (f.reported ? "" : "  (table only)") << "\n";
  }
}

int Bench::run() {
  const Workload& w = *o_.workload;
  fs::create_directories(o_.work_dir);
  std::cout << "provenance: git_sha="
            << (std::getenv("CSB_GIT_SHA") ? std::getenv("CSB_GIT_SHA")
                                           : "unknown")
            << " nproc=" << std::thread::hardware_concurrency()
            << " pool=" << pool_.size() << " cpu=\"" << cpu_model() << "\""
            << " virtual_cluster=" << kCluster.nodes << "x"
            << kCluster.cores_per_node << "\n";
  std::cout << "workload " << w.name << ": generator=" << w.generator
            << " sink=" << (w.shards ? "shards" : "memory")
            << " properties=" << (w.properties ? "on" : "off")
            << " seed=" << o_.seed << " scale=" << o_.scale << "\n";

  std::unique_ptr<TraceRecorder> trace;
  if (o_.trace) trace = std::make_unique<TraceRecorder>();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto fail = [&](const std::string& what, const std::string& why) {
    ++failed;
    std::cout << what << " FAILED: " << why << "\n";
  };

  // Set-up: the capture is synthesized from --seed outside the timing, then
  // ingested kSetupReps times; each ingest is one attempted operation.
  std::vector<SetupRep> setups;
  {
    const std::string pcap = synthesize_pcap();
    for (int i = 0; i < kSetupReps; ++i) {
      ++attempted;
      try {
        setups.push_back(setup_once(pcap, trace.get()));
        std::cout << "setup " << i << ": " << setups.back().setup_s << " s\n";
      } catch (const std::exception& e) {
        fail("setup " + std::to_string(i), e.what());
      }
    }
    fs::remove(pcap);
  }
  if (seed_.graph.num_edges() == 0) {
    std::cout << "no seed; pipeline not run\n";
  }

  // Closed loop: one warm-up rep, then reps until --seconds have passed.
  // Traced runs alternate plain and traced reps, starting plain.
  //
  // peak_rss_bytes is the warm-up rep's alone. Every later rep starts from
  // the heap the reps before it left: malloc_trim hands back free memory
  // inside each glibc arena but not the free top of a pool thread's arena,
  // so 100-190 MB stays resident on pgpba-shards, by an amount that varies
  // from run to run, and later peaks climb with it. The warm-up rep starts
  // from the post-set-up heap, as a fresh `csbgen generate` process does.
  std::vector<PipelineRep> reps;
  std::optional<std::uint64_t> first_peak_rss;
  std::optional<std::uint64_t> reference_digest;
  std::optional<VeracityReport> reference_scores;
  const CpuTicks ticks_before = host_cpu_ticks();
  const auto loop_start = Clock::now();
  const auto deadline_passed = [&] {
    return seconds_between(loop_start, Clock::now()) >= o_.seconds;
  };
  for (long index = 0; seed_.graph.num_edges() != 0; ++index) {
    const bool warmup = index == 0;
    const bool traced = o_.trace && !warmup && index % 2 == 0;
    ++attempted;
    const std::string label =
        "rep " + std::to_string(index) +
        (warmup ? " warm-up" : traced ? " traced" : " plain");
    try {
      PipelineRep r = pipeline_once(traced ? trace.get() : nullptr,
                                    index == o_.corrupt_rep);
      if (!reference_digest) {
        reference_digest = r.digest;
        reference_scores = r.scores;
      }
      std::ostringstream digest;
      digest << std::hex << r.digest;
      if (r.digest != *reference_digest) {
        fail(label, "output digest " + digest.str() +
                        " differs from the first rep's");
      } else if (r.scores.degree_score != reference_scores->degree_score ||
                 r.scores.pagerank_score != reference_scores->pagerank_score) {
        fail(label, "veracity scores differ from the first rep's");
      } else {
        std::cout << label << ": pipeline_s=" << r.pipeline_s
                  << " peak_rss=" << r.peak_rss << " cpu_s=" << r.cpu_s
                  << " edges=" << r.edges << " vertices=" << r.vertices
                  << " digest=" << digest.str()
                  << " ok\n";
        if (warmup) {
          first_peak_rss = r.peak_rss;
        } else {
          reps.push_back(std::move(r));
        }
      }
    } catch (const std::exception& e) {
      fail(label, e.what());
    }
    const bool have_both =
        !o_.trace ||
        (std::any_of(reps.begin(), reps.end(),
                     [](const PipelineRep& r) { return r.traced; }) &&
         std::any_of(reps.begin(), reps.end(),
                     [](const PipelineRep& r) { return !r.traced; }));
    if (!warmup && deadline_passed() && (have_both || index > 20)) break;
  }
  fs::remove_all(store_dir_);
  // Steal time slows every layer at once; printed so that runs on a busy
  // host are not read as regressions.
  const CpuTicks ticks_after = host_cpu_ticks();
  if (ticks_after.total > ticks_before.total) {
    std::cout << "host cpu steal during the reps: "
              << 100.0 * static_cast<double>(ticks_after.steal -
                                             ticks_before.steal) /
                     static_cast<double>(ticks_after.total -
                                         ticks_before.total)
              << "%\n";
  }

  // Aggregation: medians over the measured reps of each kind.
  std::vector<double> setup_s, setup_rss, pipeline_plain, pipeline_traced,
      edges_per_s, cpu_s, bytes_per_edge;
  for (const SetupRep& s : setups) {
    setup_s.push_back(s.setup_s);
    setup_rss.push_back(static_cast<double>(s.peak_rss));
  }
  std::vector<Figures> layer_reps;
  for (const PipelineRep& r : reps) {
    if (r.traced) {
      pipeline_traced.push_back(r.pipeline_s);
      layer_reps.push_back(r.layers);
      continue;
    }
    pipeline_plain.push_back(r.pipeline_s);
    edges_per_s.push_back(static_cast<double>(r.edges) / r.gen_s);
    cpu_s.push_back(r.cpu_s);
    bytes_per_edge.push_back(r.store_bytes_per_edge);
  }

  Figures end_to_end = {
      {"setup_s", "s", median(setup_s)},
      {"setup_peak_rss_bytes", "B", median(setup_rss)},
      {"edges_per_s", "edges/s", median(edges_per_s)},
      {"pipeline_s", "s", median(pipeline_plain)},
      {"peak_rss_bytes", "B",
       static_cast<double>(first_peak_rss.value_or(0))},
      {"cpu_s", "s", median(cpu_s)},
      {"store_bytes_per_edge", "B/edge", median(bytes_per_edge)},
  };
  print_figures("end-to-end (medians: " + std::to_string(setups.size()) +
                    " set-ups, " + std::to_string(pipeline_plain.size()) +
                    " plain reps; peak_rss_bytes of the warm-up rep)",
                end_to_end);
  Figures result = end_to_end;
  if (o_.trace) {
    // Per-layer figures: set-up layers from the traced set-ups, pipeline
    // layers from the traced reps, plus the tracing overhead.
    std::vector<Figures> setup_layers;
    for (const SetupRep& s : setups) setup_layers.push_back(s.layers);
    const Figures setup_medians = medians(setup_layers);
    const Figures layer_medians = medians(layer_reps);
    print_figures("set-up layers (medians over " +
                      std::to_string(setups.size()) + " traced set-ups)",
                  setup_medians);
    print_figures("pipeline layers (medians over " +
                      std::to_string(layer_reps.size()) + " traced reps)",
                  layer_medians);
    result.clear();
    for (const Figures* figures : {&setup_medians, &layer_medians}) {
      for (const Figure& f : *figures) {
        if (f.reported) result.push_back(f);
      }
    }
    const Figure overhead{"trace_overhead_s", "s",
                          median(pipeline_traced) - median(pipeline_plain)};
    print_figures("tracing overhead: pipeline_s of " +
                      std::to_string(median(pipeline_traced)) +
                      " s traced vs " + std::to_string(median(pipeline_plain)) +
                      " s plain",
                  {overhead});
    result.push_back(overhead);

    const std::string trace_path =
        (fs::path(o_.work_dir) /
         (w.name + "-seed" + std::to_string(o_.seed) + ".trace.ndjson"))
            .string();
    trace->set_meta("tool", "csb_pipeline_bench");
    trace->set_meta("workload", w.name);
    trace->set_meta("generator", w.generator);
    trace->set_meta("seed", std::to_string(o_.seed));
    trace->set_meta("git_sha", std::getenv("CSB_GIT_SHA")
                                   ? std::getenv("CSB_GIT_SHA")
                                   : "unknown");
    trace->set_meta("nproc",
                    std::to_string(std::thread::hardware_concurrency()));
    trace->set_meta("pool", std::to_string(pool_.size()));
    trace->set_meta("cpu", cpu_model());
    trace->write_ndjson_file(trace_path);
    std::vector<std::string> errors;
    (void)parse_trace_file(trace_path, &errors);
    ++attempted;
    if (!errors.empty()) {
      fail("trace " + trace_path, errors.front());
    } else {
      std::cout << "wrote " << trace_path << " (csb.trace.v1, valid)\n";
    }
  }

  const bool have_results = !setups.empty() && first_peak_rss &&
                            !pipeline_plain.empty() &&
                            (!o_.trace || !pipeline_traced.empty());
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 && have_results ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (i != 0) json << ", ";
    json << "\"" << result[i].name << "\": {\"value\": "
         << json_number(result[i].value) << ", \"unit\": \""
         << result[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  try {
    return Bench(options).run();
  } catch (const std::exception& e) {
    std::cerr << "csb_pipeline_bench: " << e.what() << "\n";
    return 1;
  }
}
