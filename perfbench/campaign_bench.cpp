// campaign_bench: one measurement campaign per process, for the campaign
// benchmark (perfbench/run.py).
//
// The default mode composes the campaign from the public phase functions in
// the order core::run_measurement uses them — build_population,
// plan_internet, one ShardContext per shard (constructed, run and torn down
// on its own thread), the shard merge, then build_intel + finalize — and
// times every phase from outside. The shards run with streaming and
// retention off; a StreamingAnalyzer owned here is attached as the
// scanner's R2 sink, so the tables come out of the same classifier the
// pipeline uses. `--reference` instead calls core::run_measurement with the
// same configuration, to cross-check digest and tables.
//
//   campaign_bench --year 2018 --scale 256 --threads 1 --seed 42
//                  [--raw-steps-per-host K] [--udp-limit N] [--tcp]
//                  [--trace] [--reference] [--run-id N]
//
// `--trace` turns on the obs metrics registry, wraps the R2 sink and the
// zone-rotation callback in timers, and emits the phase spans. Output is one
// JSON object on stdout.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <exception>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/report.h"
#include "analysis/streaming.h"
#include "core/internet_builder.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "core/population.h"
#include "core/shard.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace orp;
using Clock = std::chrono::steady_clock;

struct Options {
  int year = 2018;
  std::uint64_t scale = 256;
  unsigned threads = 1;
  std::uint64_t seed = 42;
  /// Non-zero: override spec.raw_steps with this many permutation steps per
  /// planted host (4 is the smallest slice plan_internet accepts).
  std::uint64_t raw_steps_per_host = 0;
  std::uint16_t udp_limit = 0;
  bool tcp = false;
  bool trace = false;
  bool reference = false;
  std::uint64_t run_id = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench [--year 2013|2018] [--scale N] "
               "[--threads N] [--seed N] [--raw-steps-per-host K] "
               "[--udp-limit N] [--tcp] [--trace] [--reference] "
               "[--run-id N]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected a non-negative integer");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::uint64_t {
      if (i + 1 >= argc) usage("missing value");
      return parse_u64(argv[++i]);
    };
    if (a == "--year") {
      o.year = static_cast<int>(value());
    } else if (a == "--scale") {
      o.scale = value();
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(value());
    } else if (a == "--seed") {
      o.seed = value();
    } else if (a == "--raw-steps-per-host") {
      o.raw_steps_per_host = value();
    } else if (a == "--udp-limit") {
      const std::uint64_t v = value();
      if (v > 0xFFFF) usage("--udp-limit out of range");
      o.udp_limit = static_cast<std::uint16_t>(v);
    } else if (a == "--tcp") {
      o.tcp = true;
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--reference") {
      o.reference = true;
    } else if (a == "--run-id") {
      o.run_id = value();
    } else {
      usage("unknown argument");
    }
  }
  if (o.year != 2013 && o.year != 2018) usage("--year must be 2013 or 2018");
  if (o.scale == 0 || o.threads == 0) usage("--scale and --threads must be >= 1");
  if (o.reference && (o.trace || o.raw_steps_per_host != 0))
    usage("--reference runs run_measurement as is (no --trace, no override)");
  return o;
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- JSON output -----------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// A flat JSON object built field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  JsonObject& num(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- Campaign pieces shared by both modes ----------------------------------

const core::PaperYear& paper_year(int year) {
  return year == 2013 ? core::paper_2013() : core::paper_2018();
}

/// Tables III-X rendered into one comparable string (field-complete:
/// exemplars, top-10 attribution and distinct counts included).
std::string rendered_tables(const analysis::ScanAnalysis& a) {
  std::string s;
  s += analysis::render_answer_table({{"measured", a.answers}});
  s += analysis::render_flag_table({{"measured", a.ra}}, "RA");
  s += analysis::render_flag_table({{"measured", a.aa}}, "AA");
  s += analysis::render_rcode_table({{"measured", a.rcodes}});
  s += analysis::render_incorrect_table({{"measured", a.incorrect}});
  s += analysis::render_top10_table(a.top10);
  s += analysis::render_malicious_table({{"measured", a.malicious}});
  s += analysis::render_malicious_flags_table({{"measured", a.malicious}});
  return s;
}

std::string scan_json(const prober::ScanStats& s) {
  return JsonObject()
      .num("q1_sent", s.q1_sent)
      .num("r2_received", s.r2_received)
      .num("r2_matched", s.r2_matched)
      .num("r2_empty_question", s.r2_empty_question)
      .num("r2_unmatched", s.r2_unmatched)
      .num("timeouts_reaped", s.timeouts_reaped)
      .num("template_stamped", s.template_stamped)
      .num("template_fallback", s.template_fallback)
      .num("tcp_retries", s.tcp_retries)
      .num("tcp_answers", s.tcp_answers)
      .dump();
}

/// Every registered obs metric by its exported name; a histogram
/// contributes `<name>_count` and `<name>_sum`.
std::string metrics_json(const obs::Metrics& m) {
  JsonObject out;
  if (!m.enabled()) return out.dump();
  const std::span<const std::uint64_t> v = m.raw();
  for (const obs::MetricDef& d : m.schema()->defs()) {
    if (d.kind == obs::MetricKind::kHistogram) {
      std::uint64_t count = 0;
      for (std::uint32_t b = 0; b <= d.edge_count; ++b)
        count += v[d.first_slot + b];
      out.num(d.name + "_count", count);
      out.num(d.name + "_sum", v[d.first_slot + d.edge_count + 1]);
    } else {
      out.num(d.name, v[d.first_slot]);
    }
  }
  return out.dump();
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- Spans -----------------------------------------------------------------

/// In-memory span log: name, start and end (seconds since the campaign
/// began), and the index of the enclosing span (-1 for the root).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int add(std::string name, Clock::time_point begin, Clock::time_point end,
          int parent) {
    spans_.push_back({std::move(name), seconds(begin - origin_),
                      seconds(end - origin_), parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::string json(std::uint64_t run_id) const {
    std::string s = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      s += i == 0 ? "" : ", ";
      s += JsonObject()
               .num("id", static_cast<std::uint64_t>(i))
               .str("name", sp.name)
               .num("start_s", sp.start)
               .num("end_s", sp.end)
               .raw("parent", std::to_string(sp.parent))
               .num("run_id", run_id)
               .dump();
    }
    return s + "]";
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Yardstick -------------------------------------------------------------

/// A fixed amount of work that runs none of the repository's code, in the
/// two access patterns a campaign spends its time on: random
/// read-modify-writes over a 16 MiB table (memory-bound, like the
/// outstanding table and the host maps) and a min-heap plus a hash map
/// under churn (cache-resident, like the event loop). It runs on `threads`
/// threads at once and returns the wall time of the slowest, so it sees the
/// cores the campaign used. run.py scales campaign times by it to cancel
/// the host's speed drift (README.md, "Noise").
double yardstick(unsigned threads) {
  std::vector<double> walls(threads);
  std::atomic<std::uint64_t> sink{0};
  const auto work = [&](unsigned id) {
    constexpr std::size_t kSlots = std::size_t{1} << 21;
    std::vector<std::uint64_t> table(kSlots);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t x = 0x9E3779B97F4A7C15ull + id;
    std::uint64_t acc = 0;
    const auto next = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    // Round 0 faults the pages in and fills the containers; rounds 1-2 are
    // timed.
    Clock::time_point t0;
    for (int round = 0; round < 3; ++round) {
      if (round == 1) t0 = Clock::now();
      for (std::size_t i = 0; i < kSlots; ++i) {
        table[next() & (kSlots - 1)] += x;
        acc += table[i];
      }
      for (int i = 0; i < 300000; ++i) {
        heap.push(next() & 0xFFFFFFF);
        if (heap.size() > 20000) {
          acc += heap.top();
          heap.pop();
        }
      }
      for (std::uint32_t i = 0; i < 300000; ++i) {
        map[next() & 0xFFFF] += i;
        if ((i & 3) == 0) map.erase(next() & 0xFFFF);
      }
    }
    walls[id] = seconds(Clock::now() - t0);
    sink += acc + map.size();  // keeps the work from being optimized away
  };
  std::vector<std::thread> workers;
  for (unsigned i = 1; i < threads; ++i) workers.emplace_back(work, i);
  work(0);
  for (auto& w : workers) w.join();
  return *std::max_element(walls.begin(), walls.end());
}

// ---- Composed campaign -----------------------------------------------------

/// One shard's wall clocks and per-call layer boundaries (traced runs).
struct ShardClock {
  Clock::time_point construct_begin, construct_end, run_end, teardown_end;
  std::uint64_t on_r2_calls = 0;
  Clock::duration on_r2_busy{};
  std::uint64_t load_cluster_calls = 0;
  Clock::duration load_cluster_busy{};
};

/// Times every StreamingAnalyzer::on_r2 call it forwards.
class TimedSink final : public prober::R2Sink {
 public:
  TimedSink(prober::R2Sink& inner, ShardClock& clock)
      : inner_(inner), clock_(clock) {}

  void on_r2(net::SimTime time, net::IPv4Addr resolver,
             std::span<const std::uint8_t> payload) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_r2(time, resolver, payload);
    clock_.on_r2_busy += Clock::now() - t0;
    ++clock_.on_r2_calls;
  }

 private:
  prober::R2Sink& inner_;
  ShardClock& clock_;
};

int run_composed(const Options& o) {
  const core::PaperYear& year = paper_year(o.year);
  const Clock::time_point t_begin = Clock::now();

  core::PopulationSpec spec = core::build_population(year, o.scale, o.seed);
  if (o.raw_steps_per_host != 0)
    spec.raw_steps = o.raw_steps_per_host * spec.hosts.size();
  const Clock::time_point t_population = Clock::now();

  // The same configuration run_measurement derives from a PipelineConfig.
  core::InternetConfig net_config;
  net_config.seed = o.seed;
  net_config.scan_seed = util::mix64(o.seed + year.year);
  net_config.udp_limit = o.udp_limit;
  net_config.tcp = o.tcp;
  const core::InternetPlan plan = core::plan_internet(spec, net_config);
  const Clock::time_point t_plan = Clock::now();

  prober::ScanConfig scan_config;
  scan_config.seed = net_config.scan_seed;
  scan_config.rate_pps = spec.rate_pps;
  scan_config.raw_steps = spec.raw_steps;
  scan_config.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  scan_config.tcp_fallback = o.tcp;

  std::uint32_t shards = o.threads;
  if (shards > spec.raw_steps) shards = static_cast<std::uint32_t>(spec.raw_steps);

  obs::ObsConfig obs_config;
  obs_config.metrics = o.trace;

  std::vector<ShardClock> clocks(shards);
  std::vector<core::ShardResult> results(shards);
  std::vector<analysis::PartialTables> tables(shards);
  const auto run_shard = [&](std::uint32_t id) {
    ShardClock& clock = clocks[id];
    clock.construct_begin = Clock::now();
    auto ctx = std::make_unique<core::ShardContext>(
        spec, net_config, plan, id, shards, scan_config, obs_config,
        /*beacon=*/nullptr, /*streaming=*/false, /*retain_r2=*/false);
    core::SimulatedInternet& internet = ctx->internet();
    analysis::StreamingAnalyzer analyzer(internet.scheme(), internet.threats(),
                                         internet.geo(), internet.orgs());
    TimedSink timed(analyzer, clock);
    if (o.trace) {
      ctx->scanner().set_r2_sink(&timed);
      ctx->scanner().set_rotate_callback(
          [&internet, &clock](std::uint32_t cluster) {
            const Clock::time_point t0 = Clock::now();
            internet.auth().load_cluster(cluster);
            clock.load_cluster_busy += Clock::now() - t0;
            ++clock.load_cluster_calls;
          });
    } else {
      ctx->scanner().set_r2_sink(&analyzer);
    }
    clock.construct_end = Clock::now();
    results[id] = ctx->run();
    clock.run_end = Clock::now();
    tables[id] = std::move(analyzer.tables());
    ctx.reset();
    clock.teardown_end = Clock::now();
  };
  if (shards == 1) {
    run_shard(0);
  } else {
    std::vector<std::exception_ptr> errors(shards);
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      workers.emplace_back([&, i]() {
        try {
          run_shard(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }
  const Clock::time_point t_shards = Clock::now();

  // Merge in shard order, as run_measurement does.
  prober::ScanStats scan = results[0].scan;
  authns::AuthStats auth = results[0].auth;
  std::uint64_t events = results[0].events_executed;
  net::CaptureStore capture = std::move(results[0].capture);
  obs::Metrics metrics = std::move(results[0].metrics);
  analysis::PartialTables merged = std::move(tables[0]);
  for (std::uint32_t i = 1; i < shards; ++i) {
    scan += results[i].scan;
    auth += results[i].auth;
    events += results[i].events_executed;
    capture.merge(std::move(results[i].capture));
    metrics += results[i].metrics;
    merged += tables[i];
  }
  capture.sort_canonical();
  const Clock::time_point t_merge = Clock::now();

  const core::IntelBundle intel =
      core::build_intel(spec, plan, core::measurement_auth_address());
  const analysis::ScanAnalysis analysis =
      merged.finalize(intel.orgs, intel.threats);
  const Clock::time_point t_end = Clock::now();
  // Peak RSS is the campaign's. The yardstick runs after the campaign
  // rather than before it: a fresh process runs it slower.
  const std::uint64_t rss_kb = peak_rss_kb();
  const double yardstick_s = yardstick(shards);

  // Phase walls. With several shards the phases overlap across threads, so
  // each per-shard phase is reported for the slowest shard.
  double construct_max = 0, run_max = 0, run_sum = 0, teardown_max = 0;
  std::uint64_t r2_calls = 0, load_calls = 0;
  double r2_busy = 0, load_busy = 0;
  for (const ShardClock& c : clocks) {
    construct_max = std::max(construct_max, seconds(c.construct_end - c.construct_begin));
    run_max = std::max(run_max, seconds(c.run_end - c.construct_end));
    run_sum += seconds(c.run_end - c.construct_end);
    teardown_max = std::max(teardown_max, seconds(c.teardown_end - c.run_end));
    r2_calls += c.on_r2_calls;
    r2_busy += seconds(c.on_r2_busy);
    load_calls += c.load_cluster_calls;
    load_busy += seconds(c.load_cluster_busy);
  }
  const double population_s = seconds(t_population - t_begin);
  const double plan_s = seconds(t_plan - t_population);

  JsonObject phase;
  phase.num("campaign_s", seconds(t_end - t_begin))
      .num("setup_s", population_s + plan_s + construct_max)
      .num("population_s", population_s)
      .num("plan_s", plan_s)
      .num("instantiate_s", construct_max)
      .num("scan_s", run_max)
      .num("scan_busy_s", run_sum)
      .num("shard_skew", run_max / (run_sum / shards))
      .num("teardown_s", teardown_max)
      .num("merge_s", seconds(t_merge - t_shards))
      .num("finalize_s", seconds(t_end - t_merge));

  JsonObject layer;
  layer.num("on_r2_calls", r2_calls)
      .num("on_r2_s", r2_busy)
      .num("load_cluster_calls", load_calls)
      .num("load_cluster_s", load_busy)
      .num("table_bytes", static_cast<std::uint64_t>(merged.footprint_bytes()))
      .num("r2_classified", merged.r2_total);

  JsonObject out;
  out.str("mode", "composed")
      .num("run_id", o.run_id)
      .num("year", static_cast<std::uint64_t>(o.year))
      .num("scale", o.scale)
      .num("threads", static_cast<std::uint64_t>(shards))
      .num("seed", o.seed)
      .num("raw_steps", spec.raw_steps)
      .num("planted", static_cast<std::uint64_t>(spec.hosts.size()))
      .num("events", events)
      .num("q2_received", auth.queries_received)
      .str("digest", hex64(merged.digest))
      .raw("phase", phase.dump())
      .raw("layer", layer.dump())
      .raw("scan", scan_json(scan))
      .raw("metrics", metrics_json(metrics))
      .num("peak_rss_kb", rss_kb)
      .num("yardstick_s", yardstick_s);

  if (o.trace) {
    SpanLog spans(t_begin);
    const int root = spans.add("campaign", t_begin, t_end, -1);
    spans.add("population", t_begin, t_population, root);
    spans.add("plan", t_population, t_plan, root);
    const int shard_phase = spans.add("shards", t_plan, t_shards, root);
    for (std::uint32_t i = 0; i < shards; ++i) {
      const ShardClock& c = clocks[i];
      const std::string prefix = "shard" + std::to_string(i) + ".";
      spans.add(prefix + "construct", c.construct_begin, c.construct_end, shard_phase);
      spans.add(prefix + "run", c.construct_end, c.run_end, shard_phase);
      spans.add(prefix + "teardown", c.run_end, c.teardown_end, shard_phase);
    }
    spans.add("merge", t_shards, t_merge, root);
    spans.add("finalize", t_merge, t_end, root);
    std::string per_shard = "[";
    for (std::uint32_t i = 0; i < shards; ++i) {
      const ShardClock& c = clocks[i];
      per_shard += i == 0 ? "" : ", ";
      per_shard += JsonObject()
                       .num("shard", static_cast<std::uint64_t>(i))
                       .num("on_r2_calls", c.on_r2_calls)
                       .num("on_r2_s", seconds(c.on_r2_busy))
                       .num("load_cluster_calls", c.load_cluster_calls)
                       .num("load_cluster_s", seconds(c.load_cluster_busy))
                       .dump();
    }
    out.raw("spans", spans.json(o.run_id)).raw("shard_layers", per_shard + "]");
  }
  out.str("tables", rendered_tables(analysis));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---- Reference: core::run_measurement as is -------------------------------

int run_reference(const Options& o) {
  core::PipelineConfig cfg;
  cfg.scale = o.scale;
  cfg.seed = o.seed;
  cfg.threads = o.threads;
  cfg.udp_limit = o.udp_limit;
  cfg.tcp_fallback = o.tcp;
  const Clock::time_point t0 = Clock::now();
  const core::ScanOutcome outcome = core::run_measurement(paper_year(o.year), cfg);
  const Clock::time_point t1 = Clock::now();

  JsonObject out;
  out.str("mode", "reference")
      .num("year", static_cast<std::uint64_t>(o.year))
      .num("scale", o.scale)
      .num("threads", static_cast<std::uint64_t>(outcome.threads_used))
      .num("seed", o.seed)
      .num("raw_steps", outcome.spec.raw_steps)
      .num("planted", static_cast<std::uint64_t>(outcome.spec.hosts.size()))
      .num("events", outcome.events_executed)
      .num("q2_received", outcome.auth.queries_received)
      .str("digest", hex64(outcome.capture_digest))
      .raw("phase", JsonObject().num("campaign_s", seconds(t1 - t0)).dump())
      .raw("scan", scan_json(outcome.scan))
      .num("peak_rss_kb", peak_rss_kb())
      .str("tables", rendered_tables(outcome.analysis));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return o.reference ? run_reference(o) : run_composed(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
