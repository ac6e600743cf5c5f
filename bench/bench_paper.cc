// Regenerates every table of the paper's evaluation as Markdown: Tables I,
// III, V and VI, the Section VII-C areas, Fig. 1's two series, Figs. 5-7,
// the remote latency at adaptive lambda=6 and the headline numbers.
//
//   ./bench_paper [scale]      # default 1.0; smaller = faster, same shapes
//
// Each of the seven workloads runs once under each of seven policies on the
// paper's shared bus: no compression, static FPC, BDI and C-Pack+Z, and
// adaptive lambda in {0, 6, 32}. The raw run is characterized and traced,
// and it is the base of every ratio. EXPERIMENTS.md carries the scale-1.0
// output verbatim; tools/check_experiments.py fails on any table that
// differs from it.
#include <algorithm>
#include <array>

#include "analysis/report.h"
#include "bench_common.h"
#include "compression/codec_set.h"
#include "compression/cost_model.h"

namespace {

using namespace mgcomp;

constexpr std::size_t kTraceSamples = 2000;
constexpr std::size_t kFig1Buckets = 8;
constexpr std::size_t kSparkChars = 100;
constexpr std::array kCodecs = {CodecId::kFpc, CodecId::kBdi, CodecId::kCpackZ};

// Columns of Figs. 5-7, in order; the raw run precedes them in every row.
std::vector<bench::PolicyCase> compressed_policies() {
  std::vector<bench::PolicyCase> v;
  for (const CodecId id : kCodecs) {
    v.push_back({std::string(codec_name(id)), make_static_policy(id)});
  }
  for (const double lambda : {0.0, 6.0, 32.0}) {
    v.push_back({"Adaptive l=" + fmt(lambda, 0),
                 make_adaptive_policy(AdaptiveParams{.lambda = lambda})});
  }
  return v;
}
constexpr std::size_t kAdaptive6 = 4;  // index of lambda=6 in compressed_policies()

// One captioned table; tools/check_experiments.py finds it in
// EXPERIMENTS.md by the caption line.
void print_table(const std::string& name, const std::string& what, const MarkdownTable& t) {
  std::printf("**%s**: %s\n\n%s\n", name.c_str(), what.c_str(), t.to_string().c_str());
}

const char* support_str(Support s) {
  switch (s) {
    case Support::kYes: return "yes";
    case Support::kPartial: return "partial";
    case Support::kNo: return "no";
  }
  return "?";
}

void print_cost_model_tables() {
  CodecSet set;
  MarkdownTable t1({"Data pattern", "FPC", "BDI", "C-Pack+Z"});
  const auto row = [&](const char* pattern, Support PatternSupport::*field) {
    std::vector<std::string> cells = {pattern};
    for (const CodecId id : kCodecs) cells.push_back(support_str(set.get(id).support().*field));
    t1.add_row(std::move(cells));
  };
  row("Zero word/block", &PatternSupport::zero);
  row("Repeated word", &PatternSupport::repeated);
  row("Narrow word", &PatternSupport::narrow);
  row("Low dynamic range", &PatternSupport::low_dynamic_range);
  row("Spatial similarity", &PatternSupport::spatial_similarity);
  print_table("Table I", "supported data patterns by compression algorithm", t1);

  MarkdownTable t3({"Scheme", "Lc (cyc)", "Ld (cyc)", "Area (um2)", "Pc (mW)", "Pd (mW)",
                    "E (pJ)"});
  for (const CodecId id : kCodecs) {
    const CodecCost c = codec_cost(id);
    t3.add_row({std::string(codec_name(id)), std::to_string(c.compress_cycles),
                std::to_string(c.decompress_cycles), fmt(c.area_um2, 0),
                fmt(c.compressor_power_mw, 1), fmt(c.decompressor_power_mw, 1),
                fmt(c.total_energy_pj(), 1)});
  }
  print_table("Table III", "cost and overhead (7nm, 1 GHz)", t3);

  MarkdownTable area({"Scheme", "Area overhead (%)"});
  for (const CodecId id : {CodecId::kBdi, CodecId::kCpackZ, CodecId::kFpc}) {
    char cell[32];
    std::snprintf(cell, sizeof cell, "%.3e", area_overhead_fraction(id) * 100.0);
    area.add_row({std::string(codec_name(id)), cell});
  }
  print_table("Section VII-C", "area overhead vs a 37.25 mm^2 7nm GPU die", area);
}

void print_table5(const std::vector<RunResult>& raw) {
  // The paper's Table V (4 R9-Nano GPUs, full-size inputs), in workload order:
  // reads (K), writes (K), entropy, BDI, FPC, C-Pack+Z.
  static constexpr double kPaper[7][6] = {
      {3522, 49, 0.96, 1.00, 1.03, 1.04},   {1336, 1321, 0.02, 9.60, 31.68, 37.10},
      {1945, 98, 0.50, 2.41, 1.00, 1.73},   {990, 198, 0.46, 1.26, 1.38, 1.20},
      {4129, 203, 0.11, 1.37, 5.63, 7.79},  {3146, 3146, 0.29, 2.84, 3.10, 2.69},
      {5464, 49, 0.49, 2.69, 1.03, 1.82}};
  const auto cell = [](double ours, int digits, double paper, int paper_digits) {
    return fmt(ours, digits) + " (" + fmt(paper, paper_digits) + ")";
  };
  MarkdownTable t({"Bench", "Read (K)", "Write (K)", "Entropy", "BDI", "FPC", "C-Pack+Z"});
  for (std::size_t w = 0; w < raw.size(); ++w) {
    const RunResult& r = raw[w];
    const double* p = kPaper[w];
    t.add_row({r.workload, cell(static_cast<double>(r.remote_reads()) / 1e3, 1, p[0], 0),
               cell(static_cast<double>(r.remote_writes()) / 1e3, 1, p[1], 0),
               cell(r.characterization.entropy.normalized(), 2, p[2], 2),
               cell(r.characterization.ratio(CodecId::kBdi), 2, p[3], 2),
               cell(r.characterization.ratio(CodecId::kFpc), 2, p[4], 2),
               cell(r.characterization.ratio(CodecId::kCpackZ), 2, p[5], 2)});
  }
  print_table("Table V", "inter-GPU data characteristics, the paper's value in parentheses", t);
}

void print_table6(const std::vector<RunResult>& raw) {
  std::vector<std::string> header = {"Bench"};
  const std::array order = {CodecId::kFpc, CodecId::kCpackZ, CodecId::kBdi};
  for (const CodecId id : order) {
    for (const char* rank : {"1st", "2nd", "3rd"}) {
      header.push_back(std::string(codec_name(id)) + " " + rank);
    }
  }
  MarkdownTable t(std::move(header));
  for (const RunResult& r : raw) {
    std::vector<std::string> cells = {r.workload};
    for (const CodecId id : order) {
      const PatternStats& ps = r.characterization.patterns[static_cast<std::size_t>(id)];
      const double total = static_cast<double>(ps.total());
      std::vector<std::size_t> by_count;
      for (std::size_t p = 1; p <= kMaxPatternId; ++p) by_count.push_back(p);
      std::sort(by_count.begin(), by_count.end(),
                [&](std::size_t a, std::size_t b) { return ps.counts[a] > ps.counts[b]; });
      for (std::size_t rank = 0; rank < 3; ++rank) {
        const std::size_t p = by_count[rank];
        cells.push_back(ps.counts[p] == 0 || total == 0.0
                            ? "NA"
                            : "(" + std::to_string(p) + ") " +
                                  fmt(100.0 * static_cast<double>(ps.counts[p]) / total, 0) +
                                  "%");
      }
    }
    t.add_row(std::move(cells));
  }
  print_table("Table VI",
              "three most detected patterns per codec (Table II pattern number) and their "
              "share of detections",
              t);
}

// Fig. 1: mean compressed bits and entropy per bucket of transfers, next to
// a sparkline of 100 points scaled 0..1 line (0..512 bits) onto 8 levels.
void print_fig1(const RunResult& raw) {
  const std::vector<TraceSample>& trace = raw.trace;
  const auto mean = [&](std::size_t begin, std::size_t n, auto value_of) {
    double acc = 0.0;
    for (std::size_t i = begin; i < begin + n; ++i) acc += value_of(trace[i]);
    return acc / static_cast<double>(n);
  };
  const std::size_t bucket = std::max<std::size_t>(1, trace.size() / kFig1Buckets);
  const std::size_t spark = std::max<std::size_t>(1, trace.size() / kSparkChars);
  std::vector<std::string> header = {"Series"};
  for (std::size_t b = 0; b + bucket <= trace.size(); b += bucket) {
    header.push_back(std::to_string(b) + "-" + std::to_string(b + bucket - 1));
  }
  header.push_back("Sparkline");
  MarkdownTable t(std::move(header));
  const auto row = [&](const std::string& name, int digits, double full, auto value_of) {
    std::vector<std::string> cells = {name};
    for (std::size_t b = 0; b + bucket <= trace.size(); b += bucket) {
      cells.push_back(fmt(mean(b, bucket, value_of), digits));
    }
    std::string line;
    for (std::size_t b = 0; b + spark <= trace.size(); b += spark) {
      line += " .:-=+*#"[std::min(7, static_cast<int>(mean(b, spark, value_of) / full * 8.0))];
    }
    cells.push_back("`" + line + "`");
    t.add_row(std::move(cells));
  };
  for (const CodecId id : kCodecs) {
    row(std::string(codec_name(id)) + " (bits)", 0, static_cast<double>(kLineBits),
        [id](const TraceSample& s) {
          return static_cast<double>(s.size_bits[static_cast<std::size_t>(id)]);
        });
  }
  row("entropy", 3, 1.0, [](const TraceSample& s) { return s.entropy; });
  print_table("Fig. 1 (" + raw.workload + ")",
              "compressed size and entropy over the first " + std::to_string(trace.size()) +
                  " inter-GPU transfers, mean per bucket; the sparkline maps 0..512 bits "
                  "(entropy 0..1) onto 8 levels",
              t);
}

// A per-workload ratio over the raw run, under one table heading.
struct Column {
  std::string header;
  std::vector<double> ratios;  // one per workload
};

// One row per workload and a gmean row, one cell per column.
void print_figure(const std::string& name, const std::string& what,
                  const std::vector<RunResult>& raw, const std::vector<Column>& columns) {
  std::vector<std::string> header = {"Bench"};
  for (const Column& c : columns) header.push_back(c.header);
  MarkdownTable t(std::move(header));
  for (std::size_t w = 0; w <= raw.size(); ++w) {
    std::vector<std::string> cells = {w < raw.size() ? raw[w].workload : "gmean"};
    for (const Column& c : columns) {
      cells.push_back(fmt(w < raw.size() ? c.ratios[w] : bench::geomean(c.ratios)));
    }
    t.add_row(std::move(cells));
  }
  print_table(name, what + ", 1.0 = no compression", t);
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv, 1);
  const double scale = bench::parse_scale(argc, argv);
  const std::vector<bench::PolicyCase> policies = compressed_policies();

  std::printf("# Paper tables (scale %.2f)\n\n", scale);
  print_cost_model_tables();

  // [workload][policy] over compressed_policies(); raw[workload] is the base.
  std::vector<RunResult> raw;
  std::vector<std::vector<RunResult>> runs;
  for (const auto abbrev : workload_abbrevs()) {
    raw.push_back(bench::run(abbrev, scale, make_no_compression_policy(),
                             /*characterize=*/true, kTraceSamples));
    std::vector<RunResult>& row = runs.emplace_back();
    for (const bench::PolicyCase& pc : policies) {
      row.push_back(bench::run(abbrev, scale, pc.factory));
    }
  }

  print_table5(raw);
  print_table6(raw);
  for (const std::string_view abbrev : {"SC", "FIR"}) {
    print_fig1(*std::find_if(raw.begin(), raw.end(),
                             [&](const RunResult& r) { return r.workload == abbrev; }));
  }

  // Each run's traffic, time and energy over its workload's raw run, one
  // column per policy and metric.
  std::vector<Column> traffic, time, energy;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    traffic.push_back({policies[p].label + " traffic", {}});
    time.push_back({policies[p].label + " time", {}});
    energy.push_back({policies[p].label, {}});
    for (std::size_t w = 0; w < raw.size(); ++w) {
      const RunResult& r = runs[w][p];
      traffic[p].ratios.push_back(static_cast<double>(r.inter_gpu_traffic_bytes()) /
                                  static_cast<double>(raw[w].inter_gpu_traffic_bytes()));
      time[p].ratios.push_back(static_cast<double>(r.exec_ticks) /
                               static_cast<double>(raw[w].exec_ticks));
      energy[p].ratios.push_back(r.total_link_energy_pj() / raw[w].total_link_energy_pj());
    }
  }
  const auto traffic_and_time = [&](std::size_t first, std::size_t last) {
    std::vector<Column> columns;
    for (std::size_t p = first; p < last; ++p) {
      columns.push_back(traffic[p]);
      columns.push_back(time[p]);
    }
    return columns;
  };
  print_figure("Fig. 5", "normalized inter-GPU traffic and execution time, static codecs", raw,
               traffic_and_time(0, 3));
  print_figure("Fig. 6",
               "normalized inter-GPU traffic and execution time, adaptive scheme (7 sampled, "
               "300 running transfers)",
               raw, traffic_and_time(3, 6));
  print_figure("Fig. 7", "normalized energy of compressors plus fabric (MCM tier)", raw,
               energy);

  MarkdownTable lat({"Bench", "read p50", "read p95", "read p99", "read max", "write p50",
                     "write p95", "write p99"});
  for (const std::vector<RunResult>& row : runs) {
    const RunResult& r = row[kAdaptive6];
    lat.add_row({r.workload, fmt(r.remote_read_latency.percentile(0.50), 0),
                 fmt(r.remote_read_latency.percentile(0.95), 0),
                 fmt(r.remote_read_latency.percentile(0.99), 0),
                 std::to_string(r.remote_read_latency.max()),
                 fmt(r.remote_write_latency.percentile(0.50), 0),
                 fmt(r.remote_write_latency.percentile(0.95), 0),
                 fmt(r.remote_write_latency.percentile(0.99), 0)});
  }
  print_table("Latency", "remote completion latency at adaptive l=6 (cycles)", lat);

  const auto percent_cut = [](double ratio) { return fmt(100.0 * (1.0 - ratio), 1) + "%"; };
  const std::vector<double>& time6 = time[kAdaptive6].ratios;
  MarkdownTable headline({"Metric @ adaptive l=6", "This repo", "Paper"});
  headline.add_row({"mean traffic reduction",
                    percent_cut(bench::geomean(traffic[kAdaptive6].ratios)), "62%"});
  headline.add_row({"mean exec-time reduction", percent_cut(bench::geomean(time6)), "33%"});
  headline.add_row({"best-case exec-time reduction",
                    percent_cut(*std::min_element(time6.begin(), time6.end())), "53%"});
  headline.add_row({"mean link-energy reduction",
                    percent_cut(bench::geomean(energy[kAdaptive6].ratios)), "~45%"});
  print_table("Headline", "this repo against the paper", headline);
  return 0;
}
