// Shared bench harness helpers: paper reference data, table rendering, and
// the "run op across the six systems" loop.
#pragma once

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "util/table.hpp"
#include "workloads/configs.hpp"

namespace mercury::bench {

/// Telemetry export destinations, parsed from the command line before
/// google-benchmark sees it (benchmark::Initialize rejects unknown flags).
struct ObsOptions {
  std::string metrics_json;     // --metrics-json <path>: obs registry snapshot
  std::string trace_json;       // --trace-json <path>: Chrome trace_event file
  std::string timeseries_json;  // --timeseries-json <path>: sampled series
  std::string profile_json;     // --profile-json <path>: engine profile
  std::string pause_json;       // --pause-json <path>: mercury.pause.v1 ledger

  bool any() const {
    return !metrics_json.empty() || !trace_json.empty() ||
           !timeseries_json.empty() || !profile_json.empty() ||
           !pause_json.empty();
  }
};

/// Strip the telemetry export flags (`--metrics-json`, `--trace-json`,
/// `--timeseries-json`, `--profile-json`, `--pause-json`, space- or
/// `=`-joined) out of
/// argv. Call before benchmark::Initialize. When only --metrics-json is
/// given, the Chrome trace defaults to `<metrics-json>.trace.json` so one
/// flag yields both artifacts. A --profile-json flag also enables the
/// engine profiler for the whole run.
inline ObsOptions consume_obs_flags(int& argc, char** argv) {
  // Bench binaries honour $MERCURY_POSTMORTEM_DIR but default bundles to
  // the build tree (beside the binary), not the invoking directory.
  obs::default_postmortem_dir_beside_binary();
  ObsOptions opts;
  const auto match = [&](int& i, const char* flag, std::string& out) {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) != 0) return false;
    if (argv[i][n] == '=') {
      out = argv[i] + n + 1;
      return true;
    }
    if (argv[i][n] == '\0' && i + 1 < argc) {
      out = argv[++i];
      return true;
    }
    return false;
  };
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (match(i, "--metrics-json", opts.metrics_json) ||
        match(i, "--trace-json", opts.trace_json) ||
        match(i, "--timeseries-json", opts.timeseries_json) ||
        match(i, "--profile-json", opts.profile_json) ||
        match(i, "--pause-json", opts.pause_json))
      continue;
    argv[w++] = argv[i];
  }
  argc = w;
  argv[argc] = nullptr;
  if (!opts.metrics_json.empty() && opts.trace_json.empty())
    opts.trace_json = opts.metrics_json + ".trace.json";
  // First touch registers the obs.events.* gauges, so the ring's overflow
  // accounting is in every metrics artifact.
  if (opts.any()) obs::event_ring();
  if (!opts.profile_json.empty()) obs::profiler().set_enabled(true);
  return opts;
}

/// Dump the registry snapshot / trace ring to the paths in `opts`.
/// Call once, after the bench's workloads have run.
inline void write_obs_artifacts(const ObsOptions& opts) {
  if (!opts.metrics_json.empty()) {
    if (std::FILE* f = std::fopen(opts.metrics_json.c_str(), "w")) {
      const std::string json = obs::to_json(obs::snapshot());
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("metrics snapshot written to %s\n",
                  opts.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opts.metrics_json.c_str());
    }
  }
  if (!opts.trace_json.empty()) {
    if (obs::write_chrome_trace(opts.trace_json)) {
      std::printf("chrome trace written to %s (open via chrome://tracing)\n",
                  opts.trace_json.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opts.trace_json.c_str());
    }
  }
  if (!opts.profile_json.empty()) {
    if (obs::write_profile_json(opts.profile_json)) {
      std::printf("engine profile written to %s (mercury.profile.v1)\n",
                  opts.profile_json.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opts.profile_json.c_str());
    }
  }
  if (!opts.pause_json.empty()) {
    // The ambient ledger: benches that sweep cells under PauseLedgerScope
    // merge each cell's ledger back into the global so the artifact covers
    // the whole run.
    if (std::FILE* f = std::fopen(opts.pause_json.c_str(), "w")) {
      const std::string json = obs::pause_ledger().to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("pause ledger written to %s (mercury.pause.v1)\n",
                  opts.pause_json.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opts.pause_json.c_str());
    }
  }
}

using workloads::Sut;
using workloads::SutParams;
using workloads::SystemId;

/// Paper-scale parameters (DELL SC1420: 2x3GHz, 2GB; 900 000 KB per variant).
inline SutParams paper_params(std::size_t cpus) {
  SutParams p;
  p.cpus = cpus;
  return p;
}

/// Reduced-memory parameters for quick runs (mode-switch costs scale with
/// memory; everything else is unaffected).
inline SutParams quick_params(std::size_t cpus) {
  SutParams p;
  p.cpus = cpus;
  p.machine_mem_kb = 512 * 1024;
  p.kernel_mem_kb = 200 * 1024;
  p.domu_mem_kb = 160 * 1024;
  return p;
}

struct CellResults {
  // results[row_label][system] = value
  std::vector<std::string> row_labels;
  std::map<std::string, std::map<SystemId, double>> values;

  void set(const std::string& row, SystemId sys, double v) {
    if (values.find(row) == values.end()) row_labels.push_back(row);
    values[row][sys] = v;
  }
};

/// Render in the paper's layout: rows = operations, columns = systems.
inline std::string render_results(const CellResults& r, int decimals = 2) {
  util::Table t({"Config.", "N-L", "M-N", "X-0", "M-V", "X-U", "M-U"});
  for (const auto& row : r.row_labels) {
    std::vector<double> vals;
    for (const SystemId id : {SystemId::kNL, SystemId::kMN, SystemId::kX0,
                              SystemId::kMV, SystemId::kXU, SystemId::kMU}) {
      auto it = r.values.at(row).find(id);
      vals.push_back(it == r.values.at(row).end() ? 0.0 : it->second);
    }
    t.add_numeric_row(row, vals, decimals);
  }
  return t.render();
}

/// Paper reference values (for the side-by-side shape check printed by each
/// bench and recorded in EXPERIMENTS.md).
struct PaperRow {
  const char* label;
  double nl, mn, x0, mv, xu, mu;
};

inline const std::vector<PaperRow>& paper_table1() {
  static const std::vector<PaperRow> rows = {
      {"Fork Process", 98, 114, 482, 490, 470, 471},
      {"Exec Process", 372, 404, 1233, 1232, 1211, 1220},
      {"Sh Process", 1203, 1337, 2977, 2996, 2936, 2931},
      {"Ctx (2p/0k)", 1.64, 2.49, 5.10, 5.41, 5.04, 5.06},
      {"Ctx (16p/16k)", 2.73, 3.91, 6.76, 7.28, 6.54, 6.45},
      {"Ctx (16p/64k)", 10.30, 12.77, 15.73, 16.27, 15.77, 15.97},
      {"Mmap LT", 3724, 3995, 10579, 11800, 10867, 11067},
      {"Prot Fault", 0.61, 0.63, 0.97, 1.17, 1.04, 1.11},
      {"Page Fault", 1.22, 1.48, 3.09, 3.18, 3.03, 3.10},
  };
  return rows;
}

inline const std::vector<PaperRow>& paper_table2() {
  static const std::vector<PaperRow> rows = {
      {"Fork Process", 128, 148, 509, 523, 501, 501},
      {"Exec Process", 449, 501, 1353, 1386, 1335, 1349},
      {"Sh Process", 1444, 1585, 3359, 3435, 3222, 3319},
      {"Ctx (2p/0k)", 2.31, 3.07, 5.16, 5.61, 5.11, 5.14},
      {"Ctx (16p/16k)", 2.91, 4.15, 7.16, 7.27, 6.83, 7.02},
      {"Ctx (16p/64k)", 11.03, 12.40, 16.17, 16.77, 16.10, 16.60},
      {"Mmap LT", 5449, 5731, 12200, 13000, 12433, 12533},
      {"Prot Fault", 0.70, 0.74, 1.13, 1.20, 1.15, 1.18},
      {"Page Fault", 1.64, 1.89, 3.45, 3.67, 3.39, 3.46},
  };
  return rows;
}

inline std::string render_paper_reference(const std::vector<PaperRow>& rows) {
  util::Table t({"Config.", "N-L", "M-N", "X-0", "M-V", "X-U", "M-U"});
  for (const auto& r : rows)
    t.add_numeric_row(r.label, {r.nl, r.mn, r.x0, r.mv, r.xu, r.mu}, 2);
  return t.render();
}

}  // namespace mercury::bench
