// causumx — command-line front end for the library.
//
// Runs the full pipeline on any CSV:
//
//   causumx --csv data.csv --group-by Country --avg Salary
//           [--dag graph.txt | --discover pc|fci|lingam|nodag]
//           [--k 5] [--theta 0.75] [--support 0.1] [--alpha 0.05]
//           [--where "Attr=value"] [--json] [--top-treatments N]
//           [--stats] [--append rows.csv] [--threads N] [--budget-mb N]
//
// The query runs through an ExplanationService, like every other mode:
// the CSV registers as the "default" table, Explain mines and selects,
// and --top-treatments drills down through the same mined candidates.
// --threads N sizes the service's worker pool (0 = one worker per
// hardware thread); the table is split into one row shard per worker.
// Results are bit-identical for every value; only the speed changes.
//
// --append demonstrates streaming ingestion: the query runs on data.csv,
// the rows of rows.csv (same schema, matched by header name) are
// appended through the service's delta-aware caches, and the query runs
// again — the second run extends cached bitsets and reuses CATE memos
// instead of rebuilding them. Both summaries print (two JSONL lines
// under --json).
//
// Batch mode serves many queries through one ExplanationService, so
// repeated queries share the warm predicate-bitset and CATE caches:
//
//   causumx --batch queries.jsonl [--csv data.csv]
//           [--budget-mb N] [--threads N] [--stats]
//
// Each line of queries.jsonl is one JSON request (see service/batch.h);
// results stream to stdout as JSONL in input order. --csv registers the
// file as the "default" table; requests may also name their own "csv".
// --budget-mb bounds the evictable cache bytes via LRU eviction.
//
// --stats prints the cache counters (interned predicates, built and
// extended bitsets, estimator memo and mined-candidate hits/misses) and
// the phase timings after the summary.
//
// Count values (--threads, --top-treatments, --budget-mb, --port, ...)
// must be decimal integers in range; anything else exits 2.
//
// Serve mode runs the embedded HTTP server (src/server/) over one
// long-lived ExplanationService, so a fleet of clients shares the warm
// caches over REST (see docs/API.md for the endpoints):
//
//   causumx serve --port 8080 [--host 0.0.0.0] [--csv data.csv]
//                 [--table NAME] [--threads N]
//                 [--budget-mb N] [--max-body-mb N] [--queue N]
//                 [--data-dir DIR]
//
// The process listens until SIGINT/SIGTERM, then drains in-flight
// requests and exits 0.
//
// --data-dir DIR (created if missing) enables durable snapshots: tables
// restore warm from DIR on startup (a snapshot of other rows, or a
// stale or damaged one, is ignored and replaced), every append writes a
// fresh crash-safe snapshot, and a clean shutdown persists all tables,
// then checkpoints the monitors (restored by replaying their tables).
//
// Snapshot mode writes a durable snapshot of a CSV without serving:
//
//   causumx snapshot --csv data.csv --data-dir DIR [--table NAME]
//                    [--threads N]
//
// Monitor mode replays a CSV through the windowed continuous-monitoring
// subsystem (src/stream/) and prints the monitor's drift/summary events
// as JSON lines on stdout:
//
//   causumx monitor --spec spec.json --replay data.csv
//                   [--seed-rows N] [--batch-rows M] [--table NAME]
//                   [--threads N] [--data-dir DIR]
//
// The first --seed-rows rows register as the table (default 0: an
// empty table carrying just the CSV's schema); the remainder streams
// through the service in --batch-rows appends (default 1), the monitor
// re-evaluating at every window boundary. --data-dir writes the table
// snapshots, then a monitor checkpoint (stream position, caches and
// events, no rows) that `causumx serve --data-dir DIR` resumes.
//
// Without --dag/--discover, the No-DAG strawman is used (and a warning
// printed): supply domain knowledge for trustworthy effects.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/json_export.h"
#include "core/renderer.h"
#include "dataset/csv.h"
#include "server/http_server.h"
#include "server/rest_api.h"
#include "service/batch.h"
#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "storage/file_io.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/string_utils.h"

using namespace causumx;

namespace {

// Every command-line setting; each mode reads the ones its flags set.
struct CliOptions {
  std::string csv_path;
  /// serve/snapshot: the CSV's registry name ("default" when unset);
  /// monitor: overrides the spec's "table".
  std::string table_name;
  std::string data_dir;
  // Explain and batch modes: the explain flags' request fields (for
  // ExplainSpec::FromText) and the output switches.
  std::map<std::string, std::string> spec_fields;
  bool json = false;
  size_t top_treatments = 0;
  bool stats = false;
  std::string append_path;
  std::string batch_path;
  // Serve mode.
  uint16_t port = 8080;
  std::string host = "127.0.0.1";
  size_t max_body_mb = 8;
  size_t queue = 0;
  // Monitor mode.
  std::string spec_path;
  std::string replay_path;
  size_t seed_rows = 0;
  size_t batch_rows = 1;
  // Operator settings.
  size_t threads = 0;
  size_t budget_mb = 0;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: causumx --csv FILE --group-by A[,B] --avg Y\n"
               "               [--dag FILE | --discover pc|fci|lingam|nodag]\n"
               "               [--k N] [--theta F] [--support F] [--alpha F]\n"
               "               [--where \"Attr=value\"] [--json]\n"
               "               [--top-treatments N] [--stats]\n"
               "               [--append rows.csv] [--threads N]\n"
               "               [--budget-mb N]\n"
               "   or: causumx --batch FILE.jsonl [--csv FILE]\n"
               "               [--budget-mb N] [--threads N] [--stats]\n"
               "   or: causumx serve [--port N] [--host ADDR] [--csv FILE]\n"
               "               [--table NAME] [--threads N]\n"
               "               [--budget-mb N] [--max-body-mb N] [--queue N]\n"
               "               [--data-dir DIR]\n"
               "   or: causumx snapshot --csv FILE --data-dir DIR\n"
               "               [--table NAME] [--threads N]\n"
               "   or: causumx monitor --spec FILE --replay FILE.csv\n"
               "               [--seed-rows N] [--batch-rows M]\n"
               "               [--table NAME] [--threads N] [--data-dir DIR]\n"
               "see docs/CLI.md for the full reference\n");
}

// One command-line flag: the modes accepting it ('e' explain/batch,
// 's' serve/snapshot, 'm' monitor) and what its value sets (null for a
// switch, which takes none).
struct Flag {
  const char* name;
  const char* modes;
  std::function<void(CliOptions*, const char*)> set;
  bool is_switch = false;
};

// A flag's value as a count in [0, max]: decimal digits only, so "-1",
// "4x" and "" fail (naming the flag) instead of wrapping or reading 0.
size_t Count(const char* flag, const char* v,
             size_t max = std::numeric_limits<size_t>::max()) {
  size_t n = 0;
  bool ok = *v != '\0';
  for (const char* c = v; ok && *c != '\0'; ++c) {
    const size_t digit = static_cast<size_t>(*c - '0');
    ok = *c >= '0' && *c <= '9' && n <= (max - digit) / 10;
    n = n * 10 + digit;
  }
  if (!ok) {
    throw std::invalid_argument(StrFormat(
        "%s expects an integer in [0, %zu], got '%s'", flag, max, v));
  }
  return n;
}

// Largest megabyte count whose byte count fits a size_t.
constexpr size_t kMaxMegabytes = std::numeric_limits<size_t>::max() >> 20;

// A flag whose value is a Count stored in `field`.
Flag CountFlag(const char* name, const char* modes,
               size_t CliOptions::*field,
               size_t max = std::numeric_limits<size_t>::max()) {
  return {name, modes, [name, field, max](CliOptions* o, const char* v) {
            o->*field = Count(name, v, max);
          }};
}

// An explain flag: its value is the text of request field `field`.
Flag SpecFlag(const char* name, const std::string& field) {
  return {name, "e", [field](CliOptions* o, const char* v) {
            o->spec_fields[field] = v;
          }};
}

const std::vector<Flag>& Flags() {
  static const std::vector<Flag> kFlags = {
      {"--csv", "es", [](CliOptions* o, const char* v) { o->csv_path = v; }},
      {"--table", "sm",
       [](CliOptions* o, const char* v) { o->table_name = v; }},
      {"--data-dir", "sm",
       [](CliOptions* o, const char* v) { o->data_dir = v; }},
      SpecFlag("--group-by", "group_by"),
      SpecFlag("--avg", "avg"),
      SpecFlag("--where", "where"),
      SpecFlag("--dag", "dag"),
      SpecFlag("--discover", "discover"),
      SpecFlag("--k", "k"),
      SpecFlag("--theta", "theta"),
      SpecFlag("--support", "support"),
      SpecFlag("--alpha", "alpha"),
      {"--json", "e", [](CliOptions* o, const char*) { o->json = true; }, true},
      {"--stats", "e", [](CliOptions* o, const char*) { o->stats = true; },
       true},
      CountFlag("--top-treatments", "e", &CliOptions::top_treatments),
      {"--append", "e",
       [](CliOptions* o, const char* v) { o->append_path = v; }},
      {"--batch", "e", [](CliOptions* o, const char* v) { o->batch_path = v; }},
      {"--port", "s",
       [](CliOptions* o, const char* v) {
         o->port = static_cast<uint16_t>(
             Count("--port", v, std::numeric_limits<uint16_t>::max()));
       }},
      {"--host", "s", [](CliOptions* o, const char* v) { o->host = v; }},
      CountFlag("--max-body-mb", "s", &CliOptions::max_body_mb,
                kMaxMegabytes),
      CountFlag("--queue", "s", &CliOptions::queue),
      {"--spec", "m", [](CliOptions* o, const char* v) { o->spec_path = v; }},
      {"--replay", "m",
       [](CliOptions* o, const char* v) { o->replay_path = v; }},
      CountFlag("--seed-rows", "m", &CliOptions::seed_rows),
      CountFlag("--batch-rows", "m", &CliOptions::batch_rows),
      CountFlag("--threads", "esm", &CliOptions::threads),
      CountFlag("--budget-mb", "es", &CliOptions::budget_mb, kMaxMegabytes),
  };
  return kFlags;
}

// Applies argv[first, argc) to `opt` for `mode` (see Flag) and checks
// that mode's required flags. Returns false, after saying why, on
// --help, an unknown flag, or a missing value.
bool ParseArgs(int argc, char** argv, int first, char mode,
               CliOptions* opt) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    }
    const auto flag = std::find_if(
        Flags().begin(), Flags().end(), [&](const Flag& f) {
          return arg == f.name && std::strchr(f.modes, mode) != nullptr;
        });
    if (flag == Flags().end()) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!flag->is_switch && i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    flag->set(opt, flag->is_switch ? nullptr : argv[++i]);
  }
  if (mode == 's' && opt->table_name.empty()) opt->table_name = "default";
  if (mode == 'm' && (opt->spec_path.empty() || opt->replay_path.empty())) {
    std::fprintf(stderr,
                 "monitor mode requires --spec FILE and --replay FILE.csv\n");
    return false;
  }
  if (mode == 'm' && opt->batch_rows == 0) opt->batch_rows = 1;
  if (mode == 'e' && opt->batch_path.empty() &&
      (opt->csv_path.empty() || opt->spec_fields.empty())) {
    PrintUsage();
    return false;
  }
  return true;
}

// The service the operator settings describe.
ServiceOptions MakeServiceOptions(const CliOptions& opt) {
  ServiceOptions options;
  options.memory_budget_bytes = opt.budget_mb * (1 << 20);
  options.num_threads = opt.threads;
  options.data_dir = opt.data_dir;
  return options;
}

// ---- serve mode ------------------------------------------------------------

// Self-pipe for signal-driven shutdown: the handler only writes a byte
// (async-signal-safe); the main thread blocks on the read end and runs
// the orderly Stop.
int g_shutdown_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int RunServeMode(const CliOptions& opt) {
  ExplanationService service(MakeServiceOptions(opt));

  if (!opt.csv_path.empty()) {
    // With --data-dir, the caches restore warm from a snapshot of the
    // same rows.
    const auto table =
        service.RegisterTable(opt.table_name, ReadCsvFile(opt.csv_path));
    std::fprintf(stderr, "loaded %zu rows x %zu columns from %s as \"%s\"\n",
                 table->NumRows(), table->NumColumns(), opt.csv_path.c_str(),
                 opt.table_name.c_str());
  } else if (!opt.data_dir.empty()) {
    const size_t restored = service.RestoreAll();
    std::fprintf(stderr, "restored %zu table(s) from %s\n", restored,
                 opt.data_dir.c_str());
  }
  if (!opt.data_dir.empty()) {
    const ServiceStats s = service.Stats();
    if (s.snapshots_restored > 0 || s.snapshots_rejected > 0) {
      std::fprintf(stderr,
                   "snapshots: %llu warm restore(s), %llu rejected "
                   "(stale/damaged -> cold rebuild)\n",
                   (unsigned long long)s.snapshots_restored,
                   (unsigned long long)s.snapshots_rejected);
    }
  }

  // The windowed continuous-monitoring surface (src/stream/): monitors
  // registered over REST observe every append and re-evaluate at window
  // boundaries; with --data-dir they restore warm and catch up with
  // their tables before the first request can append.
  MonitorRegistry monitors(service);
  if (!opt.data_dir.empty()) {
    const size_t restored_monitors = monitors.RestoreMonitors();
    const uint64_t skipped = monitors.Stats().skipped_on_restore;
    if (restored_monitors + skipped > 0) {
      std::fprintf(stderr, "monitors: %zu restored, %llu skipped\n",
                   restored_monitors, (unsigned long long)skipped);
    }
  }

  RestApiOptions api_options;
  api_options.default_table = opt.table_name;

  HttpServerOptions server_options;
  server_options.port = opt.port;
  server_options.bind_address = opt.host;
  server_options.num_threads = opt.threads;
  server_options.max_queue = opt.queue;
  server_options.max_body_bytes = opt.max_body_mb * (1 << 20);

  // Shutdown plumbing goes in before the first request can arrive, so a
  // SIGTERM racing the startup still drains instead of killing us.
  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "error: cannot create shutdown pipe\n");
    return 2;
  }
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);

  HttpServer server(MakeRestHandler(service, monitors, api_options),
                    server_options);
  server.Start();
  std::fprintf(stderr,
               "causumx serving on http://%s:%u/ (%zu workers, queue %zu, "
               "max body %zu MB)\n",
               opt.host.c_str(), unsigned{server.port()},
               server.options().num_threads, server.options().max_queue,
               opt.max_body_mb);

  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "shutting down (draining in-flight requests)...\n");
  server.Stop();

  if (!opt.data_dir.empty()) {
    // Persist every table on clean shutdown so the next start is warm.
    // In-flight work has drained, so the snapshots capture final state.
    try {
      const size_t written = service.SaveAllSnapshots();
      monitors.SaveSnapshot();
      std::fprintf(stderr, "wrote %zu snapshot(s) to %s\n", written,
                   opt.data_dir.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: snapshot write failed: %s\n", e.what());
    }
  }

  const HttpServerCounters c = server.counters();
  const ServiceStats s = service.Stats();
  std::fprintf(stderr,
               "served %llu requests on %llu connections "
               "(%llu rejected 503, %llu parse errors); "
               "%llu queries, %llu appends\n",
               (unsigned long long)c.requests_handled,
               (unsigned long long)c.connections_accepted,
               (unsigned long long)c.requests_rejected,
               (unsigned long long)c.parse_errors,
               (unsigned long long)s.queries_executed,
               (unsigned long long)s.appends_executed);
  return 0;
}

// ---- monitor mode ----------------------------------------------------------

// Re-serializes a parsed JSON value (used to rewrite the monitor spec's
// "table" binding when --table overrides it).
void DumpJson(const JsonValue& v, JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      w.Null();
      break;
    case JsonValue::Kind::kBool:
      w.Bool(v.AsBool());
      break;
    case JsonValue::Kind::kNumber:
      w.Double(v.AsNumber());
      break;
    case JsonValue::Kind::kString:
      w.String(v.AsString());
      break;
    case JsonValue::Kind::kArray:
      w.BeginArray();
      for (const JsonValue& item : v.AsArray()) DumpJson(item, w);
      w.EndArray();
      break;
    case JsonValue::Kind::kObject:
      w.BeginObject();
      for (const auto& [key, value] : v.AsObject()) {
        w.Key(key);
        DumpJson(value, w);
      }
      w.EndObject();
      break;
  }
}

int RunMonitorMode(const CliOptions& opt) {
  std::string spec_json = ReadFileBytes(opt.spec_path);
  const std::string table_name =
      !opt.table_name.empty()
          ? opt.table_name
          : JsonValue::Parse(spec_json).GetString("table");
  if (table_name.empty()) {
    std::fprintf(stderr,
                 "monitor spec names no \"table\" and no --table given\n");
    return 2;
  }
  if (!opt.table_name.empty()) {
    // Rewrite the spec's table binding so one spec file replays against
    // any table name.
    const JsonValue spec = JsonValue::Parse(spec_json);
    JsonWriter w;
    w.BeginObject().Key("table").String(table_name);
    for (const auto& [key, value] : spec.AsObject()) {
      if (key != "table") {
        w.Key(key);
        DumpJson(value, w);
      }
    }
    w.EndObject();
    spec_json = w.str();
  }

  ExplanationService service(MakeServiceOptions(opt));
  MonitorRegistry monitors(service);

  const Table full = ReadCsvFile(opt.replay_path);
  const size_t seed = std::min(opt.seed_rows, full.NumRows());
  service.RegisterTable(table_name, full.Head(seed));
  std::fprintf(stderr,
               "replay: %zu rows from %s (%zu seed the table, %zu stream)\n",
               full.NumRows(), opt.replay_path.c_str(), seed,
               full.NumRows() - seed);

  const auto monitor = monitors.Create(spec_json);
  uint64_t printed_seq = 0;
  auto drain_events = [&]() {
    for (const MonitorEvent& e : monitor->EventsSince(printed_seq)) {
      std::cout << e.json << "\n";
      printed_seq = e.seq;
    }
  };

  for (size_t begin = seed; begin < full.NumRows();
       begin += opt.batch_rows) {
    const size_t end = std::min(begin + opt.batch_rows, full.NumRows());
    // The append observer delivers these rows to the monitor
    // synchronously, so events are ready as soon as Append returns.
    service.Append(table_name, full.MaterializeRows(begin, end));
    drain_events();
  }
  drain_events();

  if (!opt.data_dir.empty()) {
    // Tables first, as in serve mode: a crash in between leaves the
    // checkpoint behind the tables, which restore catches up.
    try {
      service.SaveAllSnapshots();
      const size_t bytes = monitors.SaveSnapshot();
      std::fprintf(stderr, "monitor snapshot: %zu bytes -> %s\n", bytes,
                   opt.data_dir.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: snapshot write failed: %s\n", e.what());
    }
  }

  const MonitorStatus status = monitor->Status();
  std::fprintf(stderr,
               "monitor %s: %llu rows observed, %llu windows evaluated, "
               "%llu events\n",
               status.id.c_str(), (unsigned long long)status.rows_observed,
               (unsigned long long)status.windows_evaluated,
               (unsigned long long)status.last_seq);
  return 0;
}

// ---- snapshot mode ---------------------------------------------------------

// `causumx snapshot` accepts the serve-mode flags (csv/table/threads/
// data-dir); the serve-only ones are ignored.
int RunSnapshotMode(const CliOptions& opt) {
  if (opt.csv_path.empty() || opt.data_dir.empty()) {
    std::fprintf(stderr,
                 "snapshot mode requires --csv FILE and --data-dir DIR\n");
    return 2;
  }
  ExplanationService service(MakeServiceOptions(opt));
  // Registering warm-restores from a snapshot of the same rows, so
  // re-snapshotting unchanged data preserves the warm caches instead of
  // flattening them to a cold table image.
  const auto table =
      service.RegisterTable(opt.table_name, ReadCsvFile(opt.csv_path));
  const size_t bytes = service.SaveSnapshot(opt.table_name);
  std::fprintf(stderr,
               "snapshot: %zu rows x %zu columns as \"%s\" -> %s (%zu "
               "bytes)\n",
               table->NumRows(), table->NumColumns(), opt.table_name.c_str(),
               service.SnapshotPath(opt.table_name).c_str(), bytes);
  return 0;
}

int RunBatchMode(const CliOptions& opt) {
  ExplanationService service(MakeServiceOptions(opt));
  if (!opt.csv_path.empty()) {
    const auto table =
        service.RegisterTable("default", ReadCsvFile(opt.csv_path));
    std::fprintf(stderr, "loaded %zu rows x %zu columns from %s\n",
                 table->NumRows(), table->NumColumns(),
                 opt.csv_path.c_str());
  }
  BatchOptions batch_options;
  batch_options.emit_cache_stats = opt.stats;
  const BatchSummary summary =
      RunBatchFile(service, opt.batch_path, std::cout, batch_options);
  std::fprintf(stderr, "batch: %zu requests, %zu ok, %zu failed",
               summary.requests, summary.succeeded, summary.failed);
  if (service.options().memory_budget_bytes > 0) {
    std::fprintf(stderr, ", cache %zu / %zu bytes", service.CacheBytes(),
                 service.options().memory_budget_bytes);
  }
  std::fprintf(stderr, "\n");
  return summary.failed == 0 ? 0 : 1;
}

// Prints the --stats block: the cache counters of the table's engine,
// of the query's CATE memo and of the service's mined candidates (all
// cumulative, drill-downs included), and the phases the last explain
// ran.
void PrintStats(ExplanationService& service, const BoundExplain& bound,
                const CauSumXResult& result) {
  const EvalEngineStats e = service.Engine("default")->Stats();
  const EstimatorCacheStats m =
      service.Context("default", bound.dag, bound.config.estimator)->Stats();
  const ServiceStats s = service.Stats();
  std::printf("\nengine cache stats:\n");
  std::printf("  atomic predicates interned    %llu\n",
              (unsigned long long)e.predicates_interned);
  std::printf("  predicate bitsets built       %llu (served %llu hits)\n",
              (unsigned long long)e.bitsets_materialized,
              (unsigned long long)e.bitset_hits);
  std::printf("  bitsets extended by append    %llu\n",
              (unsigned long long)e.bitsets_extended);
  std::printf("  pattern evals                 %llu\n",
              (unsigned long long)e.pattern_evals);
  std::printf("  column views built / extended %llu / %llu\n",
              (unsigned long long)e.column_views_built,
              (unsigned long long)e.column_views_extended);
  std::printf("  cache bytes (bitsets/views)   %zu / %zu\n", e.bitset_bytes,
              e.view_bytes);
  std::printf("  estimator memo hits/misses    %llu / %llu (%llu migrated)\n",
              (unsigned long long)m.memo_hits,
              (unsigned long long)m.memo_misses,
              (unsigned long long)m.memo_migrated);
  std::printf("  Gram blocks built / reused    %llu / %llu\n",
              (unsigned long long)m.gram_builds,
              (unsigned long long)m.gram_hits);
  std::printf("  mined candidates hits/misses  %llu / %llu\n",
              (unsigned long long)s.candidate_hits,
              (unsigned long long)s.candidate_misses);
  std::printf("  phase timings                 grouping %.3fs, "
              "treatment %.3fs, selection %.3fs\n",
              result.timings.Get("grouping"), result.timings.Get("treatment"),
              result.timings.Get("selection"));
}

// Explain mode: registers the CSV with a service, explains the query and
// renders the summary. With --append it then appends the delta CSV
// through the service's delta-aware caches, explains again and renders
// again. Returns 1 when the last summary is empty.
int RunExplainMode(const CliOptions& opt) {
  const ExplainSpec spec = ExplainSpec::FromText(opt.spec_fields);
  ExplanationService service(MakeServiceOptions(opt));
  const auto table =
      service.RegisterTable("default", ReadCsvFile(opt.csv_path));
  std::fprintf(stderr, "loaded %zu rows x %zu columns from %s\n",
               table->NumRows(), table->NumColumns(), opt.csv_path.c_str());

  const BoundExplain bound = spec.Bind(*table);
  if (!spec.dag.empty()) {
    std::fprintf(stderr, "dag: %zu nodes, %zu edges from %s\n",
                 bound.dag.NumNodes(), bound.dag.NumEdges(),
                 spec.dag.c_str());
  } else if (!spec.discover.empty()) {
    std::fprintf(stderr, "dag: discovered by %s — %zu edges\n",
                 spec.discover.c_str(), bound.dag.NumEdges());
  } else {
    std::fprintf(stderr,
                 "warning: no --dag/--discover given; using the No-DAG "
                 "strawman (all attributes -> outcome). Effects are\n"
                 "unadjusted for confounding — supply a DAG for "
                 "trustworthy estimates.\n");
  }

  const GroupByAvgQuery& query = bound.query;
  RenderStyle style;
  style.outcome_noun = query.avg_attribute;
  auto explain = [&](const std::string& heading) {
    CauSumXResult r =
        service.Explain("default", query, bound.dag, bound.config);
    if (opt.json) {
      std::cout << SummaryToJson(r.summary, &query) << "\n";
      return r;
    }
    std::cout << heading << RenderSummary(r.summary, style);
    if (opt.top_treatments > 0) {
      auto top = [&](TreatmentSign sign) {
        return RenderTreatmentList(
            service.TopTreatments("default", query, bound.dag, bound.config,
                                  Pattern(), sign, opt.top_treatments),
            style);
      };
      std::cout << "\nTop treatments over the full relation:\n"
                << "positive:\n" << top(TreatmentSign::kPositive)
                << "negative:\n" << top(TreatmentSign::kNegative);
    }
    return r;
  };

  CauSumXResult result;
  if (opt.append_path.empty()) {
    result = explain("\n" + query.ToSql(opt.csv_path) + "\n\n");
  } else {
    explain("\n== before append ==\n");
    const auto grown = service.AppendCsv("default", opt.append_path);
    std::fprintf(stderr,
                 "appended %zu rows from %s (%zu rows total, version %llu)\n",
                 grown->NumRows() - table->NumRows(), opt.append_path.c_str(),
                 grown->NumRows(), (unsigned long long)grown->version());
    result = explain("\n== after append ==\n");
  }
  if (opt.stats) PrintStats(service, bound, result);
  return result.summary.explanations.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    CliOptions opt;
    if (mode == "serve" || mode == "snapshot") {
      if (!ParseArgs(argc, argv, 2, 's', &opt)) return 2;
      return mode == "serve" ? RunServeMode(opt) : RunSnapshotMode(opt);
    }
    if (mode == "monitor") {
      if (!ParseArgs(argc, argv, 2, 'm', &opt)) return 2;
      return RunMonitorMode(opt);
    }
    if (!ParseArgs(argc, argv, 1, 'e', &opt)) return 2;
    if (!opt.batch_path.empty()) return RunBatchMode(opt);
    return RunExplainMode(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
