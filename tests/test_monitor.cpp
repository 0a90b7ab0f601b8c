// Golden tests for the windowed continuous-monitoring subsystem
// (src/stream/): drift alerts on a stream with a planted effect shift
// (the alert fires at exactly the shifted window, with the planted
// delta in the payload, and never on a stationary stream), top-k churn
// alerts on a group-structure change, bounded resident bytes across
// window cycling (expiry must decrement the LRU byte accounting), the
// registry's observer wiring through ExplanationService appends, and
// the snapshot round trip (a restored monitor continues bit-identically
// to one that never stopped, catching up with table rows its checkpoint
// missed), the checkpoint's binding to the watched table, and the
// counted restore failures.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "causal/dag_io.h"
#include "datagen/synthetic.h"
#include "dataset/table.h"
#include "service/explanation_service.h"
#include "storage/bytes.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "stream/monitor.h"
#include "util/json.h"

namespace causumx {
namespace {

// A scratch directory removed (with its files) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/causumx_monitor_XXXXXX";
    path = ::mkdtemp(buf);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& f : ListDirFiles(path)) {
      ::unlink((path + "/" + f).c_str());
    }
    ::rmdir(path.c_str());
  }
};

// The LinearSCM monitor spec: one window per generated dataset, CATE
// drift threshold well below the planted effect shift but well above
// sampling noise at this row count. A nonzero `slide_rows` makes the
// window sliding; a `discover` algorithm replaces `dag`.
std::string ScmSpec(size_t window_rows, const CausalDag& dag,
                    double cate_delta, size_t slide_rows = 0,
                    const char* discover = nullptr) {
  JsonWriter w;
  w.BeginObject()
      .Key("table").String("t")
      .Key("group_by").BeginArray().String("G").EndArray()
      .Key("avg").String("O");
  if (discover != nullptr) {
    w.Key("discover").String(discover);
  } else {
    w.Key("dag_text").String(DagToText(dag));
  }
  w.Key("grouping_attrs").BeginArray().String("G").EndArray()
      .Key("treatment_attrs").BeginArray().String("T").EndArray()
      .Key("k").Uint(4)
      .Key("theta").Double(0.3)
      .Key("support").Double(0.05)
      .Key("alpha").Double(0.9)
      .Key("min_group_size").Uint(5);
  w.Key("window").BeginObject()
      .Key("kind").String(slide_rows > 0 ? "sliding" : "tumbling")
      .Key("size_rows").Uint(window_rows);
  if (slide_rows > 0) w.Key("slide_rows").Uint(slide_rows);
  w.EndObject();
  w.Key("thresholds").BeginObject()
      .Key("cate_delta").Double(cate_delta)
      .EndObject();
  w.EndObject();
  return w.str();
}

std::vector<MonitorEvent> DriftEvents(const StreamMonitor& monitor) {
  std::vector<MonitorEvent> out;
  for (const MonitorEvent& e : monitor.EventsSince(0)) {
    if (JsonValue::Parse(e.json).GetString("type") == "cate_drift") {
      out.push_back(e);
    }
  }
  return out;
}

// Planted effect shift: windows 0 and 2 carry the baseline ATE, window
// 1 the shifted ATE, over IDENTICAL confounder/treatment draws (same
// seed), so the only change between windows is the planted effect. The
// alert must fire at window 1 (the shift in) and window 2 (the shift
// back out), each with the planted delta, and nowhere else.
TEST(MonitorDriftTest, FiresExactlyAtTheShiftedWindow) {
  LinearScmOptions base;
  base.num_rows = 1200;
  base.ate = 2.0;
  base.seed = 29;
  LinearScmOptions shifted = base;
  shifted.ate = 8.0;

  const GeneratedDataset before = MakeLinearScmDataset(base);
  const GeneratedDataset during = MakeLinearScmDataset(shifted);
  const size_t n = before.table.NumRows();
  ASSERT_EQ(during.table.NumRows(), n);

  StreamMonitor monitor("m-drift",
                        MonitorSpec::Parse(ScmSpec(n, before.dag, 3.0)),
                        before.table, nullptr);
  monitor.OnAppend(before.table.MaterializeRows(0, n));   // window 0
  ASSERT_TRUE(DriftEvents(monitor).empty()) << "baseline window alerted";
  monitor.OnAppend(during.table.MaterializeRows(0, n));   // window 1
  const std::vector<MonitorEvent> at_shift = DriftEvents(monitor);
  ASSERT_FALSE(at_shift.empty()) << "planted shift not detected";
  monitor.OnAppend(before.table.MaterializeRows(0, n));   // window 2

  const MonitorStatus status = monitor.Status();
  EXPECT_EQ(status.windows_evaluated, 3u);

  bool positive_seen = false;
  for (const MonitorEvent& e : DriftEvents(monitor)) {
    const JsonValue v = JsonValue::Parse(e.json);
    const double idx = v.GetNumber("window_index", -1);
    EXPECT_TRUE(idx == 1 || idx == 2) << e.json;
    EXPECT_EQ(v.GetNumber("window_begin", -1), idx * n) << e.json;
    EXPECT_EQ(v.GetNumber("window_end", -1), (idx + 1) * n) << e.json;
    const double d_before = v.GetNumber("cate_before", 0);
    const double d_after = v.GetNumber("cate_after", 0);
    const double delta = v.GetNumber("delta", 0);
    EXPECT_NEAR(delta, std::abs(d_after - d_before), 1e-9) << e.json;
    EXPECT_GE(delta, 3.0) << e.json;
    // The planted shift is exactly 6; estimates carry sampling noise.
    EXPECT_NEAR(delta, 6.0, 2.5) << e.json;
    EXPECT_FALSE(v.GetString("grouping").empty()) << e.json;
    if (v.GetString("side") == "positive" &&
        v.GetNumber("window_index", -1) == 1) {
      positive_seen = true;
      EXPECT_GT(d_after, d_before) << e.json;
    }
  }
  EXPECT_TRUE(positive_seen) << "no positive-side alert at the shift";
}

// A stationary stream — fresh samples from the SAME process each
// window — must never alert.
TEST(MonitorDriftTest, NeverFiresOnStationaryStream) {
  LinearScmOptions options;
  options.num_rows = 1200;
  options.ate = 2.0;
  const size_t n = options.num_rows;
  const GeneratedDataset first = MakeLinearScmDataset(options);

  StreamMonitor monitor("m-flat",
                        MonitorSpec::Parse(ScmSpec(n, first.dag, 3.0)),
                        first.table, nullptr);
  monitor.OnAppend(first.table.MaterializeRows(0, n));
  for (uint64_t seed : {101u, 202u, 303u}) {
    LinearScmOptions next = options;
    next.seed = seed;
    const GeneratedDataset ds = MakeLinearScmDataset(next);
    monitor.OnAppend(ds.table.MaterializeRows(0, n));
  }
  EXPECT_EQ(monitor.Status().windows_evaluated, 4u);
  EXPECT_TRUE(DriftEvents(monitor).empty())
      << DriftEvents(monitor).front().json;
}

// Top-k churn: when the group structure is replaced wholesale between
// windows, the churn alert fires with the entered/left pattern lists.
TEST(MonitorChurnTest, FiresOnGroupTurnover) {
  auto make_rows = [](const std::vector<std::string>& groups,
                      size_t rows_per_group) {
    std::vector<std::vector<Value>> rows;
    for (const std::string& g : groups) {
      for (size_t i = 0; i < rows_per_group; ++i) {
        const bool treated = i % 2 == 0;
        rows.push_back({Value(g), Value(treated ? "hi" : "lo"),
                        Value(treated ? 10.0 + i * 0.01 : 1.0 + i * 0.01)});
      }
    }
    return rows;
  };
  Table schema;
  schema.AddColumn("grp", ColumnType::kCategorical);
  schema.AddColumn("trt", ColumnType::kCategorical);
  schema.AddColumn("val", ColumnType::kDouble);

  JsonWriter w;
  w.BeginObject()
      .Key("table").String("t")
      .Key("group_by").BeginArray().String("grp").EndArray()
      .Key("avg").String("val")
      .Key("dag_text").String("trt -> val\n")
      .Key("grouping_attrs").BeginArray().String("grp").EndArray()
      .Key("treatment_attrs").BeginArray().String("trt").EndArray()
      .Key("k").Uint(3)
      .Key("theta").Double(0.3)
      .Key("support").Double(0.1)
      .Key("alpha").Double(0.99)
      .Key("min_group_size").Uint(3)
      .Key("window").BeginObject()
      .Key("kind").String("tumbling")
      .Key("size_rows").Uint(120)
      .EndObject()
      .Key("thresholds").BeginObject()
      .Key("topk_churn").Double(0.5)
      .EndObject()
      .EndObject();

  StreamMonitor monitor("m-churn", MonitorSpec::Parse(w.str()), schema,
                        nullptr);
  monitor.OnAppend(make_rows({"a", "b", "c"}, 40));  // window 0
  monitor.OnAppend(make_rows({"d", "e", "f"}, 40));  // window 1: turnover
  monitor.OnAppend(make_rows({"d", "e", "f"}, 40));  // window 2: stable

  std::vector<MonitorEvent> churn;
  for (const MonitorEvent& e : monitor.EventsSince(0)) {
    if (JsonValue::Parse(e.json).GetString("type") == "topk_churn") {
      churn.push_back(e);
    }
  }
  ASSERT_EQ(churn.size(), 1u) << "churn must fire exactly once";
  const JsonValue v = JsonValue::Parse(churn[0].json);
  EXPECT_EQ(v.GetNumber("window_index", -1), 1);
  EXPECT_EQ(v.GetNumber("churn", 0), 1.0);
  ASSERT_NE(v.Find("entered"), nullptr);
  ASSERT_NE(v.Find("left"), nullptr);
  EXPECT_FALSE(v.Find("entered")->AsArray().empty());
  EXPECT_FALSE(v.Find("left")->AsArray().empty());
}

// Regression for the expiry byte-accounting fix: cycling the same
// window content through many tumbling windows must keep resident cache
// bytes bounded — if expiry failed to decrement the engine/context
// accounting, bytes would grow linearly with the window count.
TEST(MonitorResourceTest, ResidentBytesBoundedAcrossWindowCycling) {
  LinearScmOptions options;
  options.num_rows = 400;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  const size_t n = ds.table.NumRows();
  const auto rows = ds.table.MaterializeRows(0, n);

  StreamMonitor monitor("m-bytes",
                        MonitorSpec::Parse(ScmSpec(n, ds.dag, 0.0)), ds.table,
                        nullptr);
  monitor.OnAppend(rows);
  const size_t after_first = monitor.Status().cache_bytes;
  ASSERT_GT(after_first, 0u);
  size_t max_bytes = after_first;
  for (int window = 1; window < 8; ++window) {
    monitor.OnAppend(rows);
    max_bytes = std::max(max_bytes, monitor.Status().cache_bytes);
  }
  EXPECT_EQ(monitor.Status().windows_evaluated, 8u);
  // Identical content per window: steady state, not linear growth. The
  // factor leaves room for carried-plus-fresh state during migration.
  EXPECT_LE(max_bytes, after_first * 3)
      << "resident bytes grew across expiry (leaked accounting?)";
}

// Registry wiring: monitors receive service appends through the
// observer, List/Get/Remove behave, and events flow end to end.
TEST(MonitorRegistryTest, ObservesServiceAppends) {
  LinearScmOptions options;
  options.num_rows = 400;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  const size_t n = ds.table.NumRows();

  ExplanationService service(ServiceOptions{});
  service.RegisterTable("t", std::make_shared<const Table>(ds.table.Head(0)));
  MonitorRegistry registry(service);

  const auto monitor = registry.Create(ScmSpec(n, ds.dag, 0.0));
  EXPECT_EQ(monitor->id(), "m1");
  EXPECT_EQ(registry.Get("m1"), monitor);
  EXPECT_EQ(registry.Get("m2"), nullptr);
  EXPECT_EQ(registry.List().size(), 1u);

  service.Append("t", ds.table.MaterializeRows(0, n));
  EXPECT_EQ(monitor->Status().rows_observed, n);
  EXPECT_EQ(monitor->Status().windows_evaluated, 1u);

  // A second monitor on the same table sees only subsequent appends.
  const auto late = registry.Create(ScmSpec(n, ds.dag, 0.0));
  EXPECT_EQ(late->id(), "m2");
  service.Append("t", ds.table.MaterializeRows(0, n));
  EXPECT_EQ(monitor->Status().windows_evaluated, 2u);
  EXPECT_EQ(late->Status().rows_observed, n);
  EXPECT_EQ(late->Status().windows_evaluated, 1u);

  EXPECT_TRUE(registry.Remove("m1"));
  EXPECT_FALSE(registry.Remove("m1"));
  EXPECT_EQ(registry.List().size(), 1u);

  // Unknown table in the spec is rejected before an id is consumed.
  EXPECT_THROW(registry.Create(
                   "{\"table\":\"nope\",\"group_by\":[\"G\"],\"avg\":\"O\","
                   "\"window\":{\"size_rows\":10}}"),
               std::out_of_range);
  EXPECT_EQ(registry.Create(ScmSpec(n, ds.dag, 0.0))->id(), "m3");
}

// Malformed specs must throw instead of constructing a broken monitor.
TEST(MonitorSpecTest, RejectsMalformedSpecs) {
  Table schema;
  schema.AddColumn("g", ColumnType::kCategorical);
  schema.AddColumn("y", ColumnType::kDouble);
  auto spec = [](const std::string& window_json) {
    return "{\"table\":\"t\",\"group_by\":[\"g\"],\"avg\":\"y\"," +
           window_json + "}";
  };
  // Missing window, zero-size window, sliding further than the window,
  // unknown kind, bad thresholds, too many buffered events.
  EXPECT_THROW(StreamMonitor("m", MonitorSpec::Parse("{\"table\":\"t\"}"),
                             schema, nullptr),
               std::runtime_error);
  EXPECT_THROW(StreamMonitor("m",
                             MonitorSpec::Parse(
                                 "{\"group_by\":[\"g\"],\"avg\":\"y\","
                                 "\"window\":{\"size_rows\":5}}"),
                             schema, nullptr),
               std::runtime_error);
  EXPECT_THROW(
      StreamMonitor("m",
                    MonitorSpec::Parse(spec("\"window\":{\"size_rows\":0}")),
                    schema, nullptr),
      std::runtime_error);
  EXPECT_THROW(
      StreamMonitor("m",
                    MonitorSpec::Parse(spec(
                        "\"window\":{\"kind\":\"sliding\",\"size_rows\":4,"
                        "\"slide_rows\":9}")),
                    schema, nullptr),
      std::runtime_error);
  EXPECT_THROW(
      StreamMonitor("m",
                    MonitorSpec::Parse(spec("\"window\":{\"kind\":\"hopping\","
                                            "\"size_rows\":4}")),
                    schema, nullptr),
      std::runtime_error);
  EXPECT_THROW(
      StreamMonitor("m",
                    MonitorSpec::Parse(spec(
                        "\"window\":{\"size_rows\":4},"
                        "\"thresholds\":{\"topk_churn\":1.5}")),
                    schema, nullptr),
      std::runtime_error);
  // An event buffer past the cap (the cap itself is accepted).
  const auto max_events = [&](size_t n) {
    return spec("\"window\":{\"size_rows\":4},\"max_events\":" +
                std::to_string(n));
  };
  EXPECT_EQ(MonitorSpec::Parse(max_events(MonitorSpec::kMaxEventsCap))
                .max_events,
            MonitorSpec::kMaxEventsCap);
  EXPECT_THROW(MonitorSpec::Parse(max_events(MonitorSpec::kMaxEventsCap + 1)),
               std::runtime_error);
  // A valid spec constructs.
  StreamMonitor ok("m",
                   MonitorSpec::Parse(spec("\"window\":{\"size_rows\":4}")),
                   schema, nullptr);
  EXPECT_EQ(ok.Status().rows_observed, 0u);
}

// Snapshot round trip: a monitor snapshotted mid-stream and restored
// into a fresh registry/service must continue bit-identically — same
// events (same seqs, same payloads) as a monitor that never stopped.
TEST(MonitorSnapshotTest, RestoredMonitorContinuesBitIdentically) {
  TempDir dir;
  LinearScmOptions base;
  base.num_rows = 600;
  base.ate = 2.0;
  LinearScmOptions shifted = base;
  shifted.ate = 8.0;
  const GeneratedDataset a = MakeLinearScmDataset(base);
  const GeneratedDataset b = MakeLinearScmDataset(shifted);
  const size_t n = a.table.NumRows();
  const std::string spec = ScmSpec(n, a.dag, 3.0);

  // Reference: one uninterrupted life over windows [a, a, b].
  StreamMonitor reference("m1", MonitorSpec::Parse(spec), a.table, nullptr);
  reference.OnAppend(a.table.MaterializeRows(0, n));
  reference.OnAppend(a.table.MaterializeRows(0, n));
  reference.OnAppend(b.table.MaterializeRows(0, n));

  // Interrupted: window a + half of the second a-window, snapshot, kill.
  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  {
    ExplanationService service(persistent);
    service.RegisterTable("t",
                          std::make_shared<const Table>(a.table.Head(0)));
    MonitorRegistry registry(service);
    registry.Create(spec);
    service.Append("t", a.table.MaterializeRows(0, n));
    service.Append("t", a.table.MaterializeRows(0, n / 2));
    EXPECT_GT(registry.SaveSnapshot(), 0u);
  }

  // Restore into a fresh process image and stream the remainder. The
  // monitor restore needs its watched table restored first: the window
  // rows are rebuilt from it.
  ExplanationService service(persistent);
  ASSERT_TRUE(service.RestoreTable("t"));
  MonitorRegistry registry(service);
  ASSERT_EQ(registry.RestoreMonitors(), 1u);
  const auto restored = registry.Get("m1");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Status().rows_observed, n + n / 2);
  service.Append("t", a.table.MaterializeRows(n / 2, n));
  service.Append("t", b.table.MaterializeRows(0, n));

  // The next registry id does not collide with the restored monitor.
  EXPECT_EQ(registry.Create(spec)->id(), "m2");

  const auto expected = reference.EventsSince(0);
  const auto actual = restored->EventsSince(0);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].seq, expected[i].seq);
    EXPECT_EQ(actual[i].json, expected[i].json) << "event " << i;
  }
  EXPECT_EQ(restored->Status().windows_evaluated,
            reference.Status().windows_evaluated);

  // A stale snapshot (spec changed) restores nothing but does not throw.
  MonitorRegistry fresh_registry(service);
  EXPECT_EQ(fresh_registry.RestoreMonitors(), 1u);
}

// A monitor whose watched table is not registered at restore time is
// skipped, and the skip is counted.
TEST(MonitorSnapshotTest, SkippedOnRestoreIsCounted) {
  TempDir dir;
  LinearScmOptions options;
  options.num_rows = 200;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  {
    ExplanationService service(persistent);
    service.RegisterTable("t",
                          std::make_shared<const Table>(ds.table.Head(0)));
    MonitorRegistry registry(service);
    registry.Create(ScmSpec(ds.table.NumRows(), ds.dag, 0.0));
    EXPECT_GT(registry.SaveSnapshot(), 0u);
  }
  ExplanationService service(persistent);  // "t" is not registered
  MonitorRegistry registry(service);
  EXPECT_EQ(registry.RestoreMonitors(), 0u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
}

// `spec` with a summary event per window, so any difference in the
// mined windows shows in the event stream.
std::string WithSummaries(const std::string& spec) {
  return "{\"emit_summaries\":true," + spec.substr(1);
}

// The restored monitor's whole event stream and status equal the
// uninterrupted reference's.
void ExpectSameStream(const StreamMonitor& actual,
                      const StreamMonitor& expected) {
  const auto want = expected.EventsSince(0);
  const auto got = actual.EventsSince(0);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].json, want[i].json) << "event " << i;
  }
  const MonitorStatus a = actual.Status();
  const MonitorStatus e = expected.Status();
  EXPECT_EQ(a.rows_observed, e.rows_observed);
  EXPECT_EQ(a.windows_evaluated, e.windows_evaluated);
  EXPECT_EQ(a.last_seq, e.last_seq);
  EXPECT_EQ(a.window_rows, e.window_rows);
}

// Streams `checkpointed` into table "t" (registered as `seed`) under one
// monitor of `spec`, checkpoints the registry, appends `unsaved` without
// a further checkpoint, and "crashes". The table snapshots written after
// every append hold all rows.
void RunUntilCrash(const ServiceOptions& persistent, const Table& seed,
                   const std::string& spec,
                   const std::vector<std::vector<std::vector<Value>>>&
                       checkpointed,
                   const std::vector<std::vector<std::vector<Value>>>&
                       unsaved) {
  ExplanationService service(persistent);
  service.RegisterTable("t", std::make_shared<const Table>(seed.Clone()));
  MonitorRegistry registry(service);
  ASSERT_EQ(registry.Create(spec)->id(), "m1");
  for (const auto& rows : checkpointed) service.Append("t", rows);
  EXPECT_GT(registry.SaveSnapshot(), 0u);
  for (const auto& rows : unsaved) service.Append("t", rows);
}

// A checkpoint older than the table catches up on restore: the rows
// appended after it are replayed from the restored table, and the
// monitor ends where one that never stopped does — same windows, same
// events, same seqs.
TEST(MonitorSnapshotTest, RestoreReplaysAnUnsavedTail) {
  TempDir dir;
  LinearScmOptions base;
  base.num_rows = 600;
  LinearScmOptions shifted = base;
  shifted.ate = 8.0;
  const GeneratedDataset a = MakeLinearScmDataset(base);
  const GeneratedDataset b = MakeLinearScmDataset(shifted);
  const size_t n = a.table.NumRows();
  const std::string spec =
      WithSummaries(ScmSpec(n / 2, a.dag, 1.0, n / 4));
  const Table seed = a.table.Head(100);

  StreamMonitor reference("m1", MonitorSpec::Parse(spec), seed, nullptr);
  reference.OnAppend(a.table.MaterializeRows(100, n));
  reference.OnAppend(a.table.MaterializeRows(0, n));
  reference.OnAppend(b.table.MaterializeRows(0, n));

  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  RunUntilCrash(persistent, seed, spec, {a.table.MaterializeRows(100, n)},
                {a.table.MaterializeRows(0, n), b.table.MaterializeRows(0, n)});

  ExplanationService service(persistent);
  ASSERT_TRUE(service.RestoreTable("t"));
  MonitorRegistry registry(service);
  ASSERT_EQ(registry.RestoreMonitors(), 1u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 0u);
  const auto restored = registry.Get("m1");
  ASSERT_NE(restored, nullptr);
  ExpectSameStream(*restored, reference);

  // The caught-up monitor keeps following the stream.
  service.Append("t", a.table.MaterializeRows(0, n / 2));
  reference.OnAppend(a.table.MaterializeRows(0, n / 2));
  ExpectSameStream(*restored, reference);
}

// A watched table that is behind the checkpoint (here: the empty
// creation-time table registered again) cannot supply the window rows,
// so the monitor is skipped and counted instead of resumed.
TEST(MonitorSnapshotTest, TableBehindTheCheckpointIsSkipped) {
  TempDir dir;
  LinearScmOptions options;
  options.num_rows = 300;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  const size_t n = ds.table.NumRows();
  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  RunUntilCrash(persistent, ds.table.Head(0), ScmSpec(n, ds.dag, 0.0),
                {ds.table.MaterializeRows(0, n),
                 ds.table.MaterializeRows(0, n / 2)},
                {});

  ExplanationService service(persistent);
  service.RegisterTable("t", std::make_shared<const Table>(ds.table.Head(0)));
  MonitorRegistry registry(service);
  EXPECT_EQ(registry.RestoreMonitors(), 0u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
  EXPECT_EQ(registry.Get("m1"), nullptr);
}

// A checkpoint skipped because its table came back short (a restart
// over the seed rows alone) is kept: the shutdown checkpoint writes it
// back, and a later start over all the rows resumes it exactly where an
// uninterrupted monitor is.
TEST(MonitorSnapshotTest, SkippedCheckpointSurvivesAShutdown) {
  TempDir dir;
  LinearScmOptions base;
  base.num_rows = 600;
  const GeneratedDataset a = MakeLinearScmDataset(base);
  const size_t n = a.table.NumRows();
  const std::string spec =
      WithSummaries(ScmSpec(n / 2, a.dag, 1.0, n / 4));
  const Table seed = a.table.Head(100);

  StreamMonitor reference("m1", MonitorSpec::Parse(spec), seed, nullptr);
  reference.OnAppend(a.table.MaterializeRows(100, n));

  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  RunUntilCrash(persistent, seed, spec, {a.table.MaterializeRows(100, n)},
                {});
  {
    ExplanationService service(persistent);
    service.RegisterTable("t", seed.Clone());
    MonitorRegistry registry(service);
    EXPECT_EQ(registry.RestoreMonitors(), 0u);
    EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
    EXPECT_EQ(registry.Get("m1"), nullptr);
    EXPECT_TRUE(registry.List().empty());
    service.SaveAllSnapshots();
    registry.SaveSnapshot();
  }

  ExplanationService service(persistent);
  service.RegisterTable("t", a.table.Clone());
  MonitorRegistry registry(service);
  ASSERT_EQ(registry.RestoreMonitors(), 1u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 0u);
  const auto restored = registry.Get("m1");
  ASSERT_NE(restored, nullptr);
  ExpectSameStream(*restored, reference);
  service.Append("t", a.table.MaterializeRows(0, n / 2));
  reference.OnAppend(a.table.MaterializeRows(0, n / 2));
  ExpectSameStream(*restored, reference);
  EXPECT_EQ(registry.Create(spec)->id(), "m2");
}

// A damaged checkpoint section is dropped, not kept: the next registry
// file holds no monitor.
TEST(MonitorSnapshotTest, DamagedCheckpointIsNotKept) {
  TempDir dir;
  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  const std::string path = dir.path + "/causumx-monitors.monsnap";
  SnapshotWriter damaged("causumx-monitors", 2, "");
  ByteWriter next_id;
  next_id.PutU64(2);
  damaged.AddSection("registry", next_id.TakeBytes());
  damaged.AddSection("monitor/0", "not a checkpoint");
  WriteFileDurable(path, damaged.Serialize());

  ExplanationService service(persistent);
  MonitorRegistry registry(service);
  EXPECT_EQ(registry.RestoreMonitors(), 0u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
  registry.SaveSnapshot();
  const SnapshotReader saved =
      SnapshotReader::ReadFile(path, "causumx-monitors", 2);
  EXPECT_EQ(saved.SectionNames(), std::vector<std::string>{"registry"});
}

// A watched table with as many rows as the checkpoint saw, but other
// rows in the window, fails the window hash: skipped and counted.
TEST(MonitorSnapshotTest, SameRowCountWithOtherRowsIsSkipped) {
  TempDir dir;
  LinearScmOptions base;
  base.num_rows = 300;
  LinearScmOptions other = base;
  other.seed = 31;
  const GeneratedDataset a = MakeLinearScmDataset(base);
  const GeneratedDataset b = MakeLinearScmDataset(other);
  const size_t n = a.table.NumRows();
  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  RunUntilCrash(persistent, a.table.Head(0), ScmSpec(n, a.dag, 0.0),
                {a.table.MaterializeRows(0, n / 2)}, {});

  ExplanationService service(persistent);
  service.RegisterTable("t",
                        std::make_shared<const Table>(b.table.Head(n / 2)));
  MonitorRegistry registry(service);
  EXPECT_EQ(registry.RestoreMonitors(), 0u);
  EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
}

// A "discover" monitor learns its DAG from the table as it was at
// creation. Restored after appends that change the dependency
// structure, it must bind to those same rows — not to the grown table —
// and so continue exactly like the uninterrupted monitor.
TEST(MonitorSnapshotTest, DiscoverSpecRestoresOverTheCreationRows) {
  TempDir dir;
  // Creation rows without confounding; the stream plants it.
  LinearScmOptions plain;
  plain.num_rows = 300;
  plain.confounding = 0.0;
  plain.b1 = 0.0;
  plain.b2 = 0.0;
  LinearScmOptions confounded;
  confounded.num_rows = 600;
  confounded.confounding = 2.0;
  confounded.b1 = 3.0;
  confounded.b2 = -2.0;
  confounded.seed = 41;
  const GeneratedDataset seed = MakeLinearScmDataset(plain);
  const GeneratedDataset stream = MakeLinearScmDataset(confounded);
  const size_t n = stream.table.NumRows();
  const std::string spec =
      WithSummaries(ScmSpec(n / 2, seed.dag, 0.0, 0, "pc"));

  StreamMonitor reference("m1", MonitorSpec::Parse(spec), seed.table,
                          nullptr);
  reference.OnAppend(stream.table.MaterializeRows(0, n / 2));

  ServiceOptions persistent;
  persistent.data_dir = dir.path;
  RunUntilCrash(persistent, seed.table, spec,
                {stream.table.MaterializeRows(0, n / 2)}, {});

  // The checkpoint is current, so nothing replays: the windows after
  // the restore are the first the restored binding mines.
  ExplanationService service(persistent);
  ASSERT_TRUE(service.RestoreTable("t"));
  MonitorRegistry registry(service);
  ASSERT_EQ(registry.RestoreMonitors(), 1u);
  const auto restored = registry.Get("m1");
  service.Append("t", stream.table.MaterializeRows(n / 2, n));
  reference.OnAppend(stream.table.MaterializeRows(n / 2, n));
  ASSERT_GE(reference.Status().windows_evaluated, 2u);
  ExpectSameStream(*restored, reference);
}

// A registry file that cannot be read at all — truncated, bit-flipped,
// or written in the previous format (which carried the window rows) —
// restores nothing, and the lost file counts as one skip.
TEST(MonitorSnapshotTest, UnreadableRegistryFileCountsOnce) {
  LinearScmOptions options;
  options.num_rows = 200;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  const size_t n = ds.table.NumRows();
  std::string saved;
  {
    TempDir dir;
    ServiceOptions persistent;
    persistent.data_dir = dir.path;
    RunUntilCrash(persistent, ds.table.Head(0), ScmSpec(n, ds.dag, 0.0),
                  {ds.table.MaterializeRows(0, n / 2)}, {});
    saved = ReadFileBytes(dir.path + "/causumx-monitors.monsnap");
  }
  ASSERT_GT(saved.size(), 16u);
  std::string flipped = saved;
  flipped[flipped.size() / 2] ^= 0x10;
  SnapshotWriter v1("causumx-monitors", 1, "");
  v1.AddSection("registry", std::string(8, '\0'));
  const std::string damaged[] = {saved.substr(0, saved.size() / 2), flipped,
                                 v1.Serialize()};
  for (const std::string& bytes : damaged) {
    TempDir dir;
    ServiceOptions persistent;
    persistent.data_dir = dir.path;
    WriteFileDurable(dir.path + "/causumx-monitors.monsnap", bytes);
    ExplanationService service(persistent);
    service.RegisterTable(
        "t", std::make_shared<const Table>(ds.table.Head(n / 2)));
    MonitorRegistry registry(service);
    EXPECT_EQ(registry.RestoreMonitors(), 0u);
    EXPECT_EQ(registry.Stats().skipped_on_restore, 1u);
  }
}

// A checkpoint whose next boundary lies behind its stream position
// would wrap OnAppend's distance to the boundary, so the monitor would
// never evaluate again and its window would grow without bound. The
// import rejects it as corrupt.
TEST(MonitorSnapshotTest, WrappedNextBoundaryIsCorrupt) {
  LinearScmOptions options;
  options.num_rows = 200;
  const GeneratedDataset ds = MakeLinearScmDataset(options);
  const size_t n = ds.table.NumRows();
  const std::string spec = ScmSpec(n, ds.dag, 0.0);
  StreamMonitor live("m1", MonitorSpec::Parse(spec), ds.table.Head(0),
                     nullptr);
  live.OnAppend(ds.table.MaterializeRows(0, n / 2));
  const std::string bytes = live.ExportState();

  // Layout: id, spec, origin, rows_observed, window_begin, next_boundary.
  ByteReader r(bytes);
  r.GetString();
  r.GetString();
  r.GetU64();
  const uint64_t rows_observed = r.GetU64();
  r.GetU64();
  const size_t at = bytes.size() - r.remaining();
  ByteWriter forged_boundary;
  forged_boundary.PutU64(rows_observed - 1);
  std::string forged = bytes;
  forged.replace(at, 8, forged_boundary.TakeBytes());

  const Table watched = ds.table.Head(n / 2);
  StreamMonitor restored("m1", MonitorSpec::Parse(spec), ds.table.Head(0),
                         nullptr);
  try {
    restored.ImportState(forged, watched);
    FAIL() << "wrapped next_boundary accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kCorrupt);
  }
  // The unforged checkpoint imports over the same table.
  StreamMonitor intact("m1", MonitorSpec::Parse(spec), ds.table.Head(0),
                       nullptr);
  intact.ImportState(bytes, watched);
  EXPECT_EQ(intact.Status().rows_observed, n / 2);
}

// Events API: seq numbering, since-filtering, and the long-poll wait.
TEST(MonitorEventsTest, SinceFilteringAndWait) {
  auto make_rows = [](double shift, size_t count) {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < count; ++i) {
      const bool treated = i % 2 == 0;
      rows.push_back({Value(i % 3 == 0 ? "a" : "b"),
                      Value(treated ? "hi" : "lo"),
                      Value((treated ? 8.0 + shift : 1.0) + i * 0.01)});
    }
    return rows;
  };
  Table schema;
  schema.AddColumn("grp", ColumnType::kCategorical);
  schema.AddColumn("trt", ColumnType::kCategorical);
  schema.AddColumn("val", ColumnType::kDouble);
  StreamMonitor monitor(
      "m-ev",
      MonitorSpec::Parse(
          "{\"table\":\"t\",\"group_by\":[\"grp\"],\"avg\":\"val\","
          "\"dag_text\":\"trt -> val\\n\",\"grouping_attrs\":[\"grp\"],"
          "\"treatment_attrs\":[\"trt\"],\"alpha\":0.99,\"min_group_size\":3,"
          "\"support\":0.1,\"emit_summaries\":true,"
          "\"window\":{\"size_rows\":60}}"),
      schema, nullptr);

  // No events yet: a zero-timeout wait returns immediately and empty.
  EXPECT_TRUE(monitor.WaitEventsSince(0, 0).empty());

  monitor.OnAppend(make_rows(0.0, 60));
  monitor.OnAppend(make_rows(2.0, 60));
  const auto all = monitor.EventsSince(0);
  ASSERT_EQ(all.size(), 2u);  // one summary per window
  EXPECT_EQ(all[0].seq, 1u);
  EXPECT_EQ(all[1].seq, 2u);
  EXPECT_EQ(monitor.EventsSince(1).size(), 1u);
  EXPECT_EQ(monitor.EventsSince(1)[0].seq, 2u);
  EXPECT_TRUE(monitor.EventsSince(2).empty());
  // A wait on already-buffered events returns them without blocking.
  EXPECT_EQ(monitor.WaitEventsSince(0, 60000).size(), 2u);
}

}  // namespace
}  // namespace causumx
