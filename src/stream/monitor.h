// Continuous explanation monitoring over windowed streams.
//
// A StreamMonitor watches one registered table of an ExplanationService
// and maintains a CauSumX explanation summary over a row-count window of
// the table's append stream — tumbling (disjoint windows of W rows) or
// sliding (a W-row window advancing S rows at a time). The monitor owns
// its own window Table / EvalEngine / EstimatorContext triple and walks
// it incrementally:
//
//   * Appends derive the triple through the EvalEngine and
//     EstimatorContext derivation constructors with no dropped prefix:
//     cached predicate segments evaluate only the delta rows and carried
//     CATE memo entries stay warm.
//   * At each window boundary the expired prefix is retracted:
//     Table::Tail rebuilds the surviving rows, and the same derivation
//     constructors, given the dropped_prefix_rows, carry over exactly
//     the cache and memo state that is still valid — a subpopulation
//     that lost rows is invalidated precisely, everything else shifts
//     down and stays a memo hit. Expiry also *shrinks* the accounted
//     resident bytes: a derivation restarts byte accounting from the
//     carried (strictly smaller) state.
//   * The summary is then re-mined over the window through the warm
//     caches. Only dirty groups — grouping patterns whose subpopulation
//     actually gained or lost rows — recompute their CATEs; the rest are
//     memo hits. The result is bit-identical to running CauSumX from
//     scratch over exactly the surviving window rows (the differential
//     property harness in tests/test_property_windows.cpp enforces
//     this).
//
// After each evaluated window the monitor diffs the new summary against
// the previous window's and emits drift events: a per-grouping-pattern
// CATE change at least `cate_delta`, or a top-k membership churn of at
// least `topk_churn`. Events carry a monotone per-monitor sequence
// number and the window's stream-row range — no wall-clock fields, so
// event streams replay deterministically.
//
// MonitorRegistry owns the monitors, feeds them synchronously from the
// service's append observer hook (deliveries are ordered and never
// concurrent — see ExplanationService::AddAppendObserver), serves the
// long-poll event subscription the REST layer exposes, and checkpoints
// the monitors into the service data_dir for warm restarts. The watched
// table is the only durable copy of the stream (stream row i is table
// row origin + i): a checkpoint stores no rows, and restore rebuilds the
// window from the table and replays the rows the checkpoint missed.

#ifndef CAUSUMX_STREAM_MONITOR_H_
#define CAUSUMX_STREAM_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace causumx {

/// Window retention policy of one monitor, in row counts.
struct WindowSpec {
  /// kTumbling evaluates disjoint windows [0,W), [W,2W), ...; kSliding
  /// evaluates a W-row window every S appended rows: [0,W), [S,W+S), ...
  enum class Kind { kTumbling, kSliding };
  /// Which retention policy the window follows.
  Kind kind = Kind::kTumbling;
  /// W: rows per evaluated window. Must be >= 1.
  size_t size_rows = 0;
  /// S: rows between window boundaries; 1 <= S <= W. Forced to W for
  /// tumbling windows.
  size_t slide_rows = 0;
};

/// Drift thresholds of one monitor; 0 disables the respective detector.
struct MonitorThresholds {
  /// Emit a `cate_drift` event when a grouping pattern present in two
  /// consecutive summaries changes its (positive or negative) treatment
  /// CATE by at least this absolute amount.
  double cate_delta = 0.0;
  /// Emit a `topk_churn` event when at least this fraction of the new
  /// summary's grouping patterns were absent from the previous one.
  double topk_churn = 0.0;
};

/// A parsed monitor creation spec (the POST /v1/monitors body; see
/// docs/API.md): the watched explain request plus the fields that
/// belong to monitors alone.
struct MonitorSpec {
  ExplainSpec explain;           ///< the watched view; `table` required
  WindowSpec window;             ///< "window": {kind, size_rows, slide_rows}
  MonitorThresholds thresholds;  ///< "thresholds": {cate_delta, topk_churn}
  bool emit_summaries = false;   ///< a `summary` event per window
  size_t max_events = 4096;      ///< event buffer capacity; in [1, cap]
  std::string json;              ///< the creation document, verbatim

  /// Cap on max_events: the event buffer is not byte-accounted.
  static constexpr size_t kMaxEventsCap = 65536;

  /// Parses and validates `json`; throws std::runtime_error naming the
  /// field at fault, including any member that is neither an explain
  /// field nor one of the monitor fields above.
  static MonitorSpec Parse(std::string json);
};

/// One emitted monitor event: the monotone per-monitor sequence number
/// and the rendered JSON object (which embeds the same `seq`).
struct MonitorEvent {
  /// Monotone per-monitor sequence number, starting at 1.
  uint64_t seq = 0;
  /// The rendered event object, exactly as served over the REST API.
  std::string json;
};

/// Point-in-time description of one monitor.
struct MonitorStatus {
  std::string id;                  ///< registry-assigned identifier
  std::string table;               ///< watched table name
  uint64_t rows_observed = 0;      ///< stream rows seen since creation
  uint64_t windows_evaluated = 0;  ///< boundaries processed so far
  uint64_t last_seq = 0;           ///< newest event seq (0 = none yet)
  size_t window_rows = 0;          ///< rows currently held in the window
  size_t events_buffered = 0;      ///< events currently in the buffer
  size_t cache_bytes = 0;          ///< resident window cache bytes
};

/// A single windowed monitor. Thread-safe: OnAppend (serialized by the
/// service's append lock), status/event reads, and the long-poll wait
/// may run concurrently.
class StreamMonitor {
 public:
  /// Binds `spec` to `bound_table`, the watched table at creation time
  /// — it supplies the window schema, WHERE-predicate typing, the data
  /// a "discover" DAG is learned from, and the stream origin (its row
  /// count); the window starts empty and fills from later appends.
  /// Windows mine on `mining_pool` (the registry passes the service
  /// pool) and start no threads of their own; serially when it is null.
  /// Throws std::runtime_error when the spec does not bind (bad where
  /// expression or DAG).
  StreamMonitor(std::string id, MonitorSpec spec, const Table& bound_table,
                ThreadPool* mining_pool);

  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Registry-assigned identifier ("m1", "m2", ...).
  const std::string& id() const { return id_; }
  /// Name of the watched table.
  const std::string& table() const { return spec_.explain.table; }
  /// The creation spec, verbatim.
  const std::string& spec_json() const { return spec_.json; }

  /// Feeds one landed append batch. Appends rows to the window in
  /// boundary-sized pieces; each time the stream position reaches a
  /// window boundary, expires rows that left the window, re-mines the
  /// summary through the warm caches, diffs it against the previous
  /// window, and emits events. The caller (MonitorRegistry via the
  /// service append observer) guarantees calls are ordered and never
  /// concurrent with each other.
  void OnAppend(const std::vector<std::vector<Value>>& rows)
      CAUSUMX_EXCLUDES(mu_);

  /// Current status snapshot.
  MonitorStatus Status() const CAUSUMX_EXCLUDES(mu_);

  /// Buffered events with seq > `since`, in seq order. The buffer keeps
  /// the newest `max_events` events (spec field, default 4096): when a
  /// reader falls further behind, the oldest events are dropped and the
  /// first returned seq exceeds `since + 1` — the gap is detectable
  /// from the seq numbers alone.
  std::vector<MonitorEvent> EventsSince(uint64_t since) const
      CAUSUMX_EXCLUDES(mu_);

  /// Long-poll variant: blocks until an event with seq > `since` exists
  /// or `timeout_ms` elapses, then returns like EventsSince (possibly
  /// empty on timeout).
  std::vector<MonitorEvent> WaitEventsSince(uint64_t since,
                                            int64_t timeout_ms)
      CAUSUMX_EXCLUDES(mu_);

  /// Serializes the checkpoint — id, spec, origin, stream counters, diff
  /// baseline, window-row hash (not the rows), warm caches, and events —
  /// for MonitorRegistry::SaveSnapshot.
  std::string ExportState() const CAUSUMX_EXCLUDES(mu_);

  /// Restores a checkpoint into a freshly constructed monitor (same id,
  /// spec and origin), rebuilds the window from `watched` — the watched
  /// table — and replays its rows the checkpoint missed via OnAppend.
  /// Warm caches that no longer fit the engine rebuild cold (summaries
  /// are bit-identical either way). Throws StorageError: kCorrupt on
  /// damage or impossible counters; kStale on an id/spec/origin
  /// mismatch, a table behind the checkpoint, or a window-row hash
  /// mismatch. The monitor must be discarded after a throw.
  void ImportState(const std::string& bytes, const Table& watched)
      CAUSUMX_EXCLUDES(mu_);

 private:
  /// Per-grouping-pattern CATEs of one summary (the drift baseline).
  struct SideEffects {
    bool has_positive = false;
    double positive = 0.0;
    bool has_negative = false;
    double negative = 0.0;
  };

  /// Replaces the engine and context with cold ones over window_table_.
  void BuildColdCachesLocked() CAUSUMX_REQUIRES(mu_);

  /// Appends `rows[begin, end)` to the window and expires its first
  /// `drop` rows (Table::Tail), deriving the engine and context from the
  /// previous ones in one step (or building them fresh on the first
  /// non-empty window).
  void AdvanceWindowLocked(const std::vector<std::vector<Value>>& rows,
                           size_t begin, size_t end, size_t drop)
      CAUSUMX_REQUIRES(mu_);

  /// Mines the current window, diffs against the previous summary, and
  /// emits events for window index `window_index` spanning stream rows
  /// [window_begin, window_end).
  void EvaluateWindowLocked(uint64_t window_index, uint64_t window_begin,
                            uint64_t window_end) CAUSUMX_REQUIRES(mu_);

  /// Opens an event object in `w` (seq, monitor, type, window fields),
  /// consuming the next seq; the caller adds type-specific members and
  /// finishes with PushEventLocked.
  uint64_t BeginEventLocked(JsonWriter& w, const char* type,
                            uint64_t window_index, uint64_t window_begin,
                            uint64_t window_end) CAUSUMX_REQUIRES(mu_);

  /// Closes the event object, appends it to the buffer (trimming to
  /// max_events), and wakes long-poll waiters.
  void PushEventLocked(uint64_t seq, JsonWriter& w) CAUSUMX_REQUIRES(mu_);

  /// EventsSince body; the caller holds mu_.
  std::vector<MonitorEvent> EventsSinceLocked(uint64_t since) const
      CAUSUMX_REQUIRES(mu_);

  const std::string id_;
  const MonitorSpec spec_;
  /// Watched-table rows at creation; stream row i is table row origin_+i.
  const uint64_t origin_;

  /// The spec bound to the creation-time table (immutable after
  /// construction).
  BoundExplain bound_;
  ThreadPool* const mining_pool_;

  mutable util::Mutex mu_;
  mutable util::CondVar events_cv_;
  std::shared_ptr<const Table> window_table_ CAUSUMX_GUARDED_BY(mu_);
  std::shared_ptr<EvalEngine> engine_ CAUSUMX_GUARDED_BY(mu_);
  std::shared_ptr<EstimatorContext> context_ CAUSUMX_GUARDED_BY(mu_);
  /// Stream rows observed since creation (== the stream position).
  uint64_t rows_observed_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Stream index of window row 0.
  uint64_t window_begin_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Next stream position at which a window evaluates (W, W+S, ...).
  uint64_t next_boundary_ CAUSUMX_GUARDED_BY(mu_) = 0;
  uint64_t windows_evaluated_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Previous window's per-grouping-pattern CATEs, keyed by the
  /// pattern's canonical rendering (value-based, so keys survive window
  /// compaction's dictionary re-coding). std::map: diff iteration order
  /// is deterministic.
  std::map<std::string, SideEffects> prev_effects_ CAUSUMX_GUARDED_BY(mu_);
  /// Previous window's grouping patterns in summary order.
  std::vector<std::string> prev_topk_ CAUSUMX_GUARDED_BY(mu_);
  bool have_prev_ CAUSUMX_GUARDED_BY(mu_) = false;
  std::deque<MonitorEvent> events_ CAUSUMX_GUARDED_BY(mu_);
  /// Seq the next event receives; seqs start at 1.
  uint64_t next_seq_ CAUSUMX_GUARDED_BY(mu_) = 1;
};

/// Cumulative counters of the persistence failures the registry absorbs
/// instead of returning to a caller (served under "monitors" in
/// /v1/stats).
struct MonitorRegistryStats {
  /// Monitors RestoreMonitors skipped: damaged payload, stale spec, or a
  /// watched table that is missing, behind the checkpoint or holding
  /// other window rows; an unreadable registry file counts once.
  uint64_t skipped_on_restore = 0;
};

/// Owns the monitors of one ExplanationService and feeds them from its
/// append stream.
///
/// Thread-safe. The registry registers an append observer on the
/// service at construction; since observers cannot be removed, the
/// registry must outlive the service's last append (in practice: create
/// it right after the service and destroy it after all appends stop).
class MonitorRegistry {
 public:
  /// Binds to `service` and registers the append observer that drives
  /// every monitor.
  explicit MonitorRegistry(ExplanationService& service);

  MonitorRegistry(const MonitorRegistry&) = delete;
  MonitorRegistry& operator=(const MonitorRegistry&) = delete;

  /// Creates a monitor from `spec_json` (the REST POST /v1/monitors
  /// body, verbatim — the CLI and tests compose the same document),
  /// parsed once by MonitorSpec::Parse, and assigns it the next id. The
  /// watched table must be registered. Throws std::runtime_error on an
  /// invalid spec and std::out_of_range on an unknown table.
  std::shared_ptr<StreamMonitor> Create(const std::string& spec_json);

  /// The monitor with this id, or null when absent.
  std::shared_ptr<StreamMonitor> Get(const std::string& id) const;

  /// Removes the monitor; returns false when absent. A removed monitor
  /// stops receiving appends; outstanding shared_ptr holders (e.g. a
  /// long-poll in flight) keep it alive until they drop it.
  bool Remove(const std::string& id);

  /// All monitors, ordered by id.
  std::vector<std::shared_ptr<StreamMonitor>> List() const;

  /// Checkpoints every monitor into one durable file under the service
  /// data_dir (`causumx-monitors.monsnap`; crash-safe write-to-temp +
  /// rename like every snapshot), followed unchanged by the checkpoints
  /// RestoreMonitors kept as stale. Returns the bytes written. Write the
  /// table snapshots first: a checkpoint behind its table catches up on
  /// restore, one ahead of it is skipped. Throws std::logic_error
  /// without a data_dir and StorageError(kIo) on write failure.
  size_t SaveSnapshot();

  /// Restores monitors from the registry snapshot file; returns how
  /// many were restored. Each binds to its table's first `origin` rows,
  /// as at creation, and catches up with the rest: restore the tables
  /// first and start no appends before this returns. Monitors that do
  /// not restore are skipped and counted (skipped_on_restore) — never
  /// partially trusted. One whose table is missing, behind or holds
  /// other window rows is kept unlisted for SaveSnapshot (its id stays
  /// reserved), so it resumes once its table is back; damaged ones are
  /// dropped. A missing file restores nothing. Throws std::logic_error
  /// without a data_dir.
  size_t RestoreMonitors();

  /// The failure counters (relaxed atomic reads).
  MonitorRegistryStats Stats() const;

 private:
  /// The append-observer body: routes the batch to every monitor of the
  /// table.
  void OnAppend(const std::string& name,
                const std::vector<std::vector<Value>>& rows);

  /// The registry snapshot path under the service data_dir.
  std::string SnapshotFilePath() const;

  ExplanationService& service_;
  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<StreamMonitor>> monitors_
      CAUSUMX_GUARDED_BY(mu_);
  uint64_t next_id_ CAUSUMX_GUARDED_BY(mu_) = 1;
  /// Checkpoints RestoreMonitors kept (skipped as stale), by id.
  std::map<std::string, std::string> kept_ CAUSUMX_GUARDED_BY(mu_);
  /// Serializes snapshot file writes (one shared .tmp per target).
  util::Mutex snapshot_mu_;
  std::atomic<uint64_t> n_skipped_on_restore_{0};
};

}  // namespace causumx

#endif  // CAUSUMX_STREAM_MONITOR_H_
