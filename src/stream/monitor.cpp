#include "stream/monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/json_export.h"
#include "dataset/table_io.h"
#include "storage/bytes.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/string_utils.h"

namespace causumx {

namespace {

// Registry snapshot container identity (storage/snapshot.h). The file
// extension deliberately differs from the service's per-table `.snap`
// files so ExplanationService::RestoreAll never tries to parse it as a
// table snapshot.
constexpr char kMonitorSnapshotKind[] = "causumx-monitors";
// Version 2 stores the stream origin and a window-row hash, not rows.
constexpr uint32_t kMonitorSnapshotVersion = 2;
constexpr char kMonitorSnapshotFile[] = "causumx-monitors.monsnap";

}  // namespace

MonitorSpec MonitorSpec::Parse(std::string json) {
  MonitorSpec spec;
  const JsonValue doc = JsonValue::Parse(json);
  // The members a monitor spec adds to its explain request.
  spec.explain =
      ExplainSpec::Parse(doc, {"window", "thresholds", "emit_summaries",
                               "max_events"});
  if (spec.explain.table.empty()) {
    throw std::runtime_error("monitor spec is missing \"table\"");
  }
  if (!spec.explain.csv.empty()) {
    throw std::runtime_error("monitor spec: \"csv\" is not supported");
  }

  const JsonValue* win = doc.Find("window");
  if (win == nullptr) {
    throw std::runtime_error("monitor spec is missing \"window\"");
  }
  const std::string kind = ToLower(win->GetString("kind", "tumbling"));
  if (kind == "tumbling") {
    spec.window.kind = WindowSpec::Kind::kTumbling;
  } else if (kind == "sliding") {
    spec.window.kind = WindowSpec::Kind::kSliding;
  } else {
    throw std::runtime_error("monitor window: unknown kind \"" + kind + "\"");
  }
  spec.window.size_rows = JsonCountField(*win, "size_rows", 0, 1);
  if (spec.window.kind == WindowSpec::Kind::kTumbling) {
    spec.window.slide_rows = spec.window.size_rows;
  } else {
    spec.window.slide_rows = JsonCountField(*win, "slide_rows", 0, 1);
    if (spec.window.slide_rows > spec.window.size_rows) {
      throw std::runtime_error(
          "monitor window: \"slide_rows\" must not exceed \"size_rows\" "
          "(rows would never expire cleanly)");
    }
  }

  if (const JsonValue* th = doc.Find("thresholds")) {
    spec.thresholds.cate_delta = th->GetNumber("cate_delta", 0.0);
    spec.thresholds.topk_churn = th->GetNumber("topk_churn", 0.0);
    if (spec.thresholds.cate_delta < 0.0 || spec.thresholds.topk_churn < 0.0 ||
        spec.thresholds.topk_churn > 1.0) {
      throw std::runtime_error(
          "monitor thresholds: \"cate_delta\" must be >= 0 and "
          "\"topk_churn\" in [0, 1]");
    }
  }
  spec.emit_summaries = doc.GetBool("emit_summaries", false);
  spec.max_events = JsonCountField(doc, "max_events", spec.max_events, 1);
  if (spec.max_events > kMaxEventsCap) {
    throw std::runtime_error("\"max_events\" must be an integer in [1, " +
                             std::to_string(kMaxEventsCap) + "]");
  }
  spec.json = std::move(json);
  return spec;
}

StreamMonitor::StreamMonitor(std::string id, MonitorSpec spec,
                             const Table& bound_table,
                             ThreadPool* mining_pool)
    : id_(std::move(id)),
      spec_(std::move(spec)),
      origin_(bound_table.NumRows()),
      bound_(spec_.explain.Bind(bound_table)),
      mining_pool_(mining_pool) {
  // Head(0): the bound schema with empty dictionaries.
  window_table_ = std::make_shared<const Table>(bound_table.Head(0));
  next_boundary_ = spec_.window.size_rows;
}

void StreamMonitor::BuildColdCachesLocked() {
  // No pool: window shard work runs serial (windows are small).
  engine_ = std::make_shared<EvalEngine>(window_table_);
  context_ = std::make_shared<EstimatorContext>(engine_, bound_.dag,
                                                bound_.config.estimator);
}

void StreamMonitor::OnAppend(const std::vector<std::vector<Value>>& rows) {
  util::MutexLock lock(mu_);
  // Piecewise: append up to the next boundary, evaluate, repeat — so one
  // large batch crossing several boundaries emits exactly the same
  // windows (and events) as the same rows arriving one at a time.
  size_t i = 0;
  while (i < rows.size()) {
    const uint64_t until = next_boundary_ - rows_observed_;
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(rows.size() - i, until));
    // A take that reaches the boundary also expires the rows that leave
    // the window there.
    size_t drop = 0;
    if (rows_observed_ + take == next_boundary_) {
      drop = static_cast<size_t>(next_boundary_ - spec_.window.size_rows -
                                 window_begin_);
    }
    AdvanceWindowLocked(rows, i, i + take, drop);
    rows_observed_ += take;
    i += take;
    if (rows_observed_ == next_boundary_) {
      const uint64_t begin = next_boundary_ - spec_.window.size_rows;
      // causumx-analyzer: allow(lock-blocking) intentional: mu_ IS the
      // monitor's serialization of window evaluation — appends, status
      // reads, and snapshot exports must observe whole windows, never a
      // half-evaluated boundary, so the mining run stays under the lock.
      EvaluateWindowLocked(windows_evaluated_, begin, next_boundary_);
      ++windows_evaluated_;
      next_boundary_ += spec_.window.slide_rows;
    }
  }
}

void StreamMonitor::AdvanceWindowLocked(
    const std::vector<std::vector<Value>>& rows, size_t begin, size_t end,
    size_t drop) {
  if (begin == end && drop == 0) return;
  // slide_rows <= size_rows, so every row a boundary expires was in the
  // window before this delta. Table::Tail rebuilds the survivors exactly
  // as a from-scratch load would (fresh dictionaries in first-appearance
  // order) and AppendRows extends those dictionaries in the delta's
  // order: the table a cold load of the new window builds. One
  // derivation then carries precisely the cache and memo state that is
  // still valid — cached segments evaluate only the delta rows, and memo
  // entries over subpopulations that neither lost nor gained rows stay
  // warm.
  Table next = drop > 0 ? window_table_->Tail(drop) : window_table_->Clone();
  if (begin == 0 && end == rows.size()) {
    next.AppendRows(rows);
  } else if (begin < end) {
    next.AppendRows(std::vector<std::vector<Value>>(
        rows.begin() + static_cast<ptrdiff_t>(begin),
        rows.begin() + static_cast<ptrdiff_t>(end)));
  }
  window_table_ = std::make_shared<const Table>(std::move(next));
  window_begin_ += drop;
  if (engine_ == nullptr) {
    BuildColdCachesLocked();  // first rows of the stream
    return;
  }
  engine_ = std::make_shared<EvalEngine>(window_table_, *engine_, drop);
  context_ = std::make_shared<EstimatorContext>(engine_, *context_, drop);
}

void StreamMonitor::EvaluateWindowLocked(uint64_t window_index,
                                         uint64_t window_begin,
                                         uint64_t window_end) {
  const ExplanationSummary summary =
      RunCauSumX(*window_table_, bound_.query, bound_.dag, bound_.config,
                 engine_, context_, mining_pool_)
          .summary;

  // New diff baseline, keyed by the grouping pattern's canonical
  // rendering (value-based — survives the dictionary re-coding of
  // window compaction).
  std::map<std::string, SideEffects> effects;
  std::vector<std::string> topk;
  for (const Explanation& e : summary.explanations) {
    const std::string key = e.grouping_pattern.ToString();
    topk.push_back(key);
    SideEffects& side = effects[key];
    if (e.positive.has_value()) {
      side.has_positive = true;
      side.positive = e.positive->effect.cate;
    }
    if (e.negative.has_value()) {
      side.has_negative = true;
      side.negative = e.negative->effect.cate;
    }
  }

  if (spec_.emit_summaries) {
    JsonWriter w;
    const uint64_t seq =
        BeginEventLocked(w, "summary", window_index, window_begin, window_end);
    w.Key("summary").Raw(SummaryToJson(summary, &bound_.query));
    PushEventLocked(seq, w);
  }

  // Drift detection needs a previous window to compare against; the
  // first evaluated window only installs the baseline.
  if (have_prev_) {
    if (spec_.thresholds.cate_delta > 0.0) {
      for (const auto& [key, side] : effects) {
        auto it = prev_effects_.find(key);
        if (it == prev_effects_.end()) continue;
        const SideEffects& prev = it->second;
        const struct {
          const char* name;
          bool both;
          double before;
          double after;
        } sides[] = {
            {"positive", side.has_positive && prev.has_positive,
             prev.positive, side.positive},
            {"negative", side.has_negative && prev.has_negative,
             prev.negative, side.negative},
        };
        for (const auto& s : sides) {
          if (!s.both) continue;
          const double delta = std::fabs(s.after - s.before);
          if (delta < spec_.thresholds.cate_delta) continue;
          JsonWriter w;
          const uint64_t seq = BeginEventLocked(w, "cate_drift", window_index,
                                                window_begin, window_end);
          w.Key("grouping").String(key);
          w.Key("side").String(s.name);
          w.Key("cate_before").Double(s.before);
          w.Key("cate_after").Double(s.after);
          w.Key("delta").Double(delta);
          PushEventLocked(seq, w);
        }
      }
    }
    if (spec_.thresholds.topk_churn > 0.0 && !topk.empty()) {
      const std::set<std::string> prev_set(prev_topk_.begin(),
                                           prev_topk_.end());
      std::vector<std::string> entered;
      for (const std::string& key : topk) {
        if (prev_set.count(key) == 0) entered.push_back(key);
      }
      const double churn =
          static_cast<double>(entered.size()) / static_cast<double>(topk.size());
      if (churn >= spec_.thresholds.topk_churn) {
        std::vector<std::string> left;
        for (const std::string& key : prev_topk_) {
          if (effects.find(key) == effects.end()) left.push_back(key);
        }
        JsonWriter w;
        const uint64_t seq = BeginEventLocked(w, "topk_churn", window_index,
                                              window_begin, window_end);
        w.Key("churn").Double(churn);
        w.Key("entered").BeginArray();
        for (const std::string& key : entered) w.String(key);
        w.EndArray();
        w.Key("left").BeginArray();
        for (const std::string& key : left) w.String(key);
        w.EndArray();
        PushEventLocked(seq, w);
      }
    }
  }

  prev_effects_ = std::move(effects);
  prev_topk_ = std::move(topk);
  have_prev_ = true;
}

uint64_t StreamMonitor::BeginEventLocked(JsonWriter& w, const char* type,
                                         uint64_t window_index,
                                         uint64_t window_begin,
                                         uint64_t window_end) {
  const uint64_t seq = next_seq_++;
  w.BeginObject()
      .Key("seq").Uint(seq)
      .Key("monitor").String(id_)
      .Key("type").String(type)
      .Key("window_index").Uint(window_index)
      .Key("window_begin").Uint(window_begin)
      .Key("window_end").Uint(window_end);
  return seq;
}

void StreamMonitor::PushEventLocked(uint64_t seq, JsonWriter& w) {
  w.EndObject();
  events_.push_back(MonitorEvent{seq, w.str()});
  while (events_.size() > spec_.max_events) events_.pop_front();
  events_cv_.NotifyAll();
}

MonitorStatus StreamMonitor::Status() const {
  util::MutexLock lock(mu_);
  MonitorStatus s;
  s.id = id_;
  s.table = table();
  s.rows_observed = rows_observed_;
  s.windows_evaluated = windows_evaluated_;
  s.last_seq = next_seq_ - 1;
  s.window_rows = window_table_->NumRows();
  s.events_buffered = events_.size();
  s.cache_bytes = (engine_ != nullptr ? engine_->CacheBytes() : 0) +
                  (context_ != nullptr ? context_->CacheBytes() : 0);
  return s;
}

std::vector<MonitorEvent> StreamMonitor::EventsSinceLocked(
    uint64_t since) const {
  auto it = std::lower_bound(
      events_.begin(), events_.end(), since,
      [](const MonitorEvent& e, uint64_t s) { return e.seq <= s; });
  return std::vector<MonitorEvent>(it, events_.end());
}

std::vector<MonitorEvent> StreamMonitor::EventsSince(uint64_t since) const {
  util::MutexLock lock(mu_);
  return EventsSinceLocked(since);
}

std::vector<MonitorEvent> StreamMonitor::WaitEventsSince(uint64_t since,
                                                         int64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max<int64_t>(0, timeout_ms));
  util::MutexLock lock(mu_);
  // next_seq_ - 1 is the newest assigned seq; wait while nothing newer
  // than `since` exists (re-checking after every wakeup — WaitFor may
  // wake spuriously).
  while (next_seq_ - 1 <= since) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    events_cv_.WaitFor(mu_, deadline - now);
  }
  return EventsSinceLocked(since);
}

std::string StreamMonitor::ExportState() const {
  util::MutexLock lock(mu_);
  ByteWriter w;
  w.PutString(id_);
  w.PutString(spec_.json);
  w.PutU64(origin_);
  w.PutU64(rows_observed_);
  w.PutU64(window_begin_);
  w.PutU64(next_boundary_);
  w.PutU64(windows_evaluated_);
  w.PutU64(next_seq_);
  w.PutU8(have_prev_ ? 1 : 0);
  w.PutVarint(prev_effects_.size());
  for (const auto& [key, side] : prev_effects_) {
    w.PutString(key);
    w.PutU8(static_cast<uint8_t>((side.has_positive ? 1 : 0) |
                                 (side.has_negative ? 2 : 0)));
    if (side.has_positive) w.PutDouble(side.positive);
    if (side.has_negative) w.PutDouble(side.negative);
  }
  w.PutVarint(prev_topk_.size());
  for (const std::string& key : prev_topk_) w.PutString(key);
  w.PutU64(TableContentHash(*window_table_));
  w.PutString(engine_ != nullptr ? engine_->ExportCacheState()
                                 : std::string());
  w.PutString(context_ != nullptr ? context_->ExportMemoState()
                                  : std::string());
  w.PutVarint(events_.size());
  for (const MonitorEvent& e : events_) {
    w.PutU64(e.seq);
    w.PutString(e.json);
  }
  return w.TakeBytes();
}

void StreamMonitor::ImportState(const std::string& bytes,
                                const Table& watched) {
  // Parse and validate everything into locals first: a damaged payload
  // must throw before any member mutates, leaving the fresh monitor
  // untouched (the registry then discards it).
  ByteReader r(bytes);
  if (r.GetString() != id_ || r.GetString() != spec_.json) {
    throw StorageError(StorageErrorKind::kStale,
                       "monitor snapshot: id or spec does not match");
  }
  if (r.GetU64() != origin_) {
    throw StorageError(StorageErrorKind::kStale,
                       "monitor snapshot: stream origin does not match");
  }
  const uint64_t rows_observed = r.GetU64();
  const uint64_t window_begin = r.GetU64();
  const uint64_t next_boundary = r.GetU64();
  const uint64_t windows_evaluated = r.GetU64();
  const uint64_t next_seq = r.GetU64();
  // A live monitor's counters: seqs start at 1, and the next boundary
  // lies ahead on the W, W+S, ... grid, at most W+S past the window
  // start (anything else wraps OnAppend's distance to the boundary).
  const uint64_t size = spec_.window.size_rows;
  const uint64_t slide = spec_.window.slide_rows;
  if (next_seq == 0 || window_begin > rows_observed ||
      rows_observed >= next_boundary ||
      next_boundary - window_begin > size + slide || next_boundary < size ||
      (next_boundary - size) % slide != 0) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "monitor snapshot: inconsistent stream counters");
  }
  const bool have_prev = r.GetU8() != 0;
  std::map<std::string, SideEffects> prev_effects;
  const uint64_t n_effects = r.GetVarint();
  for (uint64_t i = 0; i < n_effects; ++i) {
    std::string key = r.GetString();
    const uint8_t mask = r.GetU8();
    SideEffects side;
    side.has_positive = (mask & 1) != 0;
    if (side.has_positive) side.positive = r.GetDouble();
    side.has_negative = (mask & 2) != 0;
    if (side.has_negative) side.negative = r.GetDouble();
    prev_effects.emplace(std::move(key), side);
  }
  std::vector<std::string> prev_topk;
  const uint64_t n_topk = r.GetVarint();
  for (uint64_t i = 0; i < n_topk; ++i) prev_topk.push_back(r.GetString());
  const uint64_t window_hash = r.GetU64();
  const std::string engine_state = r.GetString();
  const std::string memo_state = r.GetString();
  std::deque<MonitorEvent> events;
  const uint64_t n_events = r.GetVarint();
  uint64_t last = 0;
  for (uint64_t i = 0; i < n_events; ++i) {
    MonitorEvent e;
    e.seq = r.GetU64();
    e.json = r.GetString();
    if (e.seq <= last || e.seq >= next_seq) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "monitor snapshot: event seqs not monotone");
    }
    last = e.seq;
    events.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "monitor snapshot: trailing bytes");
  }
  if (origin_ > watched.NumRows() ||
      rows_observed > watched.NumRows() - origin_) {
    throw StorageError(StorageErrorKind::kStale,
                       "monitor snapshot: watched table is behind the "
                       "checkpoint");
  }

  {
    util::MutexLock lock(mu_);
    // Rebuild the window as the live monitor did, by appending to the
    // empty window table; the hash binds the checkpoint to these rows.
    Table window = window_table_->Clone();
    window.AppendRows(watched.MaterializeRows(
        static_cast<size_t>(origin_ + window_begin),
        static_cast<size_t>(origin_ + rows_observed)));
    if (TableContentHash(window) != window_hash) {
      throw StorageError(StorageErrorKind::kStale,
                         "monitor snapshot: window rows differ from the "
                         "watched table");
    }
    window_table_ = std::make_shared<const Table>(std::move(window));
    if (window_table_->NumRows() > 0) {
      BuildColdCachesLocked();
      try {
        if (!engine_state.empty()) engine_->ImportCacheState(engine_state);
        if (!memo_state.empty()) context_->ImportMemoState(memo_state);
      } catch (const StorageError&) {
        // Configuration skew (e.g. the cache was exported under a
        // different shard plan): rebuild cold. Summaries stay
        // bit-identical either way — only warmth is lost.
        BuildColdCachesLocked();
      }
    }
    rows_observed_ = rows_observed;
    window_begin_ = window_begin;
    next_boundary_ = next_boundary;
    windows_evaluated_ = windows_evaluated;
    next_seq_ = next_seq;
    have_prev_ = have_prev;
    prev_effects_ = std::move(prev_effects);
    prev_topk_ = std::move(prev_topk);
    events_ = std::move(events);
    events_cv_.NotifyAll();
  }

  // Catch up: replay the table rows appended after the checkpoint.
  OnAppend(watched.MaterializeRows(
      static_cast<size_t>(origin_ + rows_observed), watched.NumRows()));
}

MonitorRegistry::MonitorRegistry(ExplanationService& service)
    : service_(service) {
  service_.AddAppendObserver(
      [this](const std::string& name,
             const std::vector<std::vector<Value>>& rows,
             const std::shared_ptr<const Table>&) { OnAppend(name, rows); });
}

std::shared_ptr<StreamMonitor> MonitorRegistry::Create(
    const std::string& spec_json) {
  // Resolve the watched table first so an unknown table throws before an
  // id is consumed.
  MonitorSpec spec = MonitorSpec::Parse(spec_json);
  const std::shared_ptr<const Table> bound =
      service_.GetTable(spec.explain.table);
  std::string id;
  {
    util::MutexLock lock(mu_);
    id = "m" + std::to_string(next_id_++);
  }
  auto monitor = std::make_shared<StreamMonitor>(id, std::move(spec), *bound,
                                                 &service_.pool());
  {
    util::MutexLock lock(mu_);
    monitors_[id] = monitor;
  }
  return monitor;
}

std::shared_ptr<StreamMonitor> MonitorRegistry::Get(
    const std::string& id) const {
  util::MutexLock lock(mu_);
  auto it = monitors_.find(id);
  return it == monitors_.end() ? nullptr : it->second;
}

bool MonitorRegistry::Remove(const std::string& id) {
  util::MutexLock lock(mu_);
  return monitors_.erase(id) > 0;
}

std::vector<std::shared_ptr<StreamMonitor>> MonitorRegistry::List() const {
  util::MutexLock lock(mu_);
  std::vector<std::shared_ptr<StreamMonitor>> out;
  out.reserve(monitors_.size());
  for (const auto& [id, monitor] : monitors_) out.push_back(monitor);
  return out;
}

void MonitorRegistry::OnAppend(const std::string& name,
                               const std::vector<std::vector<Value>>& rows) {
  // Snapshot the matching monitors under the lock, deliver outside it
  // (monitor processing mines summaries — far too heavy for mu_).
  std::vector<std::shared_ptr<StreamMonitor>> targets;
  {
    util::MutexLock lock(mu_);
    for (const auto& [id, monitor] : monitors_) {
      if (monitor->table() == name) targets.push_back(monitor);
    }
  }
  for (const auto& monitor : targets) monitor->OnAppend(rows);
}

std::string MonitorRegistry::SnapshotFilePath() const {
  if (service_.options().data_dir.empty()) {
    throw std::logic_error("monitor registry: no data_dir configured");
  }
  return service_.options().data_dir + "/" + kMonitorSnapshotFile;
}

size_t MonitorRegistry::SaveSnapshot() {
  const std::string path = SnapshotFilePath();
  const std::vector<std::shared_ptr<StreamMonitor>> monitors = List();
  std::map<std::string, std::string> kept;
  uint64_t next_id = 1;
  {
    util::MutexLock lock(mu_);
    next_id = next_id_;
    kept = kept_;
  }
  SnapshotWriter writer(kMonitorSnapshotKind, kMonitorSnapshotVersion, "");
  {
    ByteWriter w;
    w.PutU64(next_id);
    writer.AddSection("registry", w.TakeBytes());
  }
  size_t index = 0;
  for (const auto& monitor : monitors) {
    writer.AddSection(StrFormat("monitor/%zu", index++),
                      monitor->ExportState());
  }
  for (const auto& [id, state] : kept) {
    writer.AddSection(StrFormat("monitor/%zu", index++), state);
  }
  const std::string bytes = writer.Serialize();
  {
    util::MutexLock lock(snapshot_mu_);
    WriteFileDurable(path, bytes);
  }
  return bytes.size();
}

size_t MonitorRegistry::RestoreMonitors() {
  const std::string path = SnapshotFilePath();
  if (!FileExists(path)) return 0;
  std::optional<SnapshotReader> snap;
  try {
    snap.emplace(SnapshotReader::ReadFile(path, kMonitorSnapshotKind,
                                          kMonitorSnapshotVersion));
    // Restored ids must never be handed out again.
    const uint64_t next_id = ByteReader(snap->Section("registry")).GetU64();
    util::MutexLock lock(mu_);
    next_id_ = std::max(next_id_, next_id);
  } catch (const StorageError&) {
    // Damaged, foreign or older-format file: every monitor in it is
    // lost. How many it held is unknowable, so the loss counts once.
    n_skipped_on_restore_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  size_t restored = 0;
  for (const std::string& name : snap->SectionNames()) {
    if (name.rfind("monitor/", 0) != 0) continue;
    const std::string& state = snap->Section(name);
    std::string id;
    bool stale = false;
    try {
      ByteReader r(state);
      id = r.GetString();
      MonitorSpec spec = MonitorSpec::Parse(r.GetString());
      const uint64_t origin = r.GetU64();
      stale = true;  // it reads; what fails now is the table match
      // Throws when the watched table is no longer registered — the
      // monitor is skipped rather than restored against nothing.
      const std::shared_ptr<const Table> watched =
          service_.GetTable(spec.explain.table);
      // Bind to the creation-time rows (a "discover" DAG is learned
      // from them); a table shorter than `origin` fails ImportState.
      auto monitor = std::make_shared<StreamMonitor>(
          id, std::move(spec),
          watched->Head(static_cast<size_t>(origin)), &service_.pool());
      monitor->ImportState(state, *watched);
      {
        util::MutexLock lock(mu_);
        monitors_[id] = monitor;
        kept_.erase(id);
      }
      ++restored;
      continue;
    } catch (const StorageError& e) {
      stale = stale && e.kind() == StorageErrorKind::kStale;
    } catch (const std::exception&) {
    }
    // Skipped; a stale checkpoint is kept to resume with a later table.
    n_skipped_on_restore_.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lock(mu_);
    if (stale && monitors_.count(id) == 0) kept_[id] = state;
  }
  return restored;
}

MonitorRegistryStats MonitorRegistry::Stats() const {
  MonitorRegistryStats s;
  s.skipped_on_restore = n_skipped_on_restore_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace causumx
