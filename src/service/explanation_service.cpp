#include "service/explanation_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "causal/dag_io.h"
#include "dataset/table_io.h"
#include "storage/bytes.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/string_utils.h"

namespace causumx {

namespace {

// Canonical fingerprint of a context key: the DAG structure (sorted
// nodes and edges) plus every estimator knob. Structurally equal pairs
// share one EstimatorContext — and hence one CATE memo.
std::string ContextKey(const CausalDag& dag, const EstimatorOptions& opt) {
  std::vector<std::string> nodes = dag.nodes();
  std::sort(nodes.begin(), nodes.end());
  std::string key;
  for (const auto& n : nodes) {
    key += n;
    key.push_back('>');
    std::vector<std::string> children = dag.Children(n);
    std::sort(children.begin(), children.end());
    for (const auto& c : children) {
      key += c;
      key.push_back(',');
    }
    key.push_back(';');
  }
  key += StrFormat("|g%zu|s%zu|e%llu|h%zu|m%d|c%.17g", opt.min_group_size,
                   opt.sample_cap, (unsigned long long)opt.sample_seed,
                   opt.max_onehot_levels, static_cast<int>(opt.method),
                   opt.propensity_clip);
  return key;
}

// The engine-configuration suffix of a warm-snapshot key. Every service
// engine plans one shard per pool worker ("s0") and caches ("c1"); "z0"
// named the segment compression policy of earlier releases. The tags
// stay literal so data dirs written while they were options still
// restore warm.
constexpr char kEngineConfigSuffix[] = "|s0|c1|z0";

// The content part of a warm-snapshot key, from the TableContentHash.
std::string HashTag(uint64_t content_hash) {
  return StrFormat("h%016llx", (unsigned long long)content_hash);
}

std::string HashTag(const Table& table) {
  return HashTag(TableContentHash(table));
}

// A warm snapshot's identity: its rows, then the engine configuration.
// No data version: the same rows restore warm however they were built.
std::string WarmSnapshotKey(const Table& table) {
  return HashTag(table) + kEngineConfigSuffix;
}

// The one key check: `key` starts with the table's `h<content hash>`
// and ends with the config suffix (so older `h…|vN|s…` keys match).
bool KeyMatches(const std::string& key, const std::string& hash_tag) {
  return key.starts_with(hash_tag) && key.ends_with(kEngineConfigSuffix);
}

// Warm-state snapshot container identity (storage/snapshot.h).
constexpr char kWarmSnapshotKind[] = "causumx-snapshot";
constexpr uint32_t kWarmSnapshotVersion = 1;

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// The estimator knobs travel inside each context section so a restored
// context is constructed with exactly the options it was built under
// (ContextKey re-derivation then cross-checks them).
void PutEstimatorOptions(ByteWriter* w, const EstimatorOptions& opt) {
  w->PutVarint(opt.min_group_size);
  w->PutVarint(opt.sample_cap);
  w->PutU64(opt.sample_seed);
  w->PutVarint(opt.max_onehot_levels);
  w->PutU8(static_cast<uint8_t>(opt.method));
  w->PutDouble(opt.propensity_clip);
}

EstimatorOptions GetEstimatorOptions(ByteReader* r) {
  EstimatorOptions opt;
  opt.min_group_size = static_cast<size_t>(r->GetVarint());
  opt.sample_cap = static_cast<size_t>(r->GetVarint());
  opt.sample_seed = r->GetU64();
  opt.max_onehot_levels = static_cast<size_t>(r->GetVarint());
  const uint8_t method = r->GetU8();
  if (method > static_cast<uint8_t>(EstimationMethod::kIpw)) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "snapshot: unknown estimation method tag");
  }
  opt.method = static_cast<EstimationMethod>(method);
  opt.propensity_clip = r->GetDouble();
  return opt;
}

// Accounted bytes of a pattern's predicates.
size_t PatternBytes(const Pattern& p) {
  size_t bytes = sizeof(Pattern);
  for (const SimplePredicate& pred : p.predicates()) {
    bytes += sizeof(SimplePredicate) + pred.attribute.size() +
             (pred.value.is_string() ? pred.value.AsString().size() : 0);
  }
  return bytes;
}

// Accounted bytes of a mined result held under `key`: the view's row
// index and group rows, the candidates' coverage bitsets and patterns,
// and the partition's names. An estimate in the spirit of the memo's
// EntryBytes, not an allocator measurement.
size_t MinedBytes(const std::string& key, const CandidateMiningResult& r,
                  size_t table_rows) {
  size_t bytes = sizeof(CandidateMiningResult) + 2 * key.size() + 64;
  bytes += table_rows * sizeof(int32_t);  // the view's row -> group index
  for (const GroupResult& g : r.view.groups()) {
    bytes += sizeof(GroupResult) + g.key.size() * sizeof(Value) +
             g.rows.size() * sizeof(size_t);
  }
  for (const Explanation& e : r.candidates) {
    bytes += sizeof(Explanation) + e.group_coverage.num_words() * 8 +
             PatternBytes(e.grouping_pattern);
    if (e.positive) bytes += PatternBytes(e.positive->pattern);
    if (e.negative) bytes += PatternBytes(e.negative->pattern);
  }
  for (const auto* names : {&r.partition.grouping_attributes,
                            &r.partition.treatment_attributes}) {
    for (const std::string& n : *names) bytes += sizeof(std::string) + n.size();
  }
  return bytes;
}

}  // namespace

ExplanationService::CandidateCache::Mined
ExplanationService::CandidateCache::GetOrMine(
    const std::string& key,
    const std::function<std::pair<Mined, size_t>()>& mine, bool* mined_here) {
  std::optional<std::promise<Mined>> promise;  // set when this call mines
  std::shared_future<Mined> existing;
  {
    util::MutexLock lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    it->second.last_use = ++clock_;
    if (inserted) {
      it->second.mined = promise.emplace().get_future().share();
    } else {
      existing = it->second.mined;
    }
  }
  *mined_here = promise.has_value();
  // Waiting blocks this thread, never a mine: mining calls no
  // GetOrMine, and a pool-parallel mine finishes on its own caller.
  if (!promise) return existing.get();
  try {
    auto [mined, bytes] = mine();
    {
      util::MutexLock lock(mu_);
      Entry& entry = entries_.at(key);  // pending entries are never evicted
      entry.ready = true;
      entry.bytes = bytes;
      bytes_ += bytes;
    }
    promise->set_value(mined);
    return mined;
  } catch (...) {
    {
      util::MutexLock lock(mu_);
      entries_.erase(key);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

size_t ExplanationService::CandidateCache::CacheBytes() const {
  util::MutexLock lock(mu_);
  return bytes_;
}

size_t ExplanationService::CandidateCache::EvictLru(size_t bytes_to_free) {
  util::MutexLock lock(mu_);
  size_t freed = 0;
  while (freed < bytes_to_free) {
    auto oldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.ready && (oldest == entries_.end() ||
                               it->second.last_use < oldest->second.last_use)) {
        oldest = it;
      }
    }
    if (oldest == entries_.end()) break;
    freed += oldest->second.bytes;
    bytes_ -= oldest->second.bytes;
    entries_.erase(oldest);
  }
  return freed;
}

ExplanationService::ExplanationService(ServiceOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(
          options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                   : options.num_threads)) {
  if (!options_.data_dir.empty()) CreateDirectories(options_.data_dir);
}

EvalEngineOptions ExplanationService::EngineOptions() const {
  return EvalEngineOptions{.num_shards = 0, .pool = pool_};
}

std::shared_ptr<const Table> ExplanationService::RegisterTable(
    const std::string& name, std::shared_ptr<const Table> table) {
  const std::unique_ptr<SnapshotReader> snap =
      options_.data_dir.empty() ? nullptr : ReadWarmSnapshot(name);
  return InstallTable(name, std::move(table), snap.get(),
                      InstallMode::kReplace);
}

std::shared_ptr<const Table> ExplanationService::RegisterTable(
    const std::string& name, Table table) {
  return RegisterTable(name,
                       std::make_shared<const Table>(std::move(table)));
}

std::shared_ptr<const Table> ExplanationService::EnsureCsv(
    const std::string& name, const std::string& path,
    const CsvOptions& csv_options) {
  {
    util::MutexLock lock(mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second.table;
  }
  // Parse outside the lock; concurrent callers may each parse, but only
  // the first registration sticks (never replace a live entry here).
  auto table = std::make_shared<const Table>(ReadCsvFile(path, csv_options));
  const std::unique_ptr<SnapshotReader> snap =
      options_.data_dir.empty() ? nullptr : ReadWarmSnapshot(name);
  return InstallTable(name, std::move(table), snap.get(),
                      InstallMode::kIfAbsent);
}

std::shared_ptr<const Table> ExplanationService::InstallTable(
    const std::string& name, std::shared_ptr<const Table> table,
    const SnapshotReader* snap, InstallMode mode,
    const uint64_t* content_hash) {
  TableEntry entry;
  entry.table = std::move(table);
  entry.engine = std::make_shared<EvalEngine>(entry.table, EngineOptions());
  if (snap != nullptr) {
    const std::string hash_tag = content_hash != nullptr
                                     ? HashTag(*content_hash)
                                     : HashTag(*entry.table);
    bool warm = false;
    try {
      // Never trust a snapshot of other rows or engine configuration.
      if (KeyMatches(snap->key(), hash_tag)) {
        ImportWarmSections(*snap, &entry);
        warm = true;
      }
    } catch (const std::runtime_error&) {
      // Damaged: a partially imported engine is unusable by contract.
      entry.engine =
          std::make_shared<EvalEngine>(entry.table, EngineOptions());
      entry.contexts.clear();
    }
    (warm ? n_snapshots_restored_ : n_snapshots_rejected_)
        .fetch_add(1, std::memory_order_relaxed);
    // A restore keeps the rows cold when only the warm sections are
    // unusable: the key still names this table's content.
    if (!warm && mode == InstallMode::kRestore &&
        !snap->key().starts_with(hash_tag)) {
      return nullptr;
    }
  }
  const std::shared_ptr<const Table> handle = entry.table;
  {
    util::MutexLock lock(mu_);
    auto [it, inserted] = tables_.try_emplace(name);
    if (!inserted && mode == InstallMode::kIfAbsent) return it->second.table;
    it->second = std::move(entry);
  }
  n_tables_.fetch_add(1, std::memory_order_relaxed);
  return handle;
}

bool ExplanationService::HasTable(const std::string& name) const {
  util::MutexLock lock(mu_);
  return tables_.count(name) > 0;
}

void ExplanationService::DropTable(const std::string& name) {
  util::MutexLock lock(mu_);
  tables_.erase(name);
}

std::vector<std::string> ExplanationService::TableNames() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

std::vector<TableDescription> ExplanationService::DescribeTables() const {
  // One registry lock for the whole snapshot; the engine counter reads
  // (atomics + the engine's own interner lock) happen after mu_ is
  // released, keeping the critical section to shared_ptr copies.
  std::vector<std::pair<std::string, TableEntry>> entries;
  {
    util::MutexLock lock(mu_);
    entries.reserve(tables_.size());
    for (const auto& [name, entry] : tables_) entries.emplace_back(name, entry);
  }
  std::vector<TableDescription> out;
  out.reserve(entries.size());
  for (const auto& [name, entry] : entries) {
    TableDescription d;
    d.name = name;
    d.rows = entry.table->NumRows();
    d.columns = entry.table->NumColumns();
    d.version = entry.table->version();
    d.engine = entry.engine->Stats();
    for (const auto& [key, slot] : entry.contexts) {
      d.estimator += slot.context->Stats();
    }
    out.push_back(std::move(d));
  }
  return out;
}

ExplanationService::TableEntry ExplanationService::Snapshot(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::out_of_range("explanation service: unknown table '" + name +
                            "'");
  }
  return it->second;
}

std::shared_ptr<const Table> ExplanationService::GetTable(
    const std::string& name) const {
  return Snapshot(name).table;
}

std::shared_ptr<EvalEngine> ExplanationService::Engine(
    const std::string& name) const {
  return Snapshot(name).engine;
}

ExplanationService::Resolved ExplanationService::Resolve(
    const std::string& name, const CausalDag& dag,
    const EstimatorOptions& options) {
  const std::string key = ContextKey(dag, options);  // built outside the lock
  util::MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::out_of_range("explanation service: unknown table '" + name +
                            "'");
  }
  ContextSlot& slot = it->second.contexts[key];
  if (slot.context == nullptr) {
    slot.context =
        std::make_shared<EstimatorContext>(it->second.engine, dag, options);
    slot.candidates = std::make_shared<CandidateCache>();
  }
  return Resolved{it->second.table, it->second.engine, slot.context,
                  slot.candidates};
}

std::shared_ptr<EstimatorContext> ExplanationService::Context(
    const std::string& name, const CausalDag& dag,
    const EstimatorOptions& options) {
  return Resolve(name, dag, options).context;
}

std::shared_ptr<const Table> ExplanationService::Append(
    const std::string& name, const std::vector<std::vector<Value>>& rows,
    const Table* expected_base) {
  util::MutexLock append_lock(append_mu_);
  return AppendLocked(name, rows, expected_base);
}

std::shared_ptr<const Table> ExplanationService::AppendLocked(
    const std::string& name, const std::vector<std::vector<Value>>& rows,
    const Table* expected_base) {
  const TableEntry base = Snapshot(name);
  if (expected_base != nullptr && base.table.get() != expected_base) {
    throw std::runtime_error("explanation service: table '" + name +
                             "' changed during append");
  }

  // Copy-on-write: clone the snapshot and append to the clone, so every
  // in-flight query keeps reading a consistent base. All the expensive
  // work — the clone, the delta evaluation extending each cached bitset,
  // the memo migration — happens outside mu_, concurrently with queries.
  auto grown = std::make_shared<Table>(base.table->Clone());
  grown->AppendRows(rows);
  std::shared_ptr<const Table> new_table = std::move(grown);

  TableEntry entry;
  entry.table = new_table;
  entry.engine = std::make_shared<EvalEngine>(new_table, *base.engine);
  // The CATE memos migrate; mined candidates describe the old rows and
  // start empty.
  for (const auto& [key, slot] : base.contexts) {
    entry.contexts[key] = ContextSlot{
        std::make_shared<EstimatorContext>(entry.engine, *slot.context),
        std::make_shared<CandidateCache>()};
  }

  {
    util::MutexLock lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end() || it->second.table != base.table) {
      // RegisterTable/DropTable replaced the entry mid-append. Installing
      // would silently clobber the newer registration, so refuse.
      throw std::runtime_error("explanation service: table '" + name +
                               "' changed during append");
    }
    it->second = std::move(entry);
  }
  n_appends_.fetch_add(1, std::memory_order_relaxed);
  n_rows_appended_.fetch_add(rows.size(), std::memory_order_relaxed);
  // Deliver the landed batch to the append observers, still under
  // append_mu_: deliveries are totally ordered and never concurrent, so
  // a windowed monitor replays the exact append sequence. A throwing
  // observer must not unwind an append that already landed.
  for (const AppendObserver& observer : append_observers_) {
    try {
      observer(name, rows, new_table);
    } catch (...) {
      n_observer_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  EnforceBudget();
  if (!options_.data_dir.empty() && options_.snapshot_on_append) {
    // The append has landed in memory; a snapshot write failure must not
    // unwind it. The previous snapshot stays durable and self-consistent
    // (it holds the pre-append rows, so a restart over the grown table
    // rejects it and rebuilds cold — correct, just not warm).
    try {
      SaveSnapshot(name);
    } catch (const StorageError&) {
      n_snapshot_write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return new_table;
}

std::shared_ptr<const Table> ExplanationService::AppendCsv(
    const std::string& name, const std::string& path,
    const CsvOptions& csv_options, size_t* rows_appended) {
  // Snapshot and parse inside the append lock: the delta is validated
  // against this snapshot's schema and pinned to it, and a concurrent
  // append (which cannot change the schema) serializes behind us instead
  // of tripping the pinned-snapshot check.
  util::MutexLock append_lock(append_mu_);
  const std::shared_ptr<const Table> schema = Snapshot(name).table;
  const auto rows = ReadCsvDeltaFile(*schema, path, csv_options);
  if (rows_appended != nullptr) *rows_appended = rows.size();
  return AppendLocked(name, rows, schema.get());
}

uint64_t ExplanationService::TableVersion(const std::string& name) const {
  return Snapshot(name).table->version();
}

void ExplanationService::AddAppendObserver(AppendObserver observer) {
  util::MutexLock lock(append_mu_);
  append_observers_.push_back(std::move(observer));
}

std::string ExplanationService::SnapshotPath(const std::string& name) const {
  if (options_.data_dir.empty()) {
    throw std::logic_error("explanation service: no data_dir configured");
  }
  return options_.data_dir + "/" + EncodeFileStem(name) + ".snap";
}

size_t ExplanationService::SaveSnapshot(const std::string& name) {
  const std::string path = SnapshotPath(name);
  const TableEntry entry = Snapshot(name);
  // All export work happens on the captured entry, outside every lock of
  // this class (the engine and contexts synchronize themselves).
  SnapshotWriter writer(kWarmSnapshotKind, kWarmSnapshotVersion,
                        WarmSnapshotKey(*entry.table));
  writer.AddSection("table", SerializeTable(*entry.table));
  writer.AddSection("engine", entry.engine->ExportCacheState());
  size_t ctx_index = 0;
  for (const auto& [key, slot] : entry.contexts) {
    const EstimatorContext& ctx = *slot.context;
    ByteWriter w;
    w.PutString(key);
    w.PutString(DagToText(ctx.dag()));
    PutEstimatorOptions(&w, ctx.options());
    w.PutString(ctx.ExportMemoState());
    writer.AddSection(StrFormat("ctx/%zu", ctx_index++), w.TakeBytes());
  }
  const std::string bytes = writer.Serialize();
  {
    util::MutexLock lock(snapshot_mu_);
    WriteFileDurable(path, bytes);
  }
  n_snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  last_snapshot_unix_ms_.store(NowUnixMs(), std::memory_order_relaxed);
  return bytes.size();
}

size_t ExplanationService::SaveAllSnapshots() {
  size_t written = 0;
  for (const std::string& name : TableNames()) {
    try {
      SaveSnapshot(name);
      ++written;
    } catch (const std::out_of_range&) {
      // Dropped between the listing and the save; nothing to persist.
    }
  }
  return written;
}

std::unique_ptr<SnapshotReader> ExplanationService::ReadWarmSnapshot(
    const std::string& name) {
  const std::string path = SnapshotPath(name);
  if (!FileExists(path)) return nullptr;
  try {
    return std::make_unique<SnapshotReader>(SnapshotReader::ReadFile(
        path, kWarmSnapshotKind, kWarmSnapshotVersion));
  } catch (const std::runtime_error&) {
    n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

void ExplanationService::ImportWarmSections(const SnapshotReader& snap,
                                            TableEntry* entry) {
  entry->engine->ImportCacheState(snap.Section("engine"));
  for (const std::string& section : snap.SectionNames()) {
    if (section.rfind("ctx/", 0) != 0) continue;
    ByteReader r(snap.Section(section));
    const std::string key = r.GetString();
    const std::string dag_text = r.GetString();
    const EstimatorOptions opt = GetEstimatorOptions(&r);
    const std::string memo = r.GetString();
    if (!r.AtEnd()) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "snapshot: trailing bytes in context section");
    }
    const CausalDag dag = ParseDagText(dag_text);
    if (ContextKey(dag, opt) != key) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "snapshot: context fingerprint does not match its "
                         "DAG and options");
    }
    auto ctx = std::make_shared<EstimatorContext>(entry->engine, dag, opt);
    ctx->ImportMemoState(memo);
    const ContextSlot slot{std::move(ctx), std::make_shared<CandidateCache>()};
    if (!entry->contexts.emplace(key, slot).second) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "snapshot: duplicate context section");
    }
  }
}

bool ExplanationService::RestoreTable(const std::string& name) {
  const std::unique_ptr<SnapshotReader> snap = ReadWarmSnapshot(name);
  if (snap == nullptr) return false;
  std::shared_ptr<const Table> table;
  uint64_t content_hash = 0;
  try {
    // The embedded table self-verifies against its own container key;
    // InstallTable's key check then binds the warm sections to it, so
    // an engine section spliced onto another table cannot pass.
    table = std::make_shared<const Table>(
        DeserializeTable(snap->Section("table"), &content_hash));
  } catch (const std::runtime_error&) {
    n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return InstallTable(name, std::move(table), snap.get(),
                      InstallMode::kRestore, &content_hash) != nullptr;
}

size_t ExplanationService::RestoreAll() {
  if (options_.data_dir.empty()) {
    throw std::logic_error("explanation service: no data_dir configured");
  }
  size_t restored = 0;
  for (const std::string& file : ListDirFiles(options_.data_dir)) {
    constexpr std::string_view kSuffix = ".snap";
    if (file.size() <= kSuffix.size() || !file.ends_with(kSuffix)) {
      continue;  // stray .tmp from a killed writer, or foreign files
    }
    std::string name;
    try {
      name = DecodeFileStem(file.substr(0, file.size() - kSuffix.size()));
    } catch (const StorageError&) {
      n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (RestoreTable(name)) ++restored;
  }
  return restored;
}

std::shared_ptr<const CandidateMiningResult>
ExplanationService::MinedCandidates(const Resolved& entry,
                                    const GroupByAvgQuery& query,
                                    const CausalDag& dag,
                                    const CauSumXConfig& config,
                                    bool* hit) {
  const std::string key = MiningKey(query, config);
  bool mined_here = false;
  std::shared_ptr<const CandidateMiningResult> mined =
      entry.candidates->GetOrMine(
          key,
          [&] {
            n_candidate_misses_.fetch_add(1, std::memory_order_relaxed);
            auto result = std::make_shared<const CandidateMiningResult>(
                MineExplanationCandidates(*entry.table, query, dag, config,
                                          entry.engine, entry.context));
            const size_t bytes =
                MinedBytes(key, *result, entry.table->NumRows());
            return std::pair<CandidateCache::Mined, size_t>(std::move(result),
                                                            bytes);
          },
          &mined_here);
  if (!mined_here) n_candidate_hits_.fetch_add(1, std::memory_order_relaxed);
  if (hit != nullptr) *hit = !mined_here;
  return mined;
}

CauSumXResult ExplanationService::Explain(const std::string& table_name,
                                          const GroupByAvgQuery& query,
                                          const CausalDag& dag,
                                          const CauSumXConfig& config) {
  Resolved entry = Resolve(table_name, dag, config.estimator);

  // Mining runs on the engine's pool, the service pool (nested
  // ParallelFor from a pool worker is deadlock-safe because callers
  // participate); phase 3 runs on this thread.
  bool hit = false;
  const std::shared_ptr<const CandidateMiningResult> mined =
      MinedCandidates(entry, query, dag, config, &hit);
  CauSumXResult result = ResultFromCandidates(*mined, config);
  if (!hit) {
    for (const auto& [phase, seconds] : mined->timings.phases()) {
      result.timings.Add(phase, seconds);
    }
  }
  result.cache_stats.eval = entry.engine->Stats();
  result.cache_stats.estimator = entry.context->Stats();
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  EnforceBudget();
  return result;
}

std::future<CauSumXResult> ExplanationService::ExplainAsync(
    const std::string& table_name, GroupByAvgQuery query, CausalDag dag,
    CauSumXConfig config) {
  auto task = std::make_shared<std::packaged_task<CauSumXResult()>>(
      [this, table_name, query = std::move(query), dag = std::move(dag),
       config = std::move(config)] {
        return Explain(table_name, query, dag, config);
      });
  std::future<CauSumXResult> future = task->get_future();
  pool_->Submit([task] { (*task)(); });
  return future;
}

std::vector<ScoredTreatment> ExplanationService::TopTreatments(
    const std::string& table_name, const GroupByAvgQuery& query,
    const CausalDag& dag, const CauSumXConfig& config,
    const Pattern& grouping_pattern, TreatmentSign sign, size_t k) {
  const Resolved entry = Resolve(table_name, dag, config.estimator);
  const std::shared_ptr<const CandidateMiningResult> mined =
      MinedCandidates(entry, query, dag, config);
  Bitset rows;
  if (grouping_pattern.IsEmpty()) {
    rows = Bitset(entry.table->NumRows());
    rows.SetAll();
  } else {
    rows = entry.engine->Evaluate(grouping_pattern);
  }
  const std::vector<std::string>& treatment_attrs =
      config.treatment_attribute_allowlist.empty()
          ? mined->partition.treatment_attributes
          : config.treatment_attribute_allowlist;
  const TreatmentAtoms atoms =
      CausalTreatmentAtoms(*entry.context, query.avg_attribute,
                           treatment_attrs, config.treatment);
  std::vector<ScoredTreatment> top =
      MineTopKTreatments(*entry.context, rows, query.avg_attribute, atoms,
                         sign, k, config.treatment);
  EnforceBudget();
  return top;
}

std::vector<ExplanationService::TableEntry> ExplanationService::Entries()
    const {
  util::MutexLock lock(mu_);
  std::vector<TableEntry> entries;
  entries.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) entries.push_back(entry);
  return entries;
}

size_t ExplanationService::CacheBytes() const {
  size_t total = 0;
  for (const TableEntry& entry : Entries()) {
    total += entry.engine->CacheBytes();
    for (const auto& [key, slot] : entry.contexts) {
      total += slot.context->CacheBytes() + slot.candidates->CacheBytes();
    }
  }
  return total;
}

size_t ExplanationService::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return 0;
  // Work on a snapshot: eviction never needs the registry lock, so it can
  // run while other threads query. Races just mean a cache refills after
  // eviction; the next enforcement pass catches it.
  // Every evictable cache as a (bytes, evict) pair.
  struct Consumer {
    std::function<size_t()> bytes;
    std::function<size_t(size_t)> evict;
  };
  std::vector<Consumer> consumers;
  for (const TableEntry& entry : Entries()) {
    auto add = [&consumers](const auto& cache) {
      consumers.push_back(
          {[cache] { return cache->CacheBytes(); },
           [cache](size_t bytes) { return cache->EvictLru(bytes); }});
    };
    add(entry.engine);
    for (const auto& [key, slot] : entry.contexts) {
      add(slot.context);
      add(slot.candidates);
    }
  }
  auto total = [&] {
    size_t t = 0;
    for (const Consumer& c : consumers) t += c.bytes();
    return t;
  };
  size_t freed_total = 0;
  size_t current = total();
  while (current > options_.memory_budget_bytes) {
    // Evict from the single largest consumer; repeat until under budget
    // or nothing is left to evict.
    size_t largest_bytes = 0;
    const Consumer* largest = nullptr;
    for (const Consumer& c : consumers) {
      const size_t b = c.bytes();
      if (b > largest_bytes) {
        largest_bytes = b;
        largest = &c;
      }
    }
    if (largest == nullptr) break;
    const size_t need = current - options_.memory_budget_bytes;
    const size_t freed = largest->evict(std::min(need, largest_bytes));
    if (freed == 0) break;
    freed_total += freed;
    current = total();
  }
  if (freed_total > 0) {
    n_enforcements_.fetch_add(1, std::memory_order_relaxed);
  }
  return freed_total;
}

ServiceStats ExplanationService::Stats() const {
  ServiceStats s;
  s.queries_executed = n_queries_.load(std::memory_order_relaxed);
  s.tables_registered = n_tables_.load(std::memory_order_relaxed);
  s.appends_executed = n_appends_.load(std::memory_order_relaxed);
  s.rows_appended = n_rows_appended_.load(std::memory_order_relaxed);
  s.budget_enforcements = n_enforcements_.load(std::memory_order_relaxed);
  s.candidate_hits = n_candidate_hits_.load(std::memory_order_relaxed);
  s.candidate_misses = n_candidate_misses_.load(std::memory_order_relaxed);
  for (const TableEntry& entry : Entries()) {
    s.cache_bytes += entry.engine->CacheBytes();
    for (const auto& [key, slot] : entry.contexts) {
      const size_t candidate_bytes = slot.candidates->CacheBytes();
      s.candidate_bytes += candidate_bytes;
      s.cache_bytes += slot.context->CacheBytes() + candidate_bytes;
    }
  }
  s.snapshots_written = n_snapshots_written_.load(std::memory_order_relaxed);
  s.snapshots_restored = n_snapshots_restored_.load(std::memory_order_relaxed);
  s.snapshots_rejected = n_snapshots_rejected_.load(std::memory_order_relaxed);
  s.snapshot_write_failures =
      n_snapshot_write_failures_.load(std::memory_order_relaxed);
  s.append_observer_failures =
      n_observer_failures_.load(std::memory_order_relaxed);
  s.last_snapshot_unix_ms =
      last_snapshot_unix_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace causumx
