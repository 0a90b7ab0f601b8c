// Multi-query explanation service with cross-query cache reuse.
//
// RunCauSumX builds its EvalEngine and EstimatorContext from scratch per
// call, so the interned-predicate bitsets and memoized CATEs die with
// each query. ExplanationService owns a registry of loaded tables — each
// with one long-lived shared EvalEngine and one EstimatorContext per
// (DAG, estimator-options) pair — so repeated and overlapping queries
// against the same table are served warm: the second identical query
// costs memo lookups instead of OLS solves (see causumx_bench service).
//
// Each context also keeps the mined candidates (phases 1 + 2) per
// MiningKey, so a query that changes only k, theta or the solver re-runs
// phase 3 alone.
//
// Queries execute concurrently over an internal ThreadPool
// (ExplainAsync / many callers sharing one service); all caches are
// internally synchronized. A configurable memory budget bounds the
// evictable caches (predicate bitsets, CATE memos and mined candidates)
// across all tables:
// after every query the service evicts least-recently-used entries from
// the largest consumers until the accounted bytes fit. Eviction only
// discards cached work — results stay bit-identical.

#ifndef CAUSUMX_SERVICE_EXPLANATION_SERVICE_H_
#define CAUSUMX_SERVICE_EXPLANATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "core/causumx.h"
#include "dataset/csv.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "mining/treatment_miner.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace causumx {

/// Service-wide configuration.
struct ServiceOptions {
  /// Upper bound on the evictable cache bytes (predicate bitset segments,
  /// CATE memo entries and mined candidates) summed over every registered
  /// table.
  /// 0 = unlimited.
  size_t memory_budget_bytes = 0;
  /// Workers of the service pool (0 = hardware concurrency). Every
  /// query mines on it whatever its config's num_threads (phase 3 runs
  /// on the caller), ExplainAsync and batch requests run on it, and each
  /// table's engine plans one row shard per worker (fixed at
  /// registration, kept across appends).
  size_t num_threads = 0;
  /// Directory for durable snapshots (columnar table + warm caches),
  /// created at construction if missing. Empty = persistence off. When
  /// set, registering a table restores its caches from its snapshot of
  /// the same rows (key: content hash + engine configuration, no data
  /// version; other, stale or damaged snapshots are counted and ignored,
  /// never trusted), and RestoreTable/RestoreAll can cold-start tables
  /// from disk alone.
  std::string data_dir;
  /// When data_dir is set: automatically write a fresh snapshot after
  /// every append batch that lands. The previous snapshot stays durable
  /// until the new one is fully on disk (write-to-temp + fsync + atomic
  /// rename), so a crash mid-write never loses the old state.
  bool snapshot_on_append = true;
};

/// Cumulative service counters plus a point-in-time cache snapshot.
struct ServiceStats {
  uint64_t queries_executed = 0;     ///< Explain/ExplainAsync completions
  uint64_t tables_registered = 0;    ///< registrations incl. replacements
  uint64_t appends_executed = 0;     ///< Append/AppendCsv batches landed
  uint64_t rows_appended = 0;        ///< total rows across those batches
  uint64_t budget_enforcements = 0;  ///< enforcement passes that evicted
  size_t cache_bytes = 0;            ///< current accounted evictable bytes
  /// Explains and drill-downs served from mined candidates.
  uint64_t candidate_hits = 0;
  /// Explains and drill-downs that mined (phases 1 + 2) and kept the
  /// result.
  uint64_t candidate_misses = 0;
  /// Accounted bytes of the mined candidates resident now (part of
  /// cache_bytes).
  size_t candidate_bytes = 0;
  uint64_t snapshots_written = 0;    ///< durable snapshots written
  uint64_t snapshots_restored = 0;   ///< warm restores accepted
  uint64_t snapshots_rejected = 0;   ///< stale/corrupt snapshots ignored
  /// Snapshot writes after an append that failed (the append stands;
  /// the previous snapshot stays durable but no longer restores warm).
  uint64_t snapshot_write_failures = 0;
  /// Append observers that threw (the append stands, later observers
  /// still run).
  uint64_t append_observer_failures = 0;
  /// Wall-clock time (unix milliseconds) of the last snapshot written;
  /// 0 = none this process. The REST stats endpoint derives snapshot
  /// age from this.
  uint64_t last_snapshot_unix_ms = 0;
};

/// Point-in-time description of one registered table: identity, shape,
/// data version, and the cache counters of its long-lived engine. This
/// is the service-level view the REST layer serves — server code reads
/// these instead of reaching for EvalEngine itself (the server/ module
/// depends only on service/ and util/, see docs/ARCHITECTURE.md).
struct TableDescription {
  std::string name;       ///< registry key the table was registered under
  size_t rows = 0;        ///< row count at snapshot time
  size_t columns = 0;     ///< column count at snapshot time
  uint64_t version = 0;   ///< data version (bumped by every append)
  EvalEngineStats engine; ///< cache counters of the table's engine
  /// CATE memo and Gram-block counters summed over the table's
  /// estimator contexts (one per DAG and estimator-options pair).
  EstimatorCacheStats estimator;
};

/// A shared, thread-safe registry of tables with warm evaluation caches.
///
/// Thread-safe: registration, Explain/ExplainAsync, and budget
/// enforcement may be called concurrently from any thread.
class ExplanationService {
 public:
  /// Builds an empty registry from `options`; creates a missing data_dir
  /// like `mkdir -p` and throws StorageError(kIo) when it cannot.
  explicit ExplanationService(ServiceOptions options = {});

  ExplanationService(const ExplanationService&) = delete;
  ExplanationService& operator=(const ExplanationService&) = delete;

  // ---- table registry ------------------------------------------------------

  /// Registers (or replaces) a table under `name`; returns the stored
  /// handle. Replacing drops the previous entry's caches.
  std::shared_ptr<const Table> RegisterTable(
      const std::string& name, std::shared_ptr<const Table> table);

  /// Convenience: takes ownership of a table by value.
  std::shared_ptr<const Table> RegisterTable(const std::string& name,
                                             Table table);

  /// As RegisterTable(name, ReadCsvFile(path, csv_options)), but a no-op
  /// returning the existing table when `name` is already registered —
  /// including when a concurrent call registered it while this one was
  /// parsing (first registration wins; the parse is discarded). Batch
  /// requests use this so N requests naming the same CSV never clobber
  /// each other's warm caches.
  std::shared_ptr<const Table> EnsureCsv(const std::string& name,
                                         const std::string& path,
                                         const CsvOptions& csv_options = {});

  /// Whether `name` is currently registered.
  bool HasTable(const std::string& name) const;
  /// Removes the table and drops its caches; no-op when absent.
  void DropTable(const std::string& name);
  /// Names of every registered table (unordered snapshot).
  std::vector<std::string> TableNames() const;

  /// Descriptions of every registered table, captured from one registry
  /// snapshot — callers never race a concurrent DropTable the way a
  /// TableNames + per-name lookup loop would. Engine counters are read
  /// outside the registry lock.
  std::vector<TableDescription> DescribeTables() const
      CAUSUMX_EXCLUDES(mu_);

  /// Registered table by name; throws std::out_of_range on an unknown one.
  std::shared_ptr<const Table> GetTable(const std::string& name) const;

  /// The table's long-lived shared evaluation engine.
  std::shared_ptr<EvalEngine> Engine(const std::string& name) const;

  /// The table's estimator context for this (DAG, options) pair, created
  /// on first use and shared by every later query with the same pair.
  std::shared_ptr<EstimatorContext> Context(const std::string& name,
                                            const CausalDag& dag,
                                            const EstimatorOptions& options);

  // ---- streaming ingestion -------------------------------------------------

  /// Appends `rows` to a registered table under copy-on-write snapshot
  /// semantics: the current snapshot is cloned, the delta appended to the
  /// clone (bumping the table version), and a new registry entry
  /// installed whose EvalEngine is derived from the previous one (every
  /// cached predicate segment carries over, evaluating only the delta
  /// rows) and whose EstimatorContexts carry their CATE memos across
  /// (entries whose subpopulation gained delta rows re-intern and
  /// recompute; the rest stay warm hits). In-flight
  /// queries keep the snapshot they resolved — they see a consistent
  /// version while the append lands; queries starting afterwards see the
  /// new one. Appends serialize against each other; results are
  /// bit-identical to registering the fully rebuilt table from scratch.
  /// A non-null `expected_base` pins the append to that exact snapshot
  /// (callers that validated `rows` against a schema read earlier pass
  /// it, so a concurrent RegisterTable cannot receive stale-typed rows).
  /// Returns the new snapshot. Throws std::out_of_range on an unknown
  /// table and std::runtime_error if the entry was concurrently replaced
  /// (or is no longer `expected_base`) while the append was in progress.
  std::shared_ptr<const Table> Append(
      const std::string& name, const std::vector<std::vector<Value>>& rows,
      const Table* expected_base = nullptr)
      CAUSUMX_EXCLUDES(append_mu_, mu_);

  /// As Append, with the delta read from a CSV file whose header and
  /// cell types are checked against the registered table's schema. The
  /// snapshot is taken and the file parsed *inside* the append lock, so
  /// concurrent AppendCsv calls serialize like any other appends instead
  /// of one failing the pinned-snapshot check. `rows_appended` (optional)
  /// receives the delta row count.
  std::shared_ptr<const Table> AppendCsv(const std::string& name,
                                         const std::string& path,
                                         const CsvOptions& csv_options = {},
                                         size_t* rows_appended = nullptr)
      CAUSUMX_EXCLUDES(append_mu_, mu_);

  /// Monotone data version of the table's current snapshot.
  uint64_t TableVersion(const std::string& name) const;

  /// Callback invoked synchronously after an append batch lands: the
  /// table name, the delta rows exactly as appended, and the new
  /// snapshot. Observers run under the append lock in registration
  /// order, after the new entry is installed — so every observer sees
  /// the append batches of a table in exactly the order they landed and
  /// no two deliveries ever overlap (the stream layer's windowed
  /// monitors depend on both properties). An observer must not call
  /// Append/AppendCsv (self-deadlock on the append lock) and must treat
  /// the rows as read-only. An exception thrown by an observer is
  /// counted (ServiceStats::append_observer_failures), never rethrown: a
  /// landed append is never unwound by observation.
  using AppendObserver = std::function<void(
      const std::string& name, const std::vector<std::vector<Value>>& rows,
      const std::shared_ptr<const Table>& snapshot)>;

  /// Registers `observer` for every future append. Observers cannot be
  /// removed, so whatever the callback captures must outlive the
  /// service's last append (stream/monitor.h's MonitorRegistry — the
  /// canonical user — documents the same requirement to its owner).
  void AddAppendObserver(AppendObserver observer)
      CAUSUMX_EXCLUDES(append_mu_);

  // ---- durable snapshots ---------------------------------------------------

  /// The snapshot file path for `name` under data_dir:
  /// `<data_dir>/<EncodeFileStem(name)>.snap`. Throws std::logic_error
  /// when no data_dir is configured.
  std::string SnapshotPath(const std::string& name) const;

  /// Writes a durable warm-state snapshot of the table: the columnar
  /// table itself, the engine's interned predicate segments, and every
  /// estimator context's CATE memo, all in one crash-safe file (the
  /// previous snapshot is superseded only after the new one is fully on
  /// disk). Returns the bytes written. Throws std::out_of_range on an
  /// unknown table, std::logic_error without a data_dir, and
  /// StorageError(kIo) on write failure.
  size_t SaveSnapshot(const std::string& name);

  /// SaveSnapshot for every registered table; returns how many were
  /// written. A failing write aborts with its StorageError (snapshots
  /// already written stay durable).
  size_t SaveAllSnapshots();

  /// Cold-starts `name` from its durable snapshot alone — no CSV: the
  /// embedded columnar table is decoded and self-verified against the
  /// snapshot's content-hash key, then the warm caches import on top
  /// (re-sliced onto this service's shard plan, so a snapshot written
  /// after appends restores warm too).
  /// Returns false (counting a rejection where a file existed) and
  /// registers nothing when the snapshot is missing, its table section is
  /// damaged, or its key names other content. When only the warm
  /// sections are unusable (another engine configuration, damage), the
  /// checksummed table installs cold, the snapshot counts as rejected,
  /// and the call returns true; warm state is never partially trusted.
  /// Throws std::logic_error without a data_dir.
  bool RestoreTable(const std::string& name);

  /// RestoreTable for every `*.snap` under data_dir; returns how many
  /// tables restored. Unreadable entries are skipped (counted as
  /// rejected), never fatal.
  size_t RestoreAll();

  // ---- query execution -----------------------------------------------------

  /// RunCauSumX over a registered table with the table's shared engine
  /// and estimator context, then enforces the memory budget. Results are
  /// bit-identical to a plain RunCauSumX, but repeat queries are served
  /// warm: a query whose MiningKey was mined before on this table
  /// version, DAG and estimator options reuses those candidates and runs
  /// phase 3 only (its timings then hold "selection" alone). Mining runs
  /// on the service pool, phase 3 on the calling thread.
  CauSumXResult Explain(const std::string& table_name,
                        const GroupByAvgQuery& query, const CausalDag& dag,
                        const CauSumXConfig& config = {});

  /// As Explain, executed on the service pool.
  std::future<CauSumXResult> ExplainAsync(const std::string& table_name,
                                          GroupByAvgQuery query,
                                          CausalDag dag,
                                          CauSumXConfig config = {});

  /// The paper's drill-down: the top-k treatments of `sign` for the
  /// subpopulation `grouping_pattern` selects (need not be a mined
  /// candidate; an empty pattern selects the whole table), ranked by
  /// effect magnitude with duplicate treated sets dropped. The entry
  /// resolves as in Explain and the query's treatment attributes come
  /// from its mined candidates, so the first call mines (a candidate
  /// miss) and later ones reuse them (a hit); the lattice walk then runs
  /// on the table's warm engine and CATE memo, and the memory budget is
  /// enforced as after Explain.
  std::vector<ScoredTreatment> TopTreatments(
      const std::string& table_name, const GroupByAvgQuery& query,
      const CausalDag& dag, const CauSumXConfig& config,
      const Pattern& grouping_pattern, TreatmentSign sign, size_t k);

  // ---- memory budget -------------------------------------------------------

  /// Current accounted evictable cache bytes across all tables.
  size_t CacheBytes() const;

  /// Evicts LRU cache entries (largest consumer first) until the
  /// accounted bytes fit the budget; no-op when unlimited or already
  /// under. Returns the bytes freed. Called automatically after every
  /// Explain.
  size_t EnforceBudget();

  /// Cumulative counters plus a point-in-time cache-bytes snapshot.
  ServiceStats Stats() const;
  /// The options the service was constructed with.
  const ServiceOptions& options() const { return options_; }

  /// The service worker pool (ExplainAsync tasks; batch execution).
  ThreadPool& pool() { return *pool_; }

 private:
  /// Mined candidates of one context slot, keyed by MiningKey: shared
  /// results, byte-accounted and LRU-evictable like the CATE memo. Each
  /// key is mined once: callers that arrive while it is being mined wait
  /// for that result.
  class CandidateCache {
   public:
    /// A shared, read-only mining result.
    using Mined = std::shared_ptr<const CandidateMiningResult>;
    /// The entry for `key`; a lookup refreshes its LRU position. When
    /// the key is absent this call runs `mine`, which returns the result
    /// and its accounted bytes, and `*mined_here` is set. If `mine`
    /// throws, the key is left absent and every caller waiting on it
    /// receives the exception.
    Mined GetOrMine(const std::string& key,
                    const std::function<std::pair<Mined, size_t>()>& mine,
                    bool* mined_here) CAUSUMX_EXCLUDES(mu_);
    /// Accounted bytes of the mined entries.
    size_t CacheBytes() const CAUSUMX_EXCLUDES(mu_);
    /// Drops least-recently-used mined entries (never one still being
    /// mined) until `bytes_to_free` accounted bytes are released or none
    /// is left; returns the bytes freed.
    size_t EvictLru(size_t bytes_to_free) CAUSUMX_EXCLUDES(mu_);

   private:
    struct Entry {
      std::shared_future<Mined> mined;
      bool ready = false;  // false while its first caller mines it
      size_t bytes = 0;
      uint64_t last_use = 0;
    };
    mutable util::Mutex mu_;
    std::map<std::string, Entry> entries_ CAUSUMX_GUARDED_BY(mu_);
    size_t bytes_ CAUSUMX_GUARDED_BY(mu_) = 0;
    uint64_t clock_ CAUSUMX_GUARDED_BY(mu_) = 0;
  };

  /// The caches of one (DAG, estimator options) pair of a table entry.
  struct ContextSlot {
    std::shared_ptr<EstimatorContext> context;
    std::shared_ptr<CandidateCache> candidates;
  };

  struct TableEntry {
    std::shared_ptr<const Table> table;
    std::shared_ptr<EvalEngine> engine;
    /// Keyed by a canonical (DAG structure, estimator options) fingerprint.
    std::map<std::string, ContextSlot> contexts;
  };

  /// A mutually consistent (table, engine, context, candidate cache) for
  /// one query, captured under one registry lock so a concurrent
  /// re-registration of the name cannot hand back a context bound to a
  /// different generation of the table than the one being mined.
  struct Resolved {
    std::shared_ptr<const Table> table;
    std::shared_ptr<EvalEngine> engine;
    std::shared_ptr<EstimatorContext> context;
    std::shared_ptr<CandidateCache> candidates;
  };
  Resolved Resolve(const std::string& name, const CausalDag& dag,
                   const EstimatorOptions& options) CAUSUMX_EXCLUDES(mu_);

  /// The mined candidates of (query, config) on `entry`: from its
  /// candidate cache (after waiting for a concurrent caller that is
  /// mining the same key), else mined on the engine's pool (pool_) and
  /// stored. `hit` (optional) receives whether the cache served them.
  std::shared_ptr<const CandidateMiningResult> MinedCandidates(
      const Resolved& entry, const GroupByAvgQuery& query,
      const CausalDag& dag, const CauSumXConfig& config,
      bool* hit = nullptr);

  /// Copies of every registered entry, taken under one registry lock.
  std::vector<TableEntry> Entries() const CAUSUMX_EXCLUDES(mu_);

  /// Resolves the entry or throws std::out_of_range. Caller holds no lock.
  TableEntry Snapshot(const std::string& name) const CAUSUMX_EXCLUDES(mu_);

  /// Engine configuration for a newly registered table: the shared
  /// pool, one row shard per worker.
  EvalEngineOptions EngineOptions() const;

  /// The snapshot file for `name`, or null when absent or unreadable (the
  /// latter counted as rejected). Throws std::logic_error without a data_dir.
  std::unique_ptr<class SnapshotReader> ReadWarmSnapshot(
      const std::string& name);

  enum class InstallMode {
    kReplace,   ///< RegisterTable: replace; unusable snapshot -> cold
    kIfAbsent,  ///< EnsureCsv: first registration wins; else as kReplace
    kRestore,   ///< RestoreTable: replace when `snap`'s key names the
                ///< table's content; cold when its warm sections fail
  };

  /// The one path that builds and installs an entry: a fresh engine over
  /// `table`, warmed all-or-nothing from `snap` (if given) when the key
  /// matches and the sections import; counts the snapshot either way.
  /// Returns the registered table, or null when nothing was installed.
  std::shared_ptr<const Table> InstallTable(const std::string& name,
                                            std::shared_ptr<const Table> table,
                                            const SnapshotReader* snap,
                                            InstallMode mode)
      CAUSUMX_EXCLUDES(mu_);

  /// Imports the engine + context sections of a validated snapshot into
  /// `entry` (whose engine must be freshly built over the snapshot's
  /// table). Throws StorageError on damage; the entry is unusable then.
  void ImportWarmSections(const SnapshotReader& snap, TableEntry* entry);

  /// Append body; caller holds append_mu_ (but not mu_ — the body takes
  /// mu_ briefly to snapshot and to install, so holding it here would
  /// self-deadlock). See Append for the expected_base contract.
  std::shared_ptr<const Table> AppendLocked(
      const std::string& name, const std::vector<std::vector<Value>>& rows,
      const Table* expected_base)
      CAUSUMX_REQUIRES(append_mu_) CAUSUMX_EXCLUDES(mu_);

  ServiceOptions options_;
  mutable util::Mutex mu_;
  /// Serializes Append/AppendCsv calls (an append clones + extends
  /// outside mu_, so two concurrent appends to one table would otherwise
  /// both extend the same base and one delta would be lost). Queries
  /// never take this lock. Lock order: append_mu_ before mu_, never the
  /// reverse.
  util::Mutex append_mu_;
  /// Serializes durable snapshot writes (WriteFileDurable uses one
  /// `<path>.tmp` per target, so two concurrent saves of one table
  /// would interleave on it). Taken around the file write only, after
  /// all export work; never held together with mu_ or append_mu_ by
  /// this class's code taking another lock inside. Lock order:
  /// append_mu_ / mu_ released before snapshot_mu_ is needed — saves
  /// take it standalone.
  util::Mutex snapshot_mu_;
  std::map<std::string, TableEntry> tables_ CAUSUMX_GUARDED_BY(mu_);
  /// Append observers in registration order; delivered by AppendLocked
  /// (under append_mu_, hence the guard — registration synchronizes
  /// with delivery on the same lock).
  std::vector<AppendObserver> append_observers_
      CAUSUMX_GUARDED_BY(append_mu_);
  /// Shared with every table engine (shard-parallel builds run on it),
  /// so it outlives any engine handed out past the service's lifetime.
  std::shared_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> n_queries_{0};
  std::atomic<uint64_t> n_tables_{0};
  std::atomic<uint64_t> n_appends_{0};
  std::atomic<uint64_t> n_rows_appended_{0};
  std::atomic<uint64_t> n_enforcements_{0};
  std::atomic<uint64_t> n_candidate_hits_{0};
  std::atomic<uint64_t> n_candidate_misses_{0};
  std::atomic<uint64_t> n_snapshots_written_{0};
  std::atomic<uint64_t> n_snapshots_restored_{0};
  std::atomic<uint64_t> n_snapshots_rejected_{0};
  std::atomic<uint64_t> n_snapshot_write_failures_{0};
  std::atomic<uint64_t> n_observer_failures_{0};
  std::atomic<uint64_t> last_snapshot_unix_ms_{0};
};

}  // namespace causumx

#endif  // CAUSUMX_SERVICE_EXPLANATION_SERVICE_H_
