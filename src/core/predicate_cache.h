#ifndef SNOWPRUNE_CORE_PREDICATE_CACHE_H_
#define SNOWPRUNE_CORE_PREDICATE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "storage/table.h"

namespace snowprune {

namespace jit {
struct CompiledPredicate;
}  // namespace jit

/// Predicate caching (§8.2; Schmidt et al., "Predicate Caching", SIGMOD
/// 2024): a repeated query reads only the micro-partitions that produced its
/// rows last time. Two entry kinds share one map, keyed by a plan node's
/// Fingerprint() (table plus bound predicate, literals included):
///   scan entry  -> the partitions where a scan's filter kept >= 1 row.
///                  Exact for any parent operator: every qualifying row
///                  lives in the entry (or in a partition appended since).
///   top-k entry -> the partitions that contributed rows to a TopK's final
///                  heap, keyed by the TopK node.
///
/// When an entry is written. A top-k entry after every finished top-k
/// query. A scan entry only when the scan delivered its *whole* post-filter-
/// pruning scan set: a partition skipped at runtime (top-k boundary, join
/// summary), a scan set narrowed by LIMIT pruning or by a top-k entry's
/// restriction, an early stop (LIMIT), cancellation, a passed deadline or a
/// load fault each block the write — the recorded set would miss
/// qualifying partitions the scan never looked at.
///
/// Refresh, not reset. Insert on a live entry of the same table instance
/// replaces only its partitions and coverage stamp; the hit count and the
/// compiled program (specialization tier) survive, so promotion fires.
///
/// Coverage and DML. Each entry is stamped with what the writing query saw
/// at compile time: the table's partition count and Table::dml_version().
///   INSERT (append)               -> safe; partitions past the stamped
///                                    count are added to the scan set at
///                                    lookup time.
///   UPDATE, notified (OnUpdate)   -> invalidates entries whose ORDER BY
///                                    column or predicate columns include
///                                    the updated column (rows may reorder
///                                    or newly qualify anywhere); others
///                                    are restamped.
///   DELETE, notified (OnDelete)   -> a top-k entry holding the partition
///                                    is invalidated (the k+1-th row may
///                                    live elsewhere); a scan entry drops
///                                    it; surviving ids are remapped.
///   DeletePartition/ReplacePartition with no notification
///                                 -> Lookup misses: the table's DML
///                                    version moved past the stamp.
/// A notification applies to (and restamps) an entry exactly one DML
/// version behind the table; an entry already at the table's version is
/// left alone (it was written after the change), and one further behind
/// missed a change and is dropped. ReplaceTable installs a new table
/// instance, which never matches an older entry.
///
/// Thread safety: the cache is shared by every engine pointed at it, and
/// engines may run queries concurrently; all operations (including the
/// hit/miss counters) synchronize on one internal mutex. The lock
/// discipline is compile-checked: every entry map, counter, and in-flight
/// record is SNOW_GUARDED_BY(mutex_).
///
/// Top-k population is *coalesced*: a plain Lookup/Insert pair is
/// individually atomic but a miss→recompute→Insert sequence is not, so
/// concurrent identical queries would recompute the same entry in parallel
/// (benign — last insert wins — but duplicated work). LookupOrPopulate
/// closes that window: the first thread to miss a fingerprint becomes the
/// populating owner (it receives a PopulateTicket and is expected to
/// Insert), and every other thread asking for the same fingerprint blocks
/// until the owner publishes — then hits — or abandons the ticket — then
/// one waiter takes over as the new owner. Scan entries use the
/// non-blocking pair only.
class PredicateCache {
  /// An in-flight coalesced population: waiters block on `cv` until the
  /// owner publishes (Insert) or abandons (ticket destruction). Private;
  /// declared first so PopulateTicket can hold a reference to one.
  /// `resolved` is guarded by the owning cache's mutex_ (a nested struct
  /// cannot name the outer member in an annotation; waiters only ever read
  /// it in LookupOrPopulate's wait loop, under that mutex).
  struct InFlight {
    CondVar cv;
    bool resolved = false;
  };

 public:
  /// Ownership handle for a coalesced population (see LookupOrPopulate).
  /// Destroying an unpublished ticket abandons the population and releases
  /// any waiters, so error paths can never strand them. Move-only.
  class PopulateTicket {
   public:
    PopulateTicket() = default;
    ~PopulateTicket() { Abandon(); }
    PopulateTicket(PopulateTicket&& other) noexcept
        : cache_(other.cache_),
          fingerprint_(std::move(other.fingerprint_)),
          state_(std::move(other.state_)) {
      other.cache_ = nullptr;
    }
    PopulateTicket& operator=(PopulateTicket&& other) noexcept {
      if (this != &other) {
        Abandon();
        cache_ = other.cache_;
        fingerprint_ = std::move(other.fingerprint_);
        state_ = std::move(other.state_);
        other.cache_ = nullptr;
      }
      return *this;
    }
    PopulateTicket(const PopulateTicket&) = delete;
    PopulateTicket& operator=(const PopulateTicket&) = delete;

    /// True while this ticket owns an in-flight population (the holder is
    /// expected to Insert under the same fingerprint).
    bool owns() const { return cache_ != nullptr; }

   private:
    friend class PredicateCache;
    PopulateTicket(PredicateCache* cache, std::string fingerprint,
                   std::shared_ptr<InFlight> state)
        : cache_(cache),
          fingerprint_(std::move(fingerprint)),
          state_(std::move(state)) {}
    void Abandon();

    PredicateCache* cache_ = nullptr;
    std::string fingerprint_;
    /// Identifies *this* population generation, so a late abandon cannot
    /// disturb a successor population of the same fingerprint.
    std::shared_ptr<InFlight> state_;
  };

  explicit PredicateCache(size_t capacity = 1024) : capacity_(capacity) {}

  /// What a query saw of its table at compile time: the partition count and
  /// DML version of its snapshot. An entry written from the query's run
  /// covers exactly this much of the table.
  struct Coverage {
    size_t partitions = 0;
    uint64_t dml_version = 0;
    static Coverage Of(const Table& table) {
      return Coverage{table.num_partitions(), table.dml_version()};
    }
  };

  /// One finished run's record, written under a fingerprint.
  struct Population {
    Coverage coverage;
    /// The ORDER BY column of a top-k entry; empty for a scan entry.
    std::string order_column;
    /// The columns the scan predicate reads (ReferencedColumns).
    std::vector<std::string> predicate_columns;
    /// Top-k: the contributing partitions. Scan: the partitions where the
    /// filter kept at least one row. Ids below coverage.partitions.
    std::vector<PartitionId> partitions;
  };

  /// Publishes `population` under `fingerprint` (see the class comment for
  /// refresh semantics). A write whose coverage is already stale — the
  /// table's DML version moved since the query compiled — is dropped.
  void Insert(const std::string& fingerprint, const Table& table,
              Population population) SNOW_EXCLUDES(mutex_);
  /// Shorthand: a top-k entry covering the table as it is now, with no
  /// predicate columns.
  void Insert(const std::string& fingerprint, const Table& table,
              std::string order_column, std::vector<PartitionId> partitions)
      SNOW_EXCLUDES(mutex_);

  /// Returns the scan set for a repeated query, ascending: cached partitions
  /// plus any partition appended after the entry's coverage. nullopt on a
  /// miss, after invalidation, or when un-notified DML moved the table's
  /// version past the entry's stamp.
  std::optional<std::vector<PartitionId>> Lookup(const std::string& fingerprint,
                                                 const Table& table) const
      SNOW_EXCLUDES(mutex_);

  /// Coalescing lookup. On a hit, behaves like Lookup. On a miss, the first
  /// caller receives the populating ticket (`ticket->owns()` true) and must
  /// eventually Insert under the same fingerprint (or let the ticket die);
  /// concurrent callers for the same fingerprint block until the owner
  /// resolves, then hit (after Insert) or re-race for ownership (after an
  /// abandon). Waits are bounded by the owner's query: one computation per
  /// population instead of one per concurrent identical query.
  std::optional<std::vector<PartitionId>> LookupOrPopulate(
      const std::string& fingerprint, const Table& table,
      PopulateTicket* ticket) SNOW_EXCLUDES(mutex_);

  /// DML notifications, sent after the Table mutation they describe.
  void OnInsert(const Table& table);
  void OnUpdate(const Table& table, const std::string& column)
      SNOW_EXCLUDES(mutex_);
  void OnDelete(const Table& table, PartitionId deleted_pid)
      SNOW_EXCLUDES(mutex_);

  size_t size() const SNOW_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return entries_.size();
  }
  int64_t hits() const SNOW_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return hits_;
  }
  int64_t misses() const SNOW_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return misses_;
  }
  /// Number of lookups that blocked behind another thread's population
  /// (each would have been a duplicate computation without coalescing).
  int64_t coalesced_waits() const SNOW_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return coalesced_waits_;
  }

  /// A mutually consistent view of all counters. Under inter-query
  /// concurrency the individual accessors can tear against each other
  /// (hits sampled before a query, misses after); service-layer reporting
  /// reads everything under one lock acquisition instead of four.
  struct Counters {
    size_t size = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced_waits = 0;
    double HitRate() const {
      const int64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Counters snapshot() const SNOW_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return Counters{entries_.size(), hits_, misses_, coalesced_waits_};
  }

  // ---- Expression specialization tier (src/expr/jit/) --------------------

  /// Bumps and returns the entry's hit count — the promotion signal: once it
  /// crosses ExecConfig::specialize_after, the engine compiles the entry's
  /// predicate. Returns 0 when the fingerprint has no live entry.
  int64_t NoteHit(const std::string& fingerprint) SNOW_EXCLUDES(mutex_);

  /// The entry's compiled program, validated against the table instance the
  /// program was compiled for. A stale program (DML replaced the table) is
  /// dropped and counted as a jit.invalidation.
  std::shared_ptr<const jit::CompiledPredicate> GetProgram(
      const std::string& fingerprint, const Table& table)
      SNOW_EXCLUDES(mutex_);

  /// Returns the entry's program, compiling it exactly once under
  /// concurrency: the compile callback runs while the cache mutex is held
  /// (compilation is microseconds — cheaper than a second condition-variable
  /// protocol), so N streams crossing the promotion threshold together
  /// produce one compilation and share the result. Returns nullptr when the
  /// entry is gone or the callback declines (uncompilable shape; recorded so
  /// the entry is not re-tried on every hit).
  std::shared_ptr<const jit::CompiledPredicate> GetOrCompileProgram(
      const std::string& fingerprint, const Table& table,
      const std::function<std::shared_ptr<const jit::CompiledPredicate>()>&
          compile) SNOW_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string table_name;
    /// Table *version* identity: a ReplaceTable swap installs a new Table
    /// object under the same name, whose data owes nothing to this entry's
    /// partitions — lookups validate the instance and miss on mismatch.
    uint64_t table_instance = 0;
    std::string order_column;
    std::vector<std::string> predicate_columns;
    std::vector<PartitionId> partitions;
    Coverage coverage;
    /// Specialization state: hits since the entry was created (refreshes
    /// keep it), and the compiled bytecode program once the entry was
    /// promoted (shared across streams/shards).
    int64_t hits = 0;
    std::shared_ptr<const jit::CompiledPredicate> program;
    /// A promotion that failed to compile (unsupported shape); stops every
    /// later hit from re-running the compiler.
    bool compile_declined = false;
  };
  using EntryMap = std::map<std::string, Entry>;

  /// Counts a dropped compiled program (jit.invalidations); called on every
  /// entry-erase path.
  static void NoteInvalidated(const Entry& entry);

  void EvictIfNeeded() SNOW_REQUIRES(mutex_);
  /// Drops an entry (DML invalidation); returns the next iterator.
  EntryMap::iterator EraseLocked(EntryMap::iterator it) SNOW_REQUIRES(mutex_);
  /// Entries of `table`'s instance a DML notification applies to: each one
  /// exactly a version behind is passed to `apply` (which returns false to
  /// invalidate it, true to keep it) and restamped; ones further behind are
  /// dropped; ones at the table's version are left alone.
  void ApplyNotificationLocked(const Table& table,
                               const std::function<bool(Entry*)>& apply)
      SNOW_REQUIRES(mutex_);
  /// The entry's scan set (with post-insert partitions appended), or
  /// nullopt. No counter updates.
  std::optional<std::vector<PartitionId>> EntryScanSetLocked(
      const std::string& fingerprint, const Table& table) const
      SNOW_REQUIRES(mutex_);
  /// Wakes waiters and retires the in-flight record, if any.
  void ResolveInFlightLocked(const std::string& fingerprint)
      SNOW_REQUIRES(mutex_);
  /// Entry point for PopulateTicket::Abandon (takes the lock itself); only
  /// resolves when `state` still is the fingerprint's current population.
  void AbandonPopulate(const std::string& fingerprint,
                       const std::shared_ptr<InFlight>& state)
      SNOW_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  size_t capacity_;
  EntryMap entries_ SNOW_GUARDED_BY(mutex_);
  std::list<std::string> insertion_order_
      SNOW_GUARDED_BY(mutex_);  // FIFO eviction
  /// Fingerprints currently being populated (shared_ptr so waiters survive
  /// the record's removal from the map).
  std::map<std::string, std::shared_ptr<InFlight>> inflight_
      SNOW_GUARDED_BY(mutex_);
  mutable int64_t hits_ SNOW_GUARDED_BY(mutex_) = 0;
  mutable int64_t misses_ SNOW_GUARDED_BY(mutex_) = 0;
  int64_t coalesced_waits_ SNOW_GUARDED_BY(mutex_) = 0;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_CORE_PREDICATE_CACHE_H_
