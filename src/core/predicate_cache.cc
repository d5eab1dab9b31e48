#include "core/predicate_cache.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace snowprune {

namespace {

/// Process-wide cache instruments, beside the per-instance counters the
/// tests read: one registry entry covers every cache in the process.
struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* coalesced_waits;
  /// Partitions cache hits kept out of scan sets (the engine credits the
  /// same count to PruningStats::pruned_by_cache).
  Counter* partitions_skipped;
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics m{
      MetricsRegistry::Instance().GetCounter("predcache.hits"),
      MetricsRegistry::Instance().GetCounter("predcache.misses"),
      MetricsRegistry::Instance().GetCounter("predcache.coalesced_waits"),
      MetricsRegistry::Instance().GetCounter("predcache.partitions_skipped")};
  return m;
}

/// Counts a lookup's outcome in the registry.
void NoteLookup(const std::optional<std::vector<PartitionId>>& result,
                const Table& table) {
  if (result.has_value()) {
    GetCacheMetrics().hits->Add();
    GetCacheMetrics().partitions_skipped->Add(
        static_cast<int64_t>(table.num_partitions() - result->size()));
  } else {
    GetCacheMetrics().misses->Add();
  }
}

}  // namespace

void PredicateCache::Insert(const std::string& fingerprint, const Table& table,
                            Population population) {
  std::vector<PartitionId>& partitions = population.partitions;
  const bool sufficient = population.sufficient_rows != kAllRows;
  // A k-sufficient entry keeps delivery order, so a hit scans the
  // partitions that delivered the rows first; the other kinds are ascending.
  if (!sufficient) {
    std::sort(partitions.begin(), partitions.end());
    partitions.erase(std::unique(partitions.begin(), partitions.end()),
                     partitions.end());
  }
  MutexLock lock(&mutex_);
  // A write whose query compiled before the table's latest DML describes a
  // table that no longer exists; it would only miss (or clobber a fresher
  // entry), so it is dropped — coalesced waiters still wake below. So is one
  // listing a partition past its own coverage: Lookup appends every id from
  // the coverage on, and would list that partition twice. So is a
  // k-sufficient write over a live scan entry, which serves every need.
  const Entry* live = LiveEntryLocked(fingerprint, table);
  const bool publish =
      population.coverage.dml_version == table.dml_version() &&
      population.coverage.partitions <= table.num_partitions() &&
      std::all_of(partitions.begin(), partitions.end(),
                  [&](PartitionId pid) {
                    return static_cast<size_t>(pid) <
                           population.coverage.partitions;
                  }) &&
      !(sufficient && live != nullptr && live->sufficient_rows == kAllRows);
  if (publish) {
    auto it = entries_.find(fingerprint);
    if (it != entries_.end() && it->second.table_name == table.name() &&
        it->second.table_instance == table.instance_id()) {
      // Refresh: the scan set and its stamp change; the columns the
      // entry is invalidated by belong to the query shape and stay.
      it->second.partitions = std::move(partitions);
      it->second.sufficient_rows = population.sufficient_rows;
      it->second.coverage = population.coverage;
    } else {
      Entry entry;
      entry.table_name = table.name();
      entry.table_instance = table.instance_id();
      entry.order_column = std::move(population.order_column);
      entry.predicate_columns = std::move(population.predicate_columns);
      entry.partitions = std::move(partitions);
      entry.sufficient_rows = population.sufficient_rows;
      entry.coverage = population.coverage;
      if (it != entries_.end()) {
        // Another table instance's entry under this fingerprint: replaced
        // wholesale.
        it->second = std::move(entry);
      } else {
        entries_.emplace(fingerprint, std::move(entry));
        insertion_order_.push_back(fingerprint);
        EvictIfNeeded();
      }
    }
  }
  // Publishing resolves any coalesced population of this fingerprint:
  // blocked waiters wake and hit the fresh entry.
  ResolveInFlightLocked(fingerprint);
}

void PredicateCache::Insert(const std::string& fingerprint, const Table& table,
                            std::string order_column,
                            std::vector<PartitionId> partitions) {
  Insert(fingerprint, table,
         Population{Coverage::Of(table), std::move(order_column), {},
                    std::move(partitions)});
}

const PredicateCache::Entry* PredicateCache::LiveEntryLocked(
    const std::string& fingerprint, const Table& table) const {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return nullptr;
  const Entry& entry = it->second;
  if (entry.table_name != table.name() ||
      entry.table_instance != table.instance_id() ||
      entry.coverage.dml_version != table.dml_version() ||
      entry.coverage.partitions > table.num_partitions()) {
    // A replaced table (new instance under the same name) or DML the cache
    // was not told about: the entry describes another version of the data.
    return nullptr;
  }
  return &entry;
}

std::optional<std::vector<PartitionId>> PredicateCache::EntryScanSetLocked(
    const std::string& fingerprint, const Table& table, int64_t need,
    int64_t* sufficient_rows) const {
  const Entry* entry = LiveEntryLocked(fingerprint, table);
  // A k-sufficient entry holds too few rows for a larger need: the rows
  // past its sum may live in any partition.
  if (entry == nullptr || entry->sufficient_rows < need) return std::nullopt;
  if (sufficient_rows != nullptr) *sufficient_rows = entry->sufficient_rows;
  std::vector<PartitionId> result = entry->partitions;
  // INSERTs are safe (§8.2) but their partitions must be scanned too.
  for (size_t pid = entry->coverage.partitions; pid < table.num_partitions();
       ++pid) {
    result.push_back(static_cast<PartitionId>(pid));
  }
  return result;
}

std::optional<std::vector<PartitionId>> PredicateCache::Lookup(
    const std::string& fingerprint, const Table& table, int64_t need,
    int64_t* sufficient_rows) const {
  MutexLock lock(&mutex_);
  auto result = EntryScanSetLocked(fingerprint, table, need, sufficient_rows);
  if (result.has_value()) {
    ++hits_;
  } else {
    ++misses_;
  }
  NoteLookup(result, table);
  return result;
}

std::optional<std::vector<PartitionId>> PredicateCache::LookupOrPopulate(
    const std::string& fingerprint, const Table& table,
    PopulateTicket* ticket) {
  MutexLock lock(&mutex_);
  bool waited = false;
  for (;;) {
    auto result = EntryScanSetLocked(fingerprint, table, kAllRows, nullptr);
    if (result.has_value()) {
      ++hits_;
      NoteLookup(result, table);
      return result;
    }
    auto it = inflight_.find(fingerprint);
    if (it == inflight_.end()) {
      // First to miss: become the populating owner.
      auto state = std::make_shared<InFlight>();
      inflight_.emplace(fingerprint, state);
      ++misses_;
      NoteLookup(std::nullopt, table);
      *ticket = PopulateTicket(this, fingerprint, std::move(state));
      return std::nullopt;
    }
    // Another thread is computing this entry; wait for it to publish or
    // abandon, then re-check (an abandon makes this thread re-race for
    // ownership).
    if (!waited) {
      ++coalesced_waits_;
      GetCacheMetrics().coalesced_waits->Add();
      waited = true;
    }
    std::shared_ptr<InFlight> state = it->second;
    while (!state->resolved) state->cv.Wait(&mutex_);
  }
}

void PredicateCache::ResolveInFlightLocked(const std::string& fingerprint) {
  auto it = inflight_.find(fingerprint);
  if (it == inflight_.end()) return;
  it->second->resolved = true;
  it->second->cv.NotifyAll();
  inflight_.erase(it);
}

void PredicateCache::AbandonPopulate(const std::string& fingerprint,
                                     const std::shared_ptr<InFlight>& state) {
  MutexLock lock(&mutex_);
  auto it = inflight_.find(fingerprint);
  if (it != inflight_.end() && it->second == state) {
    ResolveInFlightLocked(fingerprint);
  }
}

void PredicateCache::PopulateTicket::Abandon() {
  if (cache_ == nullptr) return;
  cache_->AbandonPopulate(fingerprint_, state_);
  cache_ = nullptr;
  state_.reset();
}

void PredicateCache::OnInsert(const Table& table) {
  // Nothing to do: Lookup() appends partitions past the entry's coverage.
  (void)table;
}

PredicateCache::EntryMap::iterator PredicateCache::EraseLocked(
    EntryMap::iterator it) {
  insertion_order_.remove(it->first);
  return entries_.erase(it);
}

void PredicateCache::ApplyNotificationLocked(
    const Table& table, const std::function<bool(Entry*)>& apply) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    if (e.table_name != table.name() ||
        e.table_instance != table.instance_id() ||
        e.coverage.dml_version == table.dml_version()) {
      ++it;  // another table, or written after the change
    } else if (e.coverage.dml_version + 1 == table.dml_version() &&
               apply(&e)) {
      e.coverage.dml_version = table.dml_version();
      ++it;
    } else {
      it = EraseLocked(it);  // invalidated, or missed an earlier change
    }
  }
}

void PredicateCache::OnUpdate(const Table& table, const std::string& column) {
  MutexLock lock(&mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = it->second;
    const bool reads_column =
        e.order_column == column ||
        std::find(e.predicate_columns.begin(), e.predicate_columns.end(),
                  column) != e.predicate_columns.end();
    if (e.table_name == table.name() && reads_column) {
      // The update may reorder rows (order column) or make rows qualify
      // outside the cached set (predicate column).
      it = EraseLocked(it);
    } else {
      ++it;
    }
  }
  ApplyNotificationLocked(table, [](Entry*) { return true; });
}

void PredicateCache::OnDelete(const Table& table, PartitionId deleted_pid) {
  MutexLock lock(&mutex_);
  ApplyNotificationLocked(table, [deleted_pid](Entry* e) {
    auto pos = std::find(e->partitions.begin(), e->partitions.end(),
                         deleted_pid);
    if (pos != e->partitions.end()) {
      // A contributing top-k partition is gone: the replacement (k+1-th)
      // row may live anywhere (§8.2). A k-sufficient entry loses rows of
      // its sum. A scan entry just loses it — the remaining qualifying
      // partitions are unchanged.
      if (!e->order_column.empty() || e->sufficient_rows != kAllRows) {
        return false;
      }
      e->partitions.erase(pos);
    }
    // Table compacts ids after deletion; remap the survivors.
    for (PartitionId& pid : e->partitions) {
      if (pid > deleted_pid) --pid;
    }
    if (deleted_pid < e->coverage.partitions) --e->coverage.partitions;
    return true;
  });
}

void PredicateCache::EvictIfNeeded() {
  while (entries_.size() > capacity_ && !insertion_order_.empty()) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

}  // namespace snowprune
