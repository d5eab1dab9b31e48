// Answer digests and the reference-engine check.
#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

using snowprune::EngineConfig;
using snowprune::Value;

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t ValueHash(const Value& v) {
  if (v.is_null()) return 0x6e756c6cULL;
  if (v.is_bool()) return Mix(v.bool_value() ? 3 : 5);
  if (v.is_int64()) return Mix(static_cast<uint64_t>(v.int64_value()) ^ 0x11);
  if (v.is_float64()) {
    // Drop the low mantissa bits, so a sum whose last bits depend on the
    // order of additions still compares equal.
    int exponent = 0;
    const double mantissa = std::frexp(v.float64_value(), &exponent);
    const auto scaled = static_cast<int64_t>(std::llround(mantissa * 1e12));
    return Mix(static_cast<uint64_t>(scaled) * 31 +
               static_cast<uint64_t>(exponent) + 0x22);
  }
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the string bytes.
  for (unsigned char c : v.string_value()) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return Mix(h ^ 0x33);
}

/// What the reference engine says an operation must return.
struct Ref {
  uint64_t digest = 0;
  int64_t rows = 0;
  /// kLimit: the unlimited answer as row hash -> multiplicity.
  std::unordered_map<uint64_t, int64_t> members;
  /// dashboard_dml ordered tiles: the current top-k sort keys, in order.
  std::vector<int64_t> keys;
};

uint64_t OrderedDigest(const std::vector<int64_t>& keys) {
  uint64_t h = 0;
  for (int64_t k : keys) h = Mix(h ^ ValueHash(Value(k)));
  return h;
}

bool Matches(const Op& op, const Answer& a, const Ref& ref,
             std::string* why) {
  if (!a.ok) {
    *why = "query failed: " + a.error;
    return false;
  }
  if (op.check != CheckKind::kLimit) {
    if (a.rows != ref.rows || a.digest != ref.digest) {
      *why = "answer differs from the reference (" + std::to_string(a.rows) +
             " rows vs " + std::to_string(ref.rows) + ")";
      return false;
    }
    return true;
  }
  const int64_t expect = std::min<int64_t>(op.limit_k, ref.rows);
  if (a.rows != expect) {
    *why = "LIMIT returned " + std::to_string(a.rows) + " rows, expected " +
           std::to_string(expect);
    return false;
  }
  std::unordered_map<uint64_t, int64_t> seen;
  for (uint64_t h : a.row_hashes) {
    auto it = ref.members.find(h);
    if (it == ref.members.end() || ++seen[h] > it->second) {
      *why = "LIMIT returned a row the unlimited query does not";
      return false;
    }
  }
  return true;
}

EngineConfig ReferenceConfig() {
  EngineConfig config;
  config.enable_filter_pruning = false;
  config.enable_limit_pruning = false;
  config.enable_topk_pruning = false;
  config.enable_join_pruning = false;
  config.exec.num_threads = 1;
  config.exec.specialize = false;
  return config;
}

/// Runs `op` on the reference engine. A failure of the reference itself
/// aborts the check (it is the oracle).
bool RunReference(snowprune::Engine* engine, const Op& op, Ref* ref,
                  std::string* why) {
  const PlanPtr& plan = op.check == CheckKind::kLimit ? op.unlimited : op.plan;
  auto r = engine->Execute(plan);
  if (!r.ok()) {
    *why = "reference engine failed: " + r.status().ToString();
    return false;
  }
  const QueryResult& result = r.value();
  if (op.check == CheckKind::kLimit) {
    for (const Row& row : result.rows) ++ref->members[HashRow(row)];
    ref->rows = static_cast<int64_t>(result.rows.size());
    return true;
  }
  const Answer a = Digest(op, result);
  if (!a.ok) {
    *why = a.error;
    return false;
  }
  ref->digest = a.digest;
  ref->rows = a.rows;
  return true;
}

/// Folds a reference answer over an appended batch into a tile's state.
bool MergeDelta(snowprune::Engine* engine, const Op& tile, Ref* state,
                std::string* why) {
  Ref delta;
  if (tile.check == CheckKind::kOrdered) {
    auto r = engine->Execute(tile.plan);
    if (!r.ok()) {
      *why = "reference engine failed: " + r.status().ToString();
      return false;
    }
    auto idx = r.value().schema.FindColumn(tile.order_column);
    if (!idx.has_value()) {
      *why = "no order column " + tile.order_column;
      return false;
    }
    for (const Row& row : r.value().rows) {
      state->keys.push_back(row[*idx].int64_value());
    }
    if (tile.descending) {
      std::sort(state->keys.begin(), state->keys.end(), std::greater<>());
    } else {
      std::sort(state->keys.begin(), state->keys.end());
    }
    if (static_cast<int64_t>(state->keys.size()) > tile.limit_k) {
      state->keys.resize(static_cast<size_t>(tile.limit_k));
    }
    state->digest = OrderedDigest(state->keys);
    state->rows = static_cast<int64_t>(state->keys.size());
    return true;
  }
  if (!RunReference(engine, tile, &delta, why)) return false;
  state->rows += delta.rows;
  if (tile.check == CheckKind::kLimit) {
    for (const auto& [h, n] : delta.members) state->members[h] += n;
  } else {
    state->digest += delta.digest;
  }
  return true;
}

/// Changes one value of the answer's first row (the sort key for ordered
/// answers, so the corruption is visible to an ordered comparison).
bool Corrupt(const Op& op, QueryResult* result) {
  if (result->rows.empty()) return false;
  size_t column = 0;
  if (op.check == CheckKind::kOrdered) {
    auto idx = result->schema.FindColumn(op.order_column);
    if (!idx.has_value()) return false;
    column = *idx;
  }
  Value& v = result->rows[0][column];
  if (v.is_int64()) {
    v = Value(v.int64_value() + 1);
  } else if (v.is_float64()) {
    v = Value(v.float64_value() + 1.0);
  } else if (v.is_string()) {
    v = Value(v.string_value() + "x");
  } else if (v.is_bool()) {
    v = Value(!v.bool_value());
  } else {
    v = Value(int64_t{1});
  }
  return true;
}

}  // namespace

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : row) h = Mix(h ^ ValueHash(v));
  return h;
}

Answer Digest(const Op& op, const QueryResult& result) {
  Answer a;
  a.ok = true;
  a.rows = static_cast<int64_t>(result.rows.size());
  switch (op.check) {
    case CheckKind::kMultiset:
      // Order-free: a sum of well-mixed row hashes.
      for (const Row& row : result.rows) a.digest += Mix(HashRow(row));
      break;
    case CheckKind::kOrdered: {
      auto idx = result.schema.FindColumn(op.order_column);
      if (!idx.has_value()) {
        a.ok = false;
        a.error = "no order column " + op.order_column;
        break;
      }
      for (const Row& row : result.rows) {
        a.digest = Mix(a.digest ^ ValueHash(row[*idx]));
      }
      break;
    }
    case CheckKind::kLimit:
      a.row_hashes.reserve(result.rows.size());
      for (const Row& row : result.rows) a.row_hashes.push_back(HashRow(row));
      break;
  }
  return a;
}

namespace {

/// Compares answers with reference answers, and corrupted copies of the
/// sampled answers too (each must then fail).
class Comparer {
 public:
  Comparer(const std::vector<Op>& ops, const std::vector<Answer>& answers,
           const std::vector<std::pair<size_t, QueryResult>>& samples)
      : ops_(ops), answers_(answers) {
    for (const auto& [index, result] : samples) sample_at_[index] = &result;
  }

  void Compare(size_t i, const Ref& ref) {
    std::string why;
    ++out_.checked;
    if (!Matches(ops_[i], answers_[i], ref, &why)) {
      NoteWrong(why + " in operation " + std::to_string(i) + ": " +
                ops_[i].plan->Fingerprint());
    }
    auto s = sample_at_.find(i);
    if (s == sample_at_.end()) return;
    QueryResult bad;
    bad.schema = s->second->schema;
    bad.rows = s->second->rows;
    if (Corrupt(ops_[i], &bad)) {
      ++corruptions_;
      if (!Matches(ops_[i], Digest(ops_[i], bad), ref, &why)) ++caught_;
    }
  }

  void NoteWrong(const std::string& why) {
    ++out_.wrong;
    if (out_.first_error.empty()) out_.first_error = why;
  }

  void MergeFrom(const Comparer& other) {
    out_.checked += other.out_.checked;
    out_.wrong += other.out_.wrong;
    if (out_.first_error.empty()) out_.first_error = other.out_.first_error;
    corruptions_ += other.corruptions_;
    caught_ += other.caught_;
  }

  CheckOutcome Finish() {
    out_.self_check_ok = corruptions_ > 0 && caught_ == corruptions_;
    return out_;
  }

 private:
  const std::vector<Op>& ops_;
  const std::vector<Answer>& answers_;
  std::map<size_t, const QueryResult*> sample_at_;
  CheckOutcome out_;
  int64_t corruptions_ = 0, caught_ = 0;
};

/// No DML: every table is as it was, so each distinct plan needs one
/// reference answer. Plans are split over two threads, each with its own
/// reference engine (a plan object is only ever run by one of them).
CheckOutcome CheckStatic(Catalog* catalog, const std::vector<Op>& ops,
                         const std::vector<Answer>& answers,
                         const std::vector<std::pair<size_t, QueryResult>>&
                             samples) {
  std::map<const snowprune::PlanNode*, std::vector<size_t>> by_plan;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].insert) by_plan[ops[i].plan.get()].push_back(i);
  }
  std::vector<const std::vector<size_t>*> groups;
  for (const auto& [plan, indexes] : by_plan) groups.push_back(&indexes);
  constexpr size_t kThreads = 2;
  std::vector<std::unique_ptr<Comparer>> parts;
  for (size_t t = 0; t < kThreads; ++t) {
    parts.push_back(std::make_unique<Comparer>(ops, answers, samples));
  }
  // Runs on its own thread, so nothing may escape it: a failure of the
  // check is recorded as a wrong answer instead.
  auto work = [&](size_t t) {
    try {
      snowprune::Engine engine(catalog, ReferenceConfig());
      for (size_t g = t; g < groups.size(); g += kThreads) {
        const std::vector<size_t>& indexes = *groups[g];
        Ref ref;
        std::string why;
        if (!RunReference(&engine, ops[indexes.front()], &ref, &why)) {
          for (size_t k = 0; k < indexes.size(); ++k) parts[t]->NoteWrong(why);
          continue;
        }
        for (size_t i : indexes) parts[t]->Compare(i, ref);
      }
    } catch (const std::exception& e) {
      parts[t]->NoteWrong(std::string("reference check failed: ") + e.what());
    }
  };
  std::thread helper(work, 1);
  work(0);
  helper.join();
  parts[0]->MergeFrom(*parts[1]);
  return parts[0]->Finish();
}

}  // namespace

CheckOutcome CheckAnswers(const Workload& w, Catalog* catalog,
                          const std::vector<Op>& ops,
                          const std::vector<Answer>& answers,
                          const std::vector<std::pair<size_t, QueryResult>>&
                              samples) {
  const std::vector<Op>* tiles = w.tiles();
  if (tiles == nullptr) return CheckStatic(catalog, ops, answers, samples);

  // dashboard_dml: tables only grow, so each tile's reference answer is
  // kept current by folding in the reference answer over each appended
  // batch (top-k keys re-cut to k; multisets and LIMIT candidates added).
  Comparer comparer(ops, answers, samples);
  snowprune::Engine engine(catalog, ReferenceConfig());
  std::vector<Ref> state(tiles->size());
  std::string why;
  for (size_t t = 0; t < tiles->size(); ++t) {
    const Op& tile = (*tiles)[t];
    const bool ok = tile.check == CheckKind::kOrdered
                        ? MergeDelta(&engine, tile, &state[t], &why)
                        : RunReference(&engine, tile, &state[t], &why);
    if (!ok) {
      comparer.NoteWrong(why);
      return comparer.Finish();
    }
  }
  Catalog delta_catalog;
  snowprune::Engine delta_engine(&delta_catalog, ReferenceConfig());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.insert) {
      comparer.Compare(i, state[static_cast<size_t>(op.tile)]);
      continue;
    }
    (void)delta_catalog.ReplaceTable(Ingest(w.InsertBatch(op.batch)));
    for (size_t t = 0; t < tiles->size(); ++t) {
      if (!MergeDelta(&delta_engine, (*tiles)[t], &state[t], &why)) {
        comparer.NoteWrong(why);
        return comparer.Finish();
      }
    }
  }
  return comparer.Finish();
}

}  // namespace perfbench
