// Sequential specifications the linearizability checker replays histories
// against.
//
// A Spec models one ADT instance as a copyable `State` plus a `step`
// function that applies an observed Event to the state and reports whether
// the event's recorded result is the one the sequential object would have
// produced.  `encode` serialises a state for the checker's memoisation
// table (states that encode equally are interchangeable).
//
// Sets and maps additionally satisfy *per-key decomposability*: every
// operation touches exactly one key and its result depends only on that
// key's sub-state, so a history is linearizable iff each per-key projection
// is (the checker exploits this in `check_keyed_history`).  Priority queues
// are not decomposable and are replayed against the whole-queue state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/history.h"

namespace otb::verify {

/// Per-key projection of a set: the sub-state is a single presence bit.
/// Covers kAdd (ok == was absent), kRemove (ok == was present) and
/// kContains (ok == present).
struct SetKeySpec {
  struct State {
    bool present = false;
  };

  State initial() const { return {}; }

  bool step(State& s, const Event& e) const {
    switch (e.op) {
      case OpKind::kAdd:
        if (e.ok == s.present) return false;  // ok iff it was absent
        if (e.ok) s.present = true;
        return true;
      case OpKind::kRemove:
        if (e.ok != s.present) return false;  // ok iff it was present
        if (e.ok) s.present = false;
        return true;
      case OpKind::kContains:
        return e.ok == s.present;
      default:
        return false;  // foreign op in a set history
    }
  }

  std::string encode(const State& s) const { return s.present ? "1" : "0"; }
};

/// Per-key projection of a map: presence plus the current value.
/// kPut is insert-or-assign (ok == key was absent), kAdd is put-if-absent
/// (ok == key was absent; a present key keeps its value), kErase ok == was
/// present, kGet ok == present and the observed value must match.
struct MapKeySpec {
  struct State {
    bool present = false;
    std::int64_t value = 0;
  };

  State initial() const { return {}; }

  bool step(State& s, const Event& e) const {
    switch (e.op) {
      case OpKind::kPut:
        if (e.ok == s.present) return false;
        s.present = true;
        s.value = e.value;
        return true;
      case OpKind::kAdd:
        if (e.ok == s.present) return false;
        if (e.ok) {
          s.present = true;
          s.value = e.value;
        }
        return true;
      case OpKind::kErase:
        if (e.ok != s.present) return false;
        if (e.ok) s.present = false;
        return true;
      case OpKind::kGet:
        if (e.ok != s.present) return false;
        return !e.ok || e.value == s.value;
      default:
        return false;
    }
  }

  std::string encode(const State& s) const {
    return s.present ? "1:" + std::to_string(s.value) : "0";
  }
};

/// Whole-queue priority-queue spec over a sorted multiset of keys (kept as
/// a sorted vector: states are tiny and copied on every branch).
///
/// `unique_keys` models the OTB skip-list PQ, whose add() refuses
/// duplicates; with it false, add always succeeds (binary-heap PQs).
/// kPqRemoveMin/kPqMin with ok must have observed the current minimum
/// (`e.value`); with !ok the queue must have been empty.
struct PqSpec {
  bool unique_keys = true;

  struct State {
    std::vector<std::int64_t> keys;  // sorted ascending
  };

  State initial() const { return {}; }

  /// Spec state seeded with the structure's pre-stress contents.
  State initial_with(std::vector<std::int64_t> seeded) const {
    State s;
    s.keys = std::move(seeded);
    std::sort(s.keys.begin(), s.keys.end());
    return s;
  }

  bool step(State& s, const Event& e) const {
    switch (e.op) {
      case OpKind::kPqAdd: {
        const auto it = std::lower_bound(s.keys.begin(), s.keys.end(), e.key);
        const bool present = it != s.keys.end() && *it == e.key;
        if (unique_keys) {
          if (e.ok == present) return false;
          if (e.ok) s.keys.insert(it, e.key);
        } else {
          if (!e.ok) return false;  // unbounded heap add cannot fail
          s.keys.insert(it, e.key);
        }
        return true;
      }
      case OpKind::kPqRemoveMin:
        if (!e.ok) return s.keys.empty();
        if (s.keys.empty() || s.keys.front() != e.value) return false;
        s.keys.erase(s.keys.begin());
        return true;
      case OpKind::kPqMin:
        if (!e.ok) return s.keys.empty();
        return !s.keys.empty() && s.keys.front() == e.value;
      default:
        return false;
    }
  }

  std::string encode(const State& s) const {
    std::string out;
    out.reserve(s.keys.size() * 4);
    for (const std::int64_t k : s.keys) {
      out += std::to_string(k);
      out += ',';
    }
    return out;
  }
};

/// Whole-object spec of the job-scheduler scenario (scenarios.h): a free
/// priority queue plus a lease map, mutated only by the two atomic
/// cross-structure scripts.  Event mapping:
///   kPqRemoveMin — claim: ok must have popped the free minimum (e.value)
///                  and moved it, atomically, into the leased set;
///   kRemove      — release(e.key): ok iff the job was leased; moves it
///                  back to free;
///   kContains    — lease lookup: ok iff e.key is currently leased.
/// Because both scripts MOVE a key between the structures, replaying them
/// against this joint state is precisely the cross-structure atomicity
/// check: a half-applied claim (popped but not leased, or vice versa) has
/// no linearization and the search fails.
struct SchedulerSpec {
  struct State {
    std::vector<std::int64_t> free;    // sorted ascending
    std::vector<std::int64_t> leased;  // sorted ascending
  };

  State initial() const { return {}; }

  State initial_with(std::vector<std::int64_t> seeded_free) const {
    State s;
    s.free = std::move(seeded_free);
    std::sort(s.free.begin(), s.free.end());
    return s;
  }

  bool step(State& s, const Event& e) const {
    switch (e.op) {
      case OpKind::kPqRemoveMin: {  // claim
        if (!e.ok) return s.free.empty();
        if (s.free.empty() || s.free.front() != e.value) return false;
        s.free.erase(s.free.begin());
        s.leased.insert(
            std::lower_bound(s.leased.begin(), s.leased.end(), e.value),
            e.value);
        return true;
      }
      case OpKind::kRemove: {  // release
        const auto it =
            std::lower_bound(s.leased.begin(), s.leased.end(), e.key);
        const bool leased = it != s.leased.end() && *it == e.key;
        if (e.ok != leased) return false;
        if (e.ok) {
          s.leased.erase(it);
          s.free.insert(std::lower_bound(s.free.begin(), s.free.end(), e.key),
                        e.key);
        }
        return true;
      }
      case OpKind::kContains: {  // lease lookup
        const auto it =
            std::lower_bound(s.leased.begin(), s.leased.end(), e.key);
        return e.ok == (it != s.leased.end() && *it == e.key);
      }
      default:
        return false;
    }
  }

  std::string encode(const State& s) const {
    std::string out = "F";
    for (const std::int64_t k : s.free) {
      out += std::to_string(k);
      out += ',';
    }
    out += "|L";
    for (const std::int64_t k : s.leased) {
      out += std::to_string(k);
      out += ',';
    }
    return out;
  }
};

/// Whole-object spec of the order-book scenario (scenarios.h): an ask queue
/// and a bid queue (bid prices stored negated, so front() is the best bid).
/// The order map is not modelled separately — every script writes it in
/// lockstep with the queues, so it is definitionally asks ∪ bids here and
/// the final-state conservation audit covers any divergence.  Event
/// mapping:
///   kAdd — place_ask(e.key):  ok iff absent (unique prices);
///   kPut — place_bid(e.key):  stored as -e.key, ok iff absent;
///   kPqRemoveMin — match: ok means the script popped BOTH minima under
///                  `expect` guards, with e.value the matched ask; the
///                  matched bid is, by the guard, whatever the bid front
///                  was at the same instant, so the replay removes both
///                  fronts.  !ok is a guard abort (the observed pair
///                  drifted) — a semantic no-op that always linearises;
///   kContains — order-map lookup of e.key (signed): present iff resting.
struct OrderBookSpec {
  struct State {
    std::vector<std::int64_t> asks;  // sorted ascending
    std::vector<std::int64_t> bids;  // negated prices, sorted ascending
  };

  State initial() const { return {}; }

  bool step(State& s, const Event& e) const {
    switch (e.op) {
      case OpKind::kAdd: {  // place_ask
        const auto it = std::lower_bound(s.asks.begin(), s.asks.end(), e.key);
        const bool present = it != s.asks.end() && *it == e.key;
        if (e.ok == present) return false;
        if (e.ok) s.asks.insert(it, e.key);
        return true;
      }
      case OpKind::kPut: {  // place_bid (stored negated)
        const std::int64_t k = -e.key;
        const auto it = std::lower_bound(s.bids.begin(), s.bids.end(), k);
        const bool present = it != s.bids.end() && *it == k;
        if (e.ok == present) return false;
        if (e.ok) s.bids.insert(it, k);
        return true;
      }
      case OpKind::kPqRemoveMin:  // match
        if (!e.ok) return true;   // guard abort: atomic no-op
        if (s.asks.empty() || s.bids.empty()) return false;
        if (s.asks.front() != e.value) return false;
        s.asks.erase(s.asks.begin());
        s.bids.erase(s.bids.begin());
        return true;
      case OpKind::kContains: {  // order-map lookup (signed key)
        const auto& side = e.key < 0 ? s.bids : s.asks;
        const auto it = std::lower_bound(side.begin(), side.end(), e.key);
        return e.ok == (it != side.end() && *it == e.key);
      }
      default:
        return false;
    }
  }

  std::string encode(const State& s) const {
    std::string out = "A";
    for (const std::int64_t k : s.asks) {
      out += std::to_string(k);
      out += ',';
    }
    out += "|B";
    for (const std::int64_t k : s.bids) {
      out += std::to_string(k);
      out += ',';
    }
    return out;
  }
};

}  // namespace otb::verify
