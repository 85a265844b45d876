// A bounded cache with an explicit admission/eviction policy: segmented
// LRU (SLRU) plus a ghost list.
//
// Why not FIFO or plain LRU: the plan cache (service/plan_cache.hpp), this
// header's one user, sees two very different access patterns at once — a
// hot working set of repeated (spec, index) keys (requests that repeat a
// spec) and long one-shot scans (a sweep touching thousands of instances
// exactly once).  FIFO lets the scan flush the working set; plain LRU does
// too.  SLRU keeps them apart:
//
//  * New keys enter the *probation* segment.  A key touched a second time
//    while on probation is promoted to the *protected* segment; a
//    one-hit-wonder churns through probation and is evicted without ever
//    displacing proven entries.
//  * The protected segment is LRU-bounded at ~4/5 of capacity; overflow
//    demotes its LRU tail back to probation (a second chance) rather than
//    evicting outright.
//  * Eviction takes the probation LRU tail first; protected entries are
//    touched only when probation is empty.
//  * Evicted keys are remembered in a bounded *ghost* list (keys only, no
//    values).  Re-inserting a ghost key admits it straight to the
//    protected segment: "was evicted but came back" is exactly the signal
//    that the capacity, not the access pattern, was at fault.
//
// Values are stored by value and returned by copy; the cache is internally
// synchronized (one mutex — the plan cache sits above work that costs
// milliseconds, not nanoseconds).  Counting is the caller's business:
// get() misses return nullopt, put() reports evictions/readmissions, so
// callers feed whatever metrics registry they like without this header
// depending on one.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace rfsm {

template <typename Value>
class SlruCache {
 public:
  explicit SlruCache(std::size_t capacity) { configure(capacity); }

  SlruCache(const SlruCache&) = delete;
  SlruCache& operator=(const SlruCache&) = delete;

  /// Outcome of one put(): how many entries were evicted to make room, and
  /// whether the key was readmitted from the ghost list.
  struct PutOutcome {
    std::size_t evicted = 0;
    bool readmitted = false;
  };

  /// Value for `key`, touching it (probation hit promotes to protected,
  /// protected hit refreshes recency); nullopt on miss.
  std::optional<Value> get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    touch(it->second);
    return it->second->value;
  }

  /// Inserts or refreshes `key`.  A known key updates its value and counts
  /// as a touch; a ghost key is admitted straight to the protected segment.
  PutOutcome put(const std::string& key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    PutOutcome outcome;
    if (capacity_ == 0) return outcome;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      touch(it->second);
      return outcome;
    }
    const auto ghost = ghostIndex_.find(key);
    if (ghost != ghostIndex_.end()) {
      ghostList_.erase(ghost->second);
      ghostIndex_.erase(ghost);
      outcome.readmitted = true;
    }
    if (outcome.readmitted && protectedCapacity_ > 0) {
      protected_.push_front(Entry{key, std::move(value), Segment::kProtected});
      index_.emplace(key, protected_.begin());
      demoteOverflow();
    } else {
      probation_.push_front(Entry{key, std::move(value), Segment::kProbation});
      index_.emplace(key, probation_.begin());
    }
    outcome.evicted = evictOverflow();
    return outcome;
  }

  /// Drops `key` from the cache *and* the ghost list (quarantine: the entry
  /// must not be fast-readmitted on the strength of its tainted history).
  bool erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto ghost = ghostIndex_.find(key);
    if (ghost != ghostIndex_.end()) {
      ghostList_.erase(ghost->second);
      ghostIndex_.erase(ghost);
    }
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    listOf(it->second->segment).erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    probation_.clear();
    protected_.clear();
    index_.clear();
    ghostList_.clear();
    ghostIndex_.clear();
  }

  /// Rebounds the cache; overflow is evicted immediately (returned, so the
  /// caller can count it).  Capacity 0 empties the cache and makes every
  /// subsequent put a no-op.
  std::size_t setCapacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    configure(capacity);
    demoteOverflow();
    const std::size_t evicted = evictOverflow();
    while (ghostList_.size() > ghostCapacity_) {
      ghostIndex_.erase(ghostList_.back());
      ghostList_.pop_back();
    }
    return evicted;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }

  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
  }

 private:
  enum class Segment { kProbation, kProtected };
  struct Entry {
    std::string key;
    Value value;
    Segment segment;
  };
  using List = std::list<Entry>;

  void configure(std::size_t capacity) {
    capacity_ = capacity;
    // ~1/5 probation, ~4/5 protected; with capacity 1 everything is
    // probation (there is nothing to protect a segment *from*).
    const std::size_t probation =
        capacity >= 2 ? std::max<std::size_t>(1, capacity / 5) : capacity;
    protectedCapacity_ = capacity - probation;
    ghostCapacity_ = capacity;
  }

  List& listOf(Segment segment) {
    return segment == Segment::kProtected ? protected_ : probation_;
  }

  /// Recency update under the policy; caller holds the mutex.
  void touch(typename List::iterator it) {
    if (it->segment == Segment::kProtected) {
      protected_.splice(protected_.begin(), protected_, it);
      return;
    }
    if (protectedCapacity_ == 0) {
      probation_.splice(probation_.begin(), probation_, it);
      return;
    }
    it->segment = Segment::kProtected;
    protected_.splice(protected_.begin(), probation_, it);
    demoteOverflow();
  }

  /// Protected overflow demotes LRU tails back to probation (second
  /// chance), never evicts directly.
  void demoteOverflow() {
    while (protected_.size() > protectedCapacity_) {
      const auto tail = std::prev(protected_.end());
      tail->segment = Segment::kProbation;
      probation_.splice(probation_.begin(), protected_, tail);
    }
  }

  /// Evicts (probation LRU first) until within capacity; evicted keys are
  /// remembered as ghosts.
  std::size_t evictOverflow() {
    std::size_t evicted = 0;
    while (probation_.size() + protected_.size() > capacity_) {
      List& victims = probation_.empty() ? protected_ : probation_;
      const auto tail = std::prev(victims.end());
      rememberGhost(tail->key);
      index_.erase(tail->key);
      victims.erase(tail);
      ++evicted;
    }
    return evicted;
  }

  void rememberGhost(const std::string& key) {
    if (ghostCapacity_ == 0) return;
    if (ghostIndex_.count(key) != 0) return;
    ghostList_.push_front(key);
    ghostIndex_.emplace(key, ghostList_.begin());
    while (ghostList_.size() > ghostCapacity_) {
      ghostIndex_.erase(ghostList_.back());
      ghostList_.pop_back();
    }
  }

  mutable std::mutex mutex_;
  std::size_t capacity_ = 0;
  std::size_t protectedCapacity_ = 0;
  std::size_t ghostCapacity_ = 0;
  List probation_;
  List protected_;
  std::unordered_map<std::string, typename List::iterator> index_;
  std::list<std::string> ghostList_;
  std::unordered_map<std::string, std::list<std::string>::iterator>
      ghostIndex_;
};

}  // namespace rfsm
