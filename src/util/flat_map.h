// Sorted flat associative containers over SmallVec storage.
//
// Every tree/hash container on the simulator's per-event hot path holds a
// handful of entries keyed by small trivially-comparable ids (NodeId,
// ConnectionId, sequence numbers). For that shape a red-black tree is three
// pointer chases per lookup and a node allocation per insert; FlatMap/FlatSet
// keep the entries sorted in contiguous (usually inline, see SmallVec)
// buffers: lookups are a binary search over one or two cache lines, inserts
// shift a few elements, and iteration is a linear walk in ascending key
// order — the same deterministic order std::map/std::set produced, which the
// repo's byte-identical-replay contract depends on. FlatMap keeps keys and
// values in two index-aligned arrays, so a lookup's binary search reads only
// the dense key array and touches the matched value alone.
//
// The interface is the std::map/std::set subset the protocol code uses.
// Like std::map, the key is immutable through iterators (FlatMap dereferences
// to pair<const K&, V&> via the same arrow-proxy idiom FlatSeqMap uses;
// mutating a key in place would silently break the sorted invariant).
// References and iterators are invalidated by insert/erase, like any vector;
// call sites must not hold them across mutations (the protocol code never
// did, since std::map iterators were invalidated by erase too).
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>

#include "util/assert.h"
#include "util/small_vec.h"

namespace brisa::util {

template <typename K, typename V, std::size_t N = 4>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;

  template <bool Const>
  class Iterator {
   public:
    using VPtr = std::conditional_t<Const, const V*, V*>;
    using VRef = std::conditional_t<Const, const V&, V&>;
    using iterator_category = std::bidirectional_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using reference = std::pair<const K&, VRef>;
    using pointer = void;

    Iterator() = default;
    Iterator(const K* key, VPtr value) : key_(key), value_(value) {}

    /// Conversion iterator -> const_iterator.
    operator Iterator<true>() const {  // NOLINT(google-explicit-constructor)
      return Iterator<true>(key_, value_);
    }

    [[nodiscard]] reference operator*() const { return {*key_, *value_}; }

    /// `it->first` / `it->second` support: the pair of references lives in
    /// the proxy, keyed const so call sites cannot corrupt the sort order.
    struct ArrowProxy {
      reference pair;
      [[nodiscard]] const reference* operator->() const { return &pair; }
    };
    [[nodiscard]] ArrowProxy operator->() const { return ArrowProxy{**this}; }

    Iterator& operator++() {
      ++key_;
      ++value_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    Iterator& operator--() {
      --key_;
      --value_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator copy = *this;
      --*this;
      return copy;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.key_ == b.key_;
    }

   private:
    friend class FlatMap;
    const K* key_ = nullptr;
    VPtr value_ = nullptr;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }

  [[nodiscard]] iterator begin() { return at(0); }
  [[nodiscard]] iterator end() { return at(keys_.size()); }
  [[nodiscard]] const_iterator begin() const { return at(0); }
  [[nodiscard]] const_iterator end() const { return at(keys_.size()); }

  [[nodiscard]] iterator find(const K& key) {
    const std::size_t pos = lower_bound_index(key);
    return pos < keys_.size() && keys_[pos] == key ? at(pos) : end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const std::size_t pos = lower_bound_index(key);
    return pos < keys_.size() && keys_[pos] == key ? at(pos) : end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    const std::size_t pos = lower_bound_index(key);
    return pos < keys_.size() && keys_[pos] == key;
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  /// Inserts a default-constructed value on first access (std::map semantics).
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Inserts {key, V(args...)} if absent; returns {slot, inserted}.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const std::size_t pos = lower_bound_index(key);
    if (pos < keys_.size() && keys_[pos] == key) return {at(pos), false};
    insert_at(pos, key, V(std::forward<Args>(args)...));
    return {at(pos), true};
  }

  /// std::map-compatible emplace for the (key, value) form the call sites
  /// use; the existing entry wins, exactly like std::map::emplace.
  std::pair<iterator, bool> emplace(const K& key, V value) {
    const std::size_t pos = lower_bound_index(key);
    if (pos < keys_.size() && keys_[pos] == key) return {at(pos), false};
    insert_at(pos, key, std::move(value));
    return {at(pos), true};
  }

  std::size_t erase(const K& key) {
    const std::size_t pos = lower_bound_index(key);
    if (pos < keys_.size() && keys_[pos] == key) {
      erase_at(pos);
      return 1;
    }
    return 0;
  }

  iterator erase(const_iterator pos) {
    const auto index = static_cast<std::size_t>(pos.key_ - keys_.data());
    erase_at(index);
    return at(index);
  }

  void clear() {
    keys_.clear();
    values_.clear();
  }

  bool operator==(const FlatMap& other) const {
    return keys_ == other.keys_ && values_ == other.values_;
  }

 private:
  [[nodiscard]] iterator at(std::size_t index) {
    return iterator(keys_.data() + index, values_.data() + index);
  }
  [[nodiscard]] const_iterator at(std::size_t index) const {
    return const_iterator(keys_.data() + index, values_.data() + index);
  }

  void insert_at(std::size_t pos, const K& key, V value) {
    keys_.insert(keys_.begin() + pos, key);
    values_.insert(values_.begin() + pos, std::move(value));
  }

  void erase_at(std::size_t pos) {
    keys_.erase(keys_.begin() + pos);
    values_.erase(values_.begin() + pos);
  }

  /// Touches only the key array: a lookup never pulls the (often much
  /// larger) values into the cache.
  [[nodiscard]] std::size_t lower_bound_index(const K& key) const {
    std::size_t lo = 0;
    std::size_t hi = keys_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (keys_[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Parallel arrays, index-aligned: keys_[i] owns values_[i].
  SmallVec<K, N> keys_;
  SmallVec<V, N> values_;
};

template <typename K, std::size_t N = 8>
class FlatSet {
 public:
  using key_type = K;
  using value_type = K;
  using iterator = const K*;  ///< keys are immutable in place, like std::set
  using const_iterator = const K*;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  [[nodiscard]] const_iterator find(const K& key) const {
    const std::size_t pos = lower_bound_index(key);
    if (pos < items_.size() && items_[pos] == key) {
      return items_.begin() + pos;
    }
    return end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != end();
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  std::pair<const_iterator, bool> insert(const K& key) {
    const std::size_t pos = lower_bound_index(key);
    if (pos < items_.size() && items_[pos] == key) {
      return {items_.begin() + pos, false};
    }
    items_.insert(items_.begin() + pos, key);
    return {items_.begin() + pos, true};
  }

  std::size_t erase(const K& key) {
    const std::size_t pos = lower_bound_index(key);
    if (pos < items_.size() && items_[pos] == key) {
      items_.erase(items_.begin() + pos);
      return 1;
    }
    return 0;
  }

  void clear() { items_.clear(); }

  bool operator==(const FlatSet& other) const { return items_ == other.items_; }

 private:
  [[nodiscard]] std::size_t lower_bound_index(const K& key) const {
    std::size_t lo = 0;
    std::size_t hi = items_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (items_[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  SmallVec<K, N> items_;
};

}  // namespace brisa::util
