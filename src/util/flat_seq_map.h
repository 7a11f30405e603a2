// Flat map keyed by dense sequence numbers.
//
// Per-message bookkeeping (delivery instants, reception counts) is keyed by
// stream sequence numbers, which a single source allocates contiguously from
// zero. A red-black tree per lookup is pure overhead for that key
// distribution; this container stores values in a vector indexed by the
// sequence itself and keeps just enough of the std::map surface (ordered
// iteration as (seq, value) pairs, find/size/empty) that analysis and test
// code reads the same either way. Holes — sequences a node never saw — cost
// one presence bit each and are skipped during iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace brisa::util {

template <typename V>
class FlatSeqMap {
 public:
  using key_type = std::uint64_t;
  using mapped_type = V;

  template <bool Const>
  class Iterator {
   public:
    using Container =
        std::conditional_t<Const, const FlatSeqMap, FlatSeqMap>;
    using Ref = std::conditional_t<Const, const V&, V&>;
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = std::pair<std::uint64_t, V>;
    using difference_type = std::ptrdiff_t;
    using reference = std::pair<std::uint64_t, Ref>;
    using pointer = void;

    Iterator() = default;
    Iterator(Container* map, std::size_t index) : map_(map), index_(index) {}

    /// Conversion iterator -> const_iterator.
    operator Iterator<true>() const {  // NOLINT(google-explicit-constructor)
      return {map_, index_};
    }

    [[nodiscard]] std::pair<std::uint64_t, Ref> operator*() const {
      return {static_cast<std::uint64_t>(index_), map_->values_[index_]};
    }

    /// operator-> support for `it->first` / `it->second`: the arrow-proxy
    /// idiom (the pair lives in the proxy, not the container).
    struct ArrowProxy {
      std::pair<std::uint64_t, Ref> pair;
      [[nodiscard]] const std::pair<std::uint64_t, Ref>* operator->() const {
        return &pair;
      }
    };
    [[nodiscard]] ArrowProxy operator->() const { return ArrowProxy{**this}; }

    Iterator& operator++() {
      index_ = map_->next_present(index_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    Iterator& operator--() {
      index_ = map_->prev_present(index_);
      return *this;
    }
    Iterator operator--(int) {
      Iterator copy = *this;
      --*this;
      return copy;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class FlatSeqMap;
    Container* map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  /// Returns the slot for `seq`, default-constructing it on first touch.
  V& operator[](std::uint64_t seq) {
    const auto index = static_cast<std::size_t>(seq);
    if (index >= present_.size()) {
      present_.resize(index + 1, false);
      values_.resize(index + 1);
    }
    if (!present_[index]) {
      present_[index] = true;
      ++size_;
    }
    return values_[index];
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const auto index = static_cast<std::size_t>(seq);
    return index < present_.size() && present_[index];
  }

  [[nodiscard]] std::size_t count(std::uint64_t seq) const {
    return contains(seq) ? 1 : 0;
  }

  /// Removes `seq` if present; returns the number of entries removed (0/1,
  /// std::map::erase analogue). The value slot is reset so a later
  /// re-insertion through operator[] sees a default-constructed V. The
  /// presence vector keeps its length: sequence keys are dense and
  /// monotonically growing, so shrinking would only be undone.
  std::size_t erase(std::uint64_t seq) {
    const auto index = static_cast<std::size_t>(seq);
    if (index >= present_.size() || !present_[index]) return 0;
    present_[index] = false;
    values_[index] = V{};
    --size_;
    return 1;
  }

  [[nodiscard]] iterator find(std::uint64_t seq) {
    return contains(seq) ? iterator(this, static_cast<std::size_t>(seq))
                         : end();
  }
  [[nodiscard]] const_iterator find(std::uint64_t seq) const {
    return contains(seq) ? const_iterator(this, static_cast<std::size_t>(seq))
                         : end();
  }

  /// First present entry with key >= seq (std::map::lower_bound analogue;
  /// drives the pull/anti-entropy batch walks in the baselines).
  [[nodiscard]] iterator lower_bound(std::uint64_t seq) {
    const auto from = static_cast<std::size_t>(seq);
    return {this, next_present(from < present_.size() ? from
                                                      : present_.size())};
  }
  [[nodiscard]] const_iterator lower_bound(std::uint64_t seq) const {
    const auto from = static_cast<std::size_t>(seq);
    return {this, next_present(from < present_.size() ? from
                                                      : present_.size())};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() { return {this, next_present(0)}; }
  [[nodiscard]] iterator end() { return {this, present_.size()}; }
  [[nodiscard]] const_iterator begin() const { return {this, next_present(0)}; }
  [[nodiscard]] const_iterator end() const { return {this, present_.size()}; }

  bool operator==(const FlatSeqMap& other) const {
    if (size_ != other.size_) return false;
    auto it = begin();
    auto jt = other.begin();
    for (; it != end(); ++it, ++jt) {
      if ((*it).first != (*jt).first || !((*it).second == (*jt).second)) {
        return false;
      }
    }
    return true;
  }

 private:
  template <bool Const>
  friend class Iterator;

  [[nodiscard]] std::size_t next_present(std::size_t from) const {
    while (from < present_.size() && !present_[from]) ++from;
    return from;
  }
  [[nodiscard]] std::size_t prev_present(std::size_t from) const {
    BRISA_ASSERT_MSG(size_ > 0, "-- past begin of empty FlatSeqMap");
    do {
      BRISA_ASSERT_MSG(from > 0, "-- past begin of FlatSeqMap");
      --from;
    } while (!present_[from]);
    return from;
  }

  std::vector<V> values_;
  std::vector<bool> present_;
  std::size_t size_ = 0;
};

/// Duplicate-suppression set over dense sequence numbers: the std::set
/// subset the dissemination protocols need (insert / count / max), backed by
/// one presence bit per sequence instead of a red-black-tree node per entry.
/// All four protocols share this one representation; per-node dedup state is
/// max_seq/8 bytes instead of ~48 bytes per delivered message.
class SeqSet {
 public:
  /// Returns true when `seq` was newly inserted.
  bool insert(std::uint64_t seq) {
    const auto index = static_cast<std::size_t>(seq);
    if (index >= present_.size()) present_.resize(index + 1, false);
    if (present_[index]) return false;
    present_[index] = true;
    ++size_;
    if (seq > max_ || size_ == 1) max_ = seq;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const auto index = static_cast<std::size_t>(seq);
    return index < present_.size() && present_[index];
  }

  [[nodiscard]] std::size_t count(std::uint64_t seq) const {
    return contains(seq) ? 1 : 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Largest inserted sequence; set must be non-empty.
  [[nodiscard]] std::uint64_t max() const {
    BRISA_ASSERT_MSG(size_ > 0, "max() of empty SeqSet");
    return max_;
  }

  bool operator==(const SeqSet& other) const {
    if (size_ != other.size_) return false;
    if (size_ == 0) return true;
    if (max_ != other.max_) return false;
    for (std::uint64_t seq = 0; seq <= max_; ++seq) {
      if (contains(seq) != other.contains(seq)) return false;
    }
    return true;
  }

 private:
  // max_ first: owners that read the maximum on a hot path (BRISA's
  // keep-alive watermark) can co-locate it with their own fields.
  std::uint64_t max_ = 0;
  std::size_t size_ = 0;
  std::vector<bool> present_;
};

}  // namespace brisa::util
