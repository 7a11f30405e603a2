// Randomized differential tests for the flat hot-path containers:
// util::SmallVec against std::vector, util::FlatMap against std::map,
// util::FlatSet against std::set, util::SeqSet against std::set and
// util::FlatSeqMap against std::map — same operation stream,
// element-identical state and iteration order after every step.
// Iteration-order equality is the load-bearing property: the repo's
// determinism contract (same seed => byte-identical experiment output)
// survives the std::map -> FlatMap migration only because ascending-key
// iteration is preserved exactly.
//
// The large-N stress cases push the containers well past their inline
// capacity and back; CI runs this binary under ASan/UBSan, which turns any
// placement-new / destructor mismatch in the small-buffer machinery into a
// hard failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "util/flat_map.h"
#include "util/flat_seq_map.h"
#include "util/small_vec.h"

namespace brisa {
namespace {

// --- SmallVec vs std::vector -------------------------------------------------

/// Move-aware element type: counts live instances so leaks/double-destroys
/// surface even without ASan.
struct Tracked {
  static int live;
  int value = 0;
  Tracked() { ++live; }
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& other) : value(other.value) { ++live; }
  Tracked(Tracked&& other) noexcept : value(other.value) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) noexcept = default;
  ~Tracked() { --live; }
  bool operator==(const Tracked& other) const { return value == other.value; }
};
int Tracked::live = 0;

template <typename Flat>
void expect_same_vector(const Flat& flat, const std::vector<Tracked>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(flat[i].value, ref[i].value) << "at index " << i;
  }
}

TEST(SmallVec, DifferentialAgainstStdVector) {
  sim::Rng rng(0x5e11);
  for (int round = 0; round < 20; ++round) {
    {
      util::SmallVec<Tracked, 4> flat;
      std::vector<Tracked> ref;
      for (int op = 0; op < 400; ++op) {
        const std::uint64_t dice = rng.uniform(100);
        if (dice < 50 || ref.empty()) {
          const int v = static_cast<int>(rng.uniform(1000));
          flat.push_back(Tracked(v));
          ref.push_back(Tracked(v));
        } else if (dice < 70) {
          const std::size_t at = rng.uniform(ref.size() + 1);
          const int v = static_cast<int>(rng.uniform(1000));
          flat.insert(flat.begin() + at, Tracked(v));
          ref.insert(ref.begin() + at, Tracked(v));
        } else if (dice < 90) {
          const std::size_t at = rng.uniform(ref.size());
          flat.erase(flat.begin() + at);
          ref.erase(ref.begin() + at);
        } else {
          flat.pop_back();
          ref.pop_back();
        }
        expect_same_vector(flat, ref);
      }
      // Copy and move preserve contents.
      util::SmallVec<Tracked, 4> copy = flat;
      expect_same_vector(copy, ref);
      util::SmallVec<Tracked, 4> moved = std::move(flat);
      expect_same_vector(moved, ref);
    }
    EXPECT_EQ(Tracked::live, 0) << "instance leak after round " << round;
  }
}

TEST(SmallVec, InlineToHeapTransitionAndBack) {
  util::SmallVec<std::string, 2> v;
  EXPECT_TRUE(v.is_inline());
  v.push_back("alpha");
  v.push_back("beta");
  EXPECT_TRUE(v.is_inline());
  v.push_back("gamma-long-enough-to-defeat-sso-optimizations-everywhere");
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[2], "gamma-long-enough-to-defeat-sso-optimizations-everywhere");
  // Move-from a spilled vector steals the heap block.
  util::SmallVec<std::string, 2> w = std::move(v);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1], "beta");
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  // Moved-from vector is reusable.
  v.push_back("delta");
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(v.is_inline());
}

TEST(SmallVec, LargeNStress) {
  util::SmallVec<std::uint64_t, 8> v;
  for (std::uint64_t i = 0; i < 100'000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 100'000u);
  EXPECT_EQ(v[99'999], 99'999u * 3);
  // Order-preserving erase from the middle.
  v.erase(v.begin() + 50'000);
  EXPECT_EQ(v[50'000], (50'001u) * 3);
  v.clear();
  EXPECT_TRUE(v.empty());
}

// --- FlatMap vs std::map -----------------------------------------------------

template <typename FlatT, typename RefT>
void expect_same_map(const FlatT& flat, const RefT& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  for (const auto& [key, value] : ref) {
    ASSERT_NE(fit, flat.end());
    EXPECT_EQ(fit->first, key);
    EXPECT_EQ(fit->second, value);
    ++fit;
  }
  EXPECT_EQ(fit, flat.end());
}

TEST(FlatMap, DifferentialAgainstStdMap) {
  sim::Rng rng(0xF1a7);
  for (int round = 0; round < 20; ++round) {
    util::FlatMap<std::uint32_t, std::string, 4> flat;
    std::map<std::uint32_t, std::string> ref;
    for (int op = 0; op < 600; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(64));
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 35) {
        const std::string value = "v" + std::to_string(rng.uniform(1000));
        flat[key] = value;
        ref[key] = value;
      } else if (dice < 55) {
        const auto [it, inserted] = flat.try_emplace(key, "fresh");
        const auto [rit, rinserted] = ref.try_emplace(key, "fresh");
        EXPECT_EQ(inserted, rinserted);
        EXPECT_EQ(it->second, rit->second);
      } else if (dice < 75) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else if (dice < 90) {
        const auto it = flat.find(key);
        const auto rit = ref.find(key);
        EXPECT_EQ(it != flat.end(), rit != ref.end());
        if (it != flat.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
      } else {
        EXPECT_EQ(flat.count(key), ref.count(key));
        EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
      }
      // Iteration order must match std::map exactly after every mutation:
      // this is the property the determinism goldens lean on.
      expect_same_map(flat, ref);
    }
  }
}

TEST(FlatMap, EraseByIteratorMatchesStdMap) {
  util::FlatMap<int, int, 4> flat;
  std::map<int, int> ref;
  for (int i = 0; i < 32; ++i) {
    flat[i * 7 % 32] = i;
    ref[i * 7 % 32] = i;
  }
  // Erase every even key through the iterator form.
  for (int key = 0; key < 32; key += 2) {
    const auto it = flat.find(key);
    ASSERT_NE(it, flat.end());
    flat.erase(it);
    ref.erase(key);
  }
  expect_same_map(flat, ref);
}

TEST(FlatMap, LargeNStress) {
  util::FlatMap<std::uint64_t, std::uint64_t, 4> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  sim::Rng rng(0xbeef);
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t key = rng.uniform(50'000);
    flat[key] = key * 2;
    ref[key] = key * 2;
  }
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.uniform(50'000);
    EXPECT_EQ(flat.erase(key), ref.erase(key));
  }
  expect_same_map(flat, ref);
}

/// Link-sized value (about 80 bytes, like the per-neighbor protocol links):
/// keys and values live in separate arrays, so every operation below also
/// checks that the two stay index-aligned through shifts, spills and moves.
struct WideValue {
  Tracked tracked;
  std::uint64_t pad[8] = {};
  WideValue() = default;
  explicit WideValue(int v) : tracked(v) {
    pad[7] = static_cast<std::uint64_t>(v);
  }
  bool operator==(const WideValue& other) const {
    return tracked == other.tracked && pad[7] == other.pad[7];
  }
};

TEST(FlatMap, KeySeparatedLayoutDifferential) {
  sim::Rng rng(0x5e9a);
  for (int round = 0; round < 20; ++round) {
    {
      util::FlatMap<std::uint32_t, WideValue, 2> flat;
      std::map<std::uint32_t, WideValue> ref;
      for (int op = 0; op < 600; ++op) {
        const auto key = static_cast<std::uint32_t>(rng.uniform(24));
        const std::uint64_t dice = rng.uniform(100);
        if (dice < 30) {
          const int v = static_cast<int>(rng.uniform(1000));
          flat[key] = WideValue(v);
          ref[key] = WideValue(v);
        } else if (dice < 45) {
          const int v = static_cast<int>(rng.uniform(1000));
          const auto [it, inserted] = flat.emplace(key, WideValue(v));
          const auto [rit, rinserted] = ref.emplace(key, WideValue(v));
          EXPECT_EQ(inserted, rinserted);
          EXPECT_EQ(it->second, rit->second);
        } else if (dice < 60) {
          // Erase through the iterator form: the returned iterator must name
          // the next key with its own value, like std::map::erase.
          const auto it = flat.find(key);
          const auto rit = ref.find(key);
          ASSERT_EQ(it != flat.end(), rit != ref.end());
          if (it != flat.end()) {
            const auto next = flat.erase(it);
            const auto rnext = ref.erase(rit);
            ASSERT_EQ(next != flat.end(), rnext != ref.end());
            if (next != flat.end()) {
              EXPECT_EQ(next->first, rnext->first);
              EXPECT_EQ(next->second, rnext->second);
            }
          }
        } else if (dice < 75) {
          // Mutation through an iterator reaches the value paired with the
          // key that was found.
          const auto it = flat.find(key);
          if (it != flat.end()) {
            it->second.tracked.value += 1;
            ref[key].tracked.value += 1;
          }
        } else if (dice < 85) {
          EXPECT_EQ(flat.erase(key), ref.erase(key));
        } else if (dice < 95) {
          // Copies and moves carry both arrays, inline or spilled.
          util::FlatMap<std::uint32_t, WideValue, 2> copy = flat;
          EXPECT_TRUE(copy == flat);
          util::FlatMap<std::uint32_t, WideValue, 2> moved = std::move(copy);
          EXPECT_TRUE(moved == flat);
          flat = std::move(moved);
        } else {
          // Reverse iteration walks the same aligned pairs backwards.
          auto rit = ref.rbegin();
          for (auto it = flat.end(); it != flat.begin();) {
            --it;
            ASSERT_NE(rit, ref.rend());
            EXPECT_EQ(it->first, rit->first);
            EXPECT_EQ(it->second, rit->second);
            ++rit;
          }
        }
        expect_same_map(flat, ref);
      }
    }
    EXPECT_EQ(Tracked::live, 0) << "leaked or double-destroyed values";
  }
}

// --- FlatSet vs std::set -----------------------------------------------------

TEST(FlatSet, DifferentialAgainstStdSet) {
  sim::Rng rng(0x5e7);
  for (int round = 0; round < 20; ++round) {
    util::FlatSet<std::uint32_t, 4> flat;
    std::set<std::uint32_t> ref;
    for (int op = 0; op < 600; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(48));
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 45) {
        const auto [it, inserted] = flat.insert(key);
        EXPECT_EQ(inserted, ref.insert(key).second);
        EXPECT_EQ(*it, key);
      } else if (dice < 75) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else {
        EXPECT_EQ(flat.count(key), ref.count(key));
      }
      ASSERT_EQ(flat.size(), ref.size());
      auto fit = flat.begin();
      for (const std::uint32_t expected : ref) {
        EXPECT_EQ(*fit, expected);
        ++fit;
      }
    }
  }
}

// --- SeqSet vs std::set ------------------------------------------------------

TEST(SeqSet, DifferentialAgainstStdSet) {
  sim::Rng rng(0x5ee);
  for (int round = 0; round < 10; ++round) {
    util::SeqSet flat;
    std::set<std::uint64_t> ref;
    for (int op = 0; op < 2'000; ++op) {
      const std::uint64_t seq = rng.uniform(4'096);
      if (rng.uniform(100) < 70) {
        EXPECT_EQ(flat.insert(seq), ref.insert(seq).second);
      } else {
        EXPECT_EQ(flat.count(seq), ref.count(seq));
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!ref.empty()) {
        EXPECT_EQ(flat.max(), *ref.rbegin());
      }
    }
  }
}

TEST(SeqSet, ContiguousWalkMatchesProtocolUse) {
  // The exact pattern the protocols run: insert out of order, advance the
  // contiguous watermark with count().
  util::SeqSet seen;
  std::uint64_t upto = 0;
  for (const std::uint64_t seq : {1, 0, 4, 2, 3, 7, 5}) {
    seen.insert(seq);
    while (seen.count(upto) > 0) ++upto;
  }
  EXPECT_EQ(upto, 6u);
  EXPECT_EQ(seen.max(), 7u);
  EXPECT_EQ(seen.size(), 7u);
}

// --- FlatSeqMap vs std::map ----------------------------------------------------

/// Element-identical state, walked both ways: forward from begin() and
/// backward from end() over the holes, plus find/contains per key.
void expect_same_seq_map(const util::FlatSeqMap<int>& flat,
                         const std::map<std::uint64_t, int>& ref,
                         std::uint64_t key_space) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  auto fit = flat.begin();
  for (const auto& [key, value] : ref) {
    ASSERT_NE(fit, flat.end());
    EXPECT_EQ(fit->first, key);
    EXPECT_EQ(fit->second, value);
    ++fit;
  }
  EXPECT_EQ(fit, flat.end());
  auto bit = flat.end();
  for (auto rit = ref.rbegin(); rit != ref.rend(); ++rit) {
    --bit;
    EXPECT_EQ((*bit).first, rit->first);
    EXPECT_EQ((*bit).second, rit->second);
  }
  EXPECT_EQ(bit, flat.begin());
  for (std::uint64_t key = 0; key <= key_space; ++key) {
    const auto found = flat.find(key);
    const auto expected = ref.find(key);
    ASSERT_EQ(found == flat.end(), expected == ref.end()) << "key " << key;
    EXPECT_EQ(flat.count(key), ref.count(key));
    if (expected != ref.end()) {
      EXPECT_EQ(found->second, expected->second);
    }
  }
}

TEST(FlatSeqMap, DifferentialAgainstStdMap) {
  sim::Rng rng(0xf1a7);
  for (int round = 0; round < 12; ++round) {
    // Key spaces straddling 64-bit word boundaries.
    const std::uint64_t key_space = 1 + rng.uniform(300);
    util::FlatSeqMap<int> flat;
    std::map<std::uint64_t, int> ref;
    for (int op = 0; op < 1'500; ++op) {
      const std::uint64_t key = rng.uniform(key_space);
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 45) {
        const int v = static_cast<int>(rng.uniform(1'000));
        flat[key] = v;
        ref[key] = v;
      } else if (dice < 60) {
        // operator[] on a missing key default-constructs, like std::map;
        // after an erase it must see a fresh value, not the old one.
        EXPECT_EQ(flat[key], ref[key]);
        flat[key] += 1;
        ref[key] += 1;
      } else if (dice < 85) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else {
        const auto fit = flat.lower_bound(key);
        const auto rit = ref.lower_bound(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end()) << "probe " << key;
        if (rit != ref.end()) {
          EXPECT_EQ(fit->first, rit->first);
          EXPECT_EQ(fit->second, rit->second);
        }
      }
      if (op % 100 == 99) expect_same_seq_map(flat, ref, key_space);
    }
    expect_same_seq_map(flat, ref, key_space);
    // Probes past the highest key ever touched.
    EXPECT_EQ(flat.lower_bound(key_space + 1000), flat.end());
    EXPECT_EQ(flat.find(key_space + 1000), flat.end());
  }
}

TEST(FlatSeqMap, EqualityComparesEntriesNotHistory) {
  util::FlatSeqMap<int> a;
  util::FlatSeqMap<int> b;
  EXPECT_TRUE(a == b);
  a[3] = 1;
  EXPECT_FALSE(a == b);
  b[3] = 1;
  EXPECT_TRUE(a == b);
  // Same entries, different touched lengths: still equal, as std::map.
  a[200] = 5;
  a.erase(200);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b[64] = 2;
  EXPECT_FALSE(a == b);
  a[64] = 3;
  EXPECT_FALSE(a == b);  // same keys, different value
  a[64] = 2;
  EXPECT_TRUE(a == b);
  // Randomized: equality agrees with std::map equality.
  sim::Rng rng(0xe0);
  for (int round = 0; round < 200; ++round) {
    util::FlatSeqMap<int> x;
    util::FlatSeqMap<int> y;
    std::map<std::uint64_t, int> rx;
    std::map<std::uint64_t, int> ry;
    for (int op = 0; op < 6; ++op) {
      const std::uint64_t key = rng.uniform(130);
      const int v = static_cast<int>(rng.uniform(2));
      x[key] = v;
      rx[key] = v;
      if (rng.uniform(4) != 0) {
        y[key] = v;
        ry[key] = v;
      }
      if (rng.uniform(5) == 0) {
        EXPECT_EQ(x.erase(key), rx.erase(key));
      }
    }
    EXPECT_EQ(x == y, rx == ry) << "round " << round;
    EXPECT_EQ(y == x, ry == rx) << "round " << round;
  }
}

// --- FlatSeqMap additions ----------------------------------------------------

TEST(FlatSeqMap, LowerBoundSkipsHolesLikeStdMap) {
  util::FlatSeqMap<int> flat;
  std::map<std::uint64_t, int> ref;
  for (const std::uint64_t seq : {2, 3, 9, 15, 16}) {
    flat[seq] = static_cast<int>(seq) * 10;
    ref[seq] = static_cast<int>(seq) * 10;
  }
  for (std::uint64_t probe = 0; probe <= 20; ++probe) {
    auto fit = flat.lower_bound(probe);
    auto rit = ref.lower_bound(probe);
    if (rit == ref.end()) {
      EXPECT_EQ(fit, flat.end()) << "probe " << probe;
    } else {
      ASSERT_NE(fit, flat.end()) << "probe " << probe;
      EXPECT_EQ(fit->first, rit->first);
      EXPECT_EQ(fit->second, rit->second);
    }
  }
}

}  // namespace
}  // namespace brisa
