// Differential test for the per-VMA range-touch log.
//
// Vma::LogCoversSince answers from per-word coverage stamps and scans the
// log only for words whose stamp is ambiguous. The reference here is the
// log's definition kept as a plain list: the same coalescing, cap and GC
// rules, and a query that is true when any entry in the list covers the
// page at or after `since`. Seeded sequences of LogRangeTouch and GcLog run
// against both, and after every step LogCoversSince is compared on every
// page of the VMA for several `since` values, 0 included, along with the
// log size and every GcLog return value.
//
// The sequences cover same-window refreshes, same-instant overlap
// extensions (and same-instant touches that do not overlap), more than
// 4096 entries logged so the cap evicts, GCs that empty the log, range edges
// inside a word, the VMA's partial tail word, and words that fall back to
// the log scan. The reference also tracks, per word, the newest entry
// covering all of it and the newest touching it at all; a logged page whose
// newest entry is neither is one the two stamps cannot name, so only the
// fallback answers it, and the walk must reach such pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/address_space.hpp"
#include "util/rng.hpp"

namespace daos::sim {
namespace {

constexpr std::size_t kCap = 4096;
constexpr SimTimeUs kHorizon = 10 * kUsPerSec;

// The log as its definition states it, over the pages of one VMA.
class ReferenceLog {
 public:
  explicit ReferenceLog(const Vma& vma)
      : vma_(vma),
        entries_per_page_(vma.page_count(), 0),
        newest_(vma.page_count(), 0),
        touched_((vma.page_count() + 63) / 64, 0),
        whole_((vma.page_count() + 63) / 64, 0) {}

  void Log(Addr s, Addr e, SimTimeUs now) {
    if (!log_.empty()) {
      RangeTouch& back = log_.back();
      if (back.start == s && back.end == e) {
        back.at = now;
        return;
      }
      if (back.at == now && s <= back.end && e >= back.start) {
        Count(back, -1);
        back.start = std::min(back.start, s);
        back.end = std::max(back.end, e);
        Count(back, +1);
        Mark(s, e, back_id(), back);
        return;
      }
    }
    EXPECT_TRUE(log_.empty() || log_.back().at <= now) << "clock went back";
    log_.push_back(RangeTouch{s, e, now});
    Count(log_.back(), +1);
    Mark(s, e, back_id(), log_.back());
    if (log_.size() > kCap) {
      PopFront();
      ++cap_evictions_;
    }
  }

  std::size_t Gc(SimTimeUs now, SimTimeUs horizon) {
    const SimTimeUs cutoff = now > horizon ? now - horizon : 0;
    std::size_t dropped = 0;
    while (!log_.empty() && log_.front().at < cutoff) {
      PopFront();
      ++dropped;
    }
    return dropped;
  }

  // Per page: whether any entry at or after `since` covers it. For
  // since = 0 that is any entry at all, which the per-page entry counts
  // answer; otherwise a difference array over the spans of the entries
  // that qualify. The test's clock never goes back, so entries are sorted
  // by `at` and the walk from the newest ends at the first one older than
  // `since`.
  std::vector<bool> Covered(SimTimeUs since) const {
    std::vector<bool> covered(vma_.page_count());
    if (since == 0) {
      for (std::size_t i = 0; i < vma_.page_count(); ++i)
        covered[i] = entries_per_page_[i] > 0;
      return covered;
    }
    std::vector<int> delta(vma_.page_count() + 1, 0);
    for (auto it = log_.rbegin(); it != log_.rend() && it->at >= since;
         ++it) {
      ++delta[vma_.PageIndex(it->start)];
      --delta[vma_.PageIndex(it->end)];
    }
    int depth = 0;
    for (std::size_t i = 0; i < vma_.page_count(); ++i) {
      depth += delta[i];
      covered[i] = depth > 0;
    }
    return covered;
  }

  // Logged pages whose newest entry is neither the newest entry covering
  // all of their word nor the newest touching the word.
  std::size_t Unnamed() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < vma_.page_count(); ++i) {
      const std::uint64_t id = newest_[i];
      n += id >= head_id_ && id != touched_[i >> 6] && id != whole_[i >> 6];
    }
    return n;
  }

  std::size_t size() const { return log_.size(); }
  const RangeTouch& back() const { return log_.back(); }
  const RangeTouch& at(std::size_t i) const { return log_[i]; }
  std::uint64_t cap_evictions() const { return cap_evictions_; }

 private:
  void Count(const RangeTouch& t, int delta) {
    for (std::size_t i = vma_.PageIndex(t.start); i < vma_.PageIndex(t.end);
         ++i) {
      entries_per_page_[i] += delta;
    }
  }
  void PopFront() {
    Count(log_.front(), -1);
    log_.pop_front();
    ++head_id_;
  }
  std::uint64_t back_id() const { return head_id_ + log_.size() - 1; }
  // Entry `id`, spanning `hull`, now covers pages [s, e).
  void Mark(Addr s, Addr e, std::uint64_t id, const RangeTouch& hull) {
    const std::size_t lo = vma_.PageIndex(s);
    const std::size_t hi = vma_.PageIndex(e);
    for (std::size_t i = lo; i < hi; ++i) newest_[i] = id;
    for (std::size_t w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
      touched_[w] = id;
      const std::size_t wlo = w << 6;
      const std::size_t whi = std::min(wlo + 64, vma_.page_count());
      if (vma_.PageIndex(hull.start) <= wlo && vma_.PageIndex(hull.end) >= whi)
        whole_[w] = id;
    }
  }

  const Vma& vma_;
  std::deque<RangeTouch> log_;
  std::vector<int> entries_per_page_;  // live entries covering each page
  // Entries are numbered from 1 in logging order; 0 is none.
  std::uint64_t head_id_ = 1;           // number of log_.front()
  std::vector<std::uint64_t> newest_;   // per page: newest entry covering it
  std::vector<std::uint64_t> touched_;  // per word: newest entry touching it
  std::vector<std::uint64_t> whole_;    // per word: newest covering it all
  std::uint64_t cap_evictions_ = 0;
};

// First page/since pair where the stamps and the reference disagree, or "".
std::string Diff(const Vma& vma, const ReferenceLog& ref,
                 const std::vector<SimTimeUs>& sinces) {
  if (vma.log_size() != ref.size()) return "log size";
  for (SimTimeUs since : sinces) {
    const std::vector<bool> want = ref.Covered(since);
    for (std::size_t i = 0; i < vma.page_count(); ++i) {
      if (vma.LogCoversSince(vma.AddrOfIndex(i), since) != want[i]) {
        return "page " + std::to_string(i) + " since " +
               std::to_string(since) + " want " + (want[i] ? "true" : "false");
      }
    }
  }
  return "";
}

class TouchLogDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TouchLogDifferentialTest, StampsMatchLinearLog) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  // Two or three full words plus a partial tail word (1-63 pages).
  const std::size_t pages = 64 * (2 + rng.NextBounded(2)) +
                            1 + rng.NextBounded(63);
  const Addr base = 0x40000000 + rng.NextBounded(512) * kPageSize;
  Vma vma(base, base + pages * kPageSize, "log");
  ReferenceLog ref(vma);

  // A page range of the VMA: mostly short with edges inside a word,
  // sometimes whole words, sometimes the whole VMA (tail word included).
  auto pick = [&](Addr* s, Addr* e) {
    std::size_t lo = 0;
    std::size_t hi = pages;
    const std::uint64_t kind = rng.NextBounded(10);
    if (kind < 5) {
      lo = rng.NextBounded(pages);
      hi = std::min(pages, lo + 1 + rng.NextBounded(16));
    } else if (kind < 8) {
      lo = rng.NextBounded(pages);
      hi = lo + 1 + rng.NextBounded(pages - lo);
    } else if (kind < 9) {
      const std::size_t words = (pages + 63) / 64;
      lo = 64 * rng.NextBounded(words);
      hi = std::min(pages, lo + 64 * (1 + rng.NextBounded(2)));
    }
    *s = vma.AddrOfIndex(lo);
    *e = vma.AddrOfIndex(hi);
  };

  SimTimeUs now = 0;
  std::size_t emptied = 0;
  std::uint64_t gc_dropped = 0;
  std::uint64_t unnamed = 0;
  constexpr int kFillSteps = 7500;
  constexpr int kSteps = 9000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.NextBounded(20);
    if (op < 2 && ref.size() > 0) {
      // Same-window refresh of the newest entry, later.
      now += 1 + rng.NextBounded(1500);
      const RangeTouch back = ref.back();
      vma.LogRangeTouch(back.start, back.end, now);
      ref.Log(back.start, back.end, now);
    } else if (op < 6 && ref.size() > 0) {
      // Same instant: overlapping or adjacent to the newest entry (an
      // extension), or anywhere (usually a new entry with an equal `at`).
      const RangeTouch back = ref.back();
      Addr s = 0;
      Addr e = 0;
      pick(&s, &e);
      if (op < 5) {
        // Starts at most 16 pages before the back entry's end and ends at
        // or past its start: a sweep emitted piece by piece.
        const std::size_t blo = vma.PageIndex(back.start);
        const std::size_t bhi = vma.PageIndex(back.end);
        const std::size_t lo = std::min(
            bhi - rng.NextBounded(std::min<std::size_t>(bhi, 16) + 1),
            pages - 1);
        const std::size_t first_hi = std::max(blo, lo + 1);
        const std::size_t hi =
            first_hi + rng.NextBounded(std::min<std::size_t>(
                           16, pages - first_hi) + 1);
        s = vma.AddrOfIndex(lo);
        e = vma.AddrOfIndex(hi);
      }
      vma.LogRangeTouch(s, e, now);
      ref.Log(s, e, now);
    } else if (op < 7) {
      // Periodic GC at the monitoring horizon. Once the log has had time
      // to outgrow the cap, 1 in 4 jumps far enough ahead that it drops
      // every entry.
      if (step >= kFillSteps && rng.NextBounded(4) == 0) now += 2 * kHorizon;
      const std::size_t got = vma.GcLog(now, kHorizon);
      const std::size_t want = ref.Gc(now, kHorizon);
      ASSERT_EQ(got, want) << "GcLog at step " << step;
      gc_dropped += got;
      if (got > 0 && ref.size() == 0) ++emptied;
    } else {
      now += rng.NextBounded(3) * rng.NextBounded(1200);
      Addr s = 0;
      Addr e = 0;
      pick(&s, &e);
      vma.LogRangeTouch(s, e, now);
      ref.Log(s, e, now);
    }

    // Cutoffs: everything, the current instant, and the `at` of one of
    // the newest 256 entries and just past it (exact-boundary cases).
    std::vector<SimTimeUs> sinces = {0, now};
    if (ref.size() > 0) {
      const std::size_t back =
          rng.NextBounded(std::min<std::size_t>(ref.size(), 256));
      const RangeTouch& t = ref.at(ref.size() - 1 - back);
      sinces.push_back(t.at);
      sinces.push_back(t.at + 1);
    }
    ASSERT_EQ(Diff(vma, ref, sinces), "") << "step " << step << " op " << op;
    unnamed += ref.Unnamed();
  }

  // The walk must have reached the cases it exists to compare.
  EXPECT_GT(ref.cap_evictions(), 0u);
  EXPECT_GT(emptied, 0u);
  EXPECT_GT(gc_dropped, 0u);
  EXPECT_GT(unnamed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TouchLogDifferentialTest,
                         ::testing::Range(1, 5));

TEST(TouchLogTest, PageOfADisplacedPartialEntryIsAnsweredFromTheLog) {
  Vma vma(0x40000000, 0x40000000 + 128 * kPageSize, "log");
  auto page = [&](std::size_t i) { return vma.AddrOfIndex(i); };
  vma.LogRangeTouch(page(0), page(10), 1000);
  // A second partial entry in word 0 takes the partial stamp; page 5's
  // newest entry is the first, which no stamp names any more.
  vma.LogRangeTouch(page(20), page(30), 2000);
  EXPECT_TRUE(vma.LogCoversSince(page(5), 0));
  EXPECT_TRUE(vma.LogCoversSince(page(5), 1000));
  EXPECT_FALSE(vma.LogCoversSince(page(5), 1001));
  EXPECT_TRUE(vma.LogCoversSince(page(25), 2000));
  EXPECT_FALSE(vma.LogCoversSince(page(15), 0));
  // A sweep of the whole word names its newest entry again.
  vma.LogRangeTouch(page(0), page(64), 3000);
  EXPECT_TRUE(vma.LogCoversSince(page(5), 3000));
  EXPECT_FALSE(vma.LogCoversSince(page(5), 3001));
  EXPECT_EQ(vma.GcLog(3001 + kHorizon, kHorizon), 3u);
  EXPECT_FALSE(vma.LogCoversSince(page(5), 0));
}

}  // namespace
}  // namespace daos::sim
