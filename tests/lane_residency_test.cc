// Page residency of flow-table lanes, read with mincore(2) (Linux only).
//
// A lane under 2 MB is mapped with no memset, since a page never written
// reads as zeros (an empty slot word), and in 4 KB pages, so one write
// faults one page rather than a 2 MB huge page. A capped table's index is
// sized for its cap at set_limit and its record pools are dense, so the
// table costs the index pages its flows' probes reach plus the pages of
// its live records, wherever in the index those flows hash. A sweep
// (for_each, the GC) reads slot words only, so it faults no record page on
// behalf of an empty slot. mincore counts a page once anything maps it, a
// read of the shared zero page included, so each test reads the vacant
// entries only after counting.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <set>
#include <vector>

#include "acdc/flow_table.h"
#include "acdc/table_array.h"
#include "net/packet.h"

namespace acdc::vswitch {

// Reads the spans of a table's lanes, which FlowTable keeps private.
class LaneResidencyProbe {
 public:
  static constexpr std::size_t kSlotWordBytes = sizeof(FlowTable::SlotWord);

  explicit LaneResidencyProbe(const FlowTable& t) : t_(t) {}
  const void* slots() const { return t_.slots_.data(); }
  std::size_t slot_bytes() const { return t_.capacity_ * kSlotWordBytes; }
  std::uint32_t slot_ref(std::uint32_t s) const { return t_.slots_[s].ref; }
  std::uint32_t pool_records() const { return t_.pool_size_; }
  const FlowHot* hot() const { return t_.hot_.data(); }
  const FlowCold* cold() const { return t_.cold_.data(); }

 private:
  const FlowTable& t_;
};

namespace {

std::size_t page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// Indices, from the page holding `p`, of the resident pages of
// [p, p + bytes).
std::set<std::size_t> resident_pages(const void* p, std::size_t bytes) {
  const std::size_t page = page_bytes();
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t base = begin & ~(page - 1);
  const std::size_t len = begin + bytes - base;
  std::vector<unsigned char> vec((len + page - 1) / page);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(base), len, vec.data()), 0);
  std::set<std::size_t> pages;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] & 1) pages.insert(i);
  }
  return pages;
}

// The pages holding records [0, n) of a pool of `Record`s.
template <typename Record>
std::set<std::size_t> record_pages(std::size_t n) {
  std::set<std::size_t> pages;
  for (std::size_t r = 0; r < n; ++r) {
    pages.insert(r * sizeof(Record) / page_bytes());
  }
  return pages;
}

FlowKey key_n(std::uint16_t port) {
  return FlowKey{net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), port,
                 5000};
}

TEST(LaneResidency, SparseLaneFaultsOnlyTheWrittenPage) {
  constexpr std::size_t kSlots = 1024;  // 256 KB of hot records
  constexpr std::size_t kSlot = 517;
  const TableArray<FlowHot> lane(kSlots);
  const std::size_t bytes = kSlots * sizeof(FlowHot);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(lane.data()) % page_bytes(), 0u)
      << "a mapped lane starts on a page";

  EXPECT_TRUE(resident_pages(lane.data(), bytes).empty())
      << "a fresh lane under 2 MB must not be written, not even to zero it";

  FlowHot* hot = new (&lane[kSlot]) FlowHot{};
  hot->gen = 7;
  EXPECT_EQ(resident_pages(lane.data(), bytes),
            std::set<std::size_t>{kSlot * sizeof(FlowHot) / page_bytes()})
      << "one record must fault exactly one base page";

  for (std::size_t s = 0; s < kSlots; ++s) {
    ASSERT_EQ(lane[s].gen, s == kSlot ? 7u : 0u) << "slot " << s;
  }
}

// The service workload's vSwitches cap their tables at 8,192 flows, which
// sizes the index at 16,384 slot words (128 KB).
TEST(LaneResidency, CappedTableFaultsOnlyThePagesItsFlowsWrite) {
  FlowTable t;
  t.set_limit(8192);
  ASSERT_EQ(t.capacity(), 16'384u);
  const LaneResidencyProbe probe(t);
  EXPECT_TRUE(resident_pages(probe.slots(), probe.slot_bytes()).empty())
      << "set_limit must write no slot word";
  EXPECT_EQ(probe.pool_records(), 0u)
      << "records are allocated as flows arrive, not for the cap";

  constexpr std::uint16_t kFlows = 5;
  std::set<std::size_t> slot_pages;
  for (std::uint16_t p = 0; p < kFlows; ++p) {
    const FlowRef f = t.find_or_create(key_n(p), 1);
    ASSERT_TRUE(f.created);
    slot_pages.insert(f.handle.slot * LaneResidencyProbe::kSlotWordBytes /
                      page_bytes());
  }
  ASSERT_GT(slot_pages.size(), 1u) << "the flows must hash across the index";
  const std::size_t pool = probe.pool_records();
  ASSERT_GE(pool, kFlows);
  const std::size_t hot_bytes = pool * sizeof(FlowHot);
  const std::size_t cold_bytes = pool * sizeof(FlowCold);
  EXPECT_EQ(resident_pages(probe.slots(), probe.slot_bytes()), slot_pages)
      << "an insert writes the slot word its probe ends on";
  EXPECT_EQ(resident_pages(probe.hot(), hot_bytes),
            record_pages<FlowHot>(kFlows))
      << "hot records are dense, whatever slots their flows hash to";
  EXPECT_EQ(resident_pages(probe.cold(), cold_bytes),
            record_pages<FlowCold>(kFlows));

  // Sweeps find live slots by slot word: they read every word of the index
  // but no record on behalf of an empty slot.
  std::size_t visited = 0;
  t.for_each([&](const FlowRef&) { ++visited; });
  EXPECT_EQ(visited, kFlows);
  EXPECT_EQ(t.collect_garbage(2, sim::seconds(60), sim::seconds(1)), 0u);
  EXPECT_EQ(resident_pages(probe.hot(), hot_bytes),
            record_pages<FlowHot>(kFlows));
  EXPECT_EQ(resident_pages(probe.cold(), cold_bytes),
            record_pages<FlowCold>(kFlows));

  std::size_t live = 0;
  for (std::uint32_t s = 0; s < t.capacity(); ++s) {
    if (probe.slot_ref(s) != 0) ++live;
  }
  EXPECT_EQ(live, kFlows);
}

}  // namespace
}  // namespace acdc::vswitch
