// Page residency of flow-table lanes, read with mincore(2) (Linux only).
//
// A lane reserved for a cap (LaneFill::kSparse) must cost only the pages
// its flows write: mapped with no memset, since a page never written reads
// as zeros (vacant), and with 4 KB pages, so one record faults one page
// rather than a 2 MB huge page. A sweep over a sparse table (for_each, the
// GC) reads the control lane only, so it faults no page either. mincore
// counts a page once anything maps it, a read of the shared zero page
// included, so each test reads the vacant slots only after counting.
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

FlowKey key_n(std::uint16_t port) {
  return FlowKey{net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), port,
                 5000};
}

TEST(LaneResidency, SparseLaneFaultsOnlyTheWrittenPage) {
  constexpr std::size_t kSlots = 1024;  // 256 KB of hot records
  constexpr std::size_t kSlot = 517;
  const TableArray<FlowHot> lane(kSlots, LaneFill::kSparse);
  const std::size_t bytes = kSlots * sizeof(FlowHot);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(lane.data()) % page_bytes(), 0u)
      << "a mapped lane starts on a page";

  EXPECT_TRUE(resident_pages(lane.data(), bytes).empty())
      << "a fresh sparse lane must not be written, not even to zero it";

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
// reserves 16,384 slots: 4 MB of hot and 1 MB of cold records.
TEST(LaneResidency, CappedTableFaultsOnlyThePagesItsFlowsWrite) {
  FlowTable t;
  t.set_limit(8192);
  ASSERT_EQ(t.capacity(), 16'384u);
  constexpr std::uint16_t kFlows = 5;
  for (std::uint16_t p = 0; p < kFlows; ++p) t.find_or_create(key_n(p), 1);
  // Sweeps find live slots by control byte, not by reading records.
  std::size_t visited = 0;
  t.for_each([&](const FlowRef&) { ++visited; });
  EXPECT_EQ(visited, kFlows);
  EXPECT_EQ(t.collect_garbage(2, sim::seconds(60), sim::seconds(1)), 0u);

  const FlowRef first = t.find(key_n(0));
  ASSERT_TRUE(first);
  const FlowHot* hot = first.hot - first.handle.slot;
  const FlowCold* cold = first.cold - first.handle.slot;
  std::set<std::size_t> hot_pages;
  std::set<std::size_t> cold_pages;
  std::set<std::uint32_t> slots;
  for (std::uint16_t p = 0; p < kFlows; ++p) {
    const std::uint32_t slot = t.find(key_n(p)).handle.slot;
    slots.insert(slot);
    hot_pages.insert(slot * sizeof(FlowHot) / page_bytes());
    cold_pages.insert(slot * sizeof(FlowCold) / page_bytes());
  }
  EXPECT_EQ(resident_pages(hot, t.capacity() * sizeof(FlowHot)), hot_pages);
  EXPECT_EQ(resident_pages(cold, t.capacity() * sizeof(FlowCold)),
            cold_pages);

  for (std::uint32_t s = 0; s < t.capacity(); ++s) {
    if (slots.count(s) == 0) {
      ASSERT_EQ(hot[s].gen, 0u) << "slot " << s;
    }
  }
}

}  // namespace
}  // namespace acdc::vswitch
