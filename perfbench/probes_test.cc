// Tests of the traced run's arithmetic and wiring: self time on a
// hand-built span nesting, and NIC rx bursts reaching the vSwitch intact.
#include "probes.h"

#include <gtest/gtest.h>

#include <vector>

namespace acdc::perfbench {
namespace {

TEST(SpanStack, SelfTimeSubtractsNestedSpans) {
  // [0 ............................ 100]  bottom ingress
  //    [10 ................... 80]         top ingress (stack)
  //        [20 ...... 50]                  top egress (ACK out)
  //           [30 40]                      bottom egress (NIC tx)
  //                       [60 70]          second top egress
  SpanStack s;
  s.open(0);
  s.open(10);
  s.open(20);
  s.open(30);
  EXPECT_EQ(s.close(40), 10);  // leaf: its whole duration
  EXPECT_EQ(s.close(50), 20);  // 30 minus the 10 nested
  s.open(60);
  EXPECT_EQ(s.close(70), 10);
  EXPECT_EQ(s.close(80), 30);   // 70 minus 30 + 10
  EXPECT_EQ(s.close(100), 30);  // 100 minus 70
  EXPECT_EQ(s.depth(), 0u);
  // Self times partition the outermost span: 10 + 20 + 10 + 30 + 30.
}

TEST(SpanStack, SiblingRootsAreIndependent) {
  SpanStack s;
  s.open(0);
  EXPECT_EQ(s.close(5), 5);
  s.open(10);
  s.open(11);
  EXPECT_EQ(s.close(12), 1);
  EXPECT_EQ(s.close(20), 9);
}

// Stands in for the vSwitch: records how ingress arrives.
class RecordingFilter : public net::DuplexFilter {
 public:
  std::vector<std::size_t> bursts;
  int singles = 0;

 protected:
  void handle_ingress(net::PacketPtr) override { ++singles; }
  void handle_ingress_burst(net::PacketPtr*, std::size_t count) override {
    bursts.push_back(count);
  }
};

TEST(BottomProbe, ForwardsRxBurstIntact) {
  RecordingFilter vswitch;
  LayerTotals totals;
  BottomProbe bottom(&vswitch, &totals);
  constexpr std::size_t kBurst = 7;
  std::vector<net::PacketPtr> packets;
  for (std::size_t i = 0; i < kBurst; ++i) packets.push_back(net::make_packet());
  bottom.ingress_in().receive_burst(packets.data(), kBurst);

  ASSERT_EQ(vswitch.bursts.size(), 1u);
  EXPECT_EQ(vswitch.bursts[0], kBurst);
  EXPECT_EQ(vswitch.singles, 0);
  EXPECT_EQ(totals.pkts[kAcdcIngress], static_cast<std::int64_t>(kBurst));
  EXPECT_GE(totals.self_ns[kAcdcIngress], 0);
  EXPECT_EQ(SpanStack::local().depth(), 0u);
}

TEST(BottomProbe, SinglePacketStaysSingle) {
  RecordingFilter vswitch;
  LayerTotals totals;
  BottomProbe bottom(&vswitch, &totals);
  bottom.ingress_in().receive(net::make_packet());
  EXPECT_TRUE(vswitch.bursts.empty());
  EXPECT_EQ(vswitch.singles, 1);
  EXPECT_EQ(totals.pkts[kAcdcIngress], 1);
}

}  // namespace
}  // namespace acdc::perfbench
