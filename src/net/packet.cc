#include "net/packet.h"

#include <array>
#include <cstdio>

namespace acdc::net {

std::string ip_to_string(IpAddr addr) {
  std::array<char, 16> buf{};
  std::snprintf(buf.data(), buf.size(), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return std::string(buf.data());
}

PacketPtr clone_packet(const Packet& p) {
  PacketPtr c = make_packet();
  *c = p;
  return c;
}

}  // namespace acdc::net
