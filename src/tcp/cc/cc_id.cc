#include "tcp/cc/cc_id.h"

#include <array>
#include <ostream>
#include <string>
#include <utility>

namespace acdc::tcp {

namespace {

constexpr std::array<std::pair<CcId, std::string_view>, 7> kNames{{
    {CcId::kReno, "reno"},
    {CcId::kCubic, "cubic"},
    {CcId::kDctcp, "dctcp"},
    {CcId::kVegas, "vegas"},
    {CcId::kIllinois, "illinois"},
    {CcId::kHighspeed, "highspeed"},
    {CcId::kAggressive, "aggressive"},
}};

}  // namespace

std::string_view to_string(CcId id) {
  for (const auto& [cc, name] : kNames) {
    if (cc == id) return name;
  }
  return "?";
}

std::optional<CcId> parse_cc_id(std::string_view name) {
  for (const auto& [cc, n] : kNames) {
    if (n == name) return cc;
  }
  return std::nullopt;
}

std::string_view valid_cc_names() {
  static const std::string names = [] {
    std::string joined;
    for (const auto& [cc, name] : kNames) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    return joined;
  }();
  return names;
}

std::ostream& operator<<(std::ostream& os, CcId id) {
  return os << to_string(id);
}

}  // namespace acdc::tcp
