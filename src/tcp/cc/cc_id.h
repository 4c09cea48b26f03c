// Typed congestion-control identifiers. Everything inside the simulator
// (TcpConfig, Scenario, the fuzzer's traffic plans) speaks CcId; strings
// exist only at the CLI edge, where parse_cc_id() converts them and
// valid_cc_names() feeds the error message for a bad flag.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>

namespace acdc::tcp {

enum class CcId {
  kReno,
  kCubic,
  kDctcp,
  kVegas,
  kIllinois,
  kHighspeed,
  // Non-conforming tenant stack (policing experiments, Fig. 13).
  kAggressive,
};

// The canonical lowercase name: the one table in cc_id.cc that parsing and
// valid_cc_names() read too.
std::string_view to_string(CcId id);

// CLI-edge parsing; nullopt for unknown names.
std::optional<CcId> parse_cc_id(std::string_view name);

// "reno, cubic, dctcp, ..." — every name in enum order, for error messages
// at the parse edge.
std::string_view valid_cc_names();

// Prints the canonical name (test failure messages, tables).
std::ostream& operator<<(std::ostream& os, CcId id);

}  // namespace acdc::tcp
