// Fixed-width console tables for the bench harness: each bench prints the
// paper's rows next to the measured ones.
#pragma once

#include <string>
#include <vector>

namespace acdc::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  // Formats numbers compactly (3 significant decimals max).
  static std::string num(double value);

  std::string to_string() const;

  // Prints to stdout with a title line.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace acdc::stats
