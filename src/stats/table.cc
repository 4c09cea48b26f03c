#include "stats/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace acdc::stats {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value) {
  char buf[64];
  if (value != 0.0 && (value >= 1000.0 || value <= -1000.0)) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", value);
  }
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << "| " << cells[c];
      out << std::string(widths[c] - cells[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(const std::string& title) const {
  std::printf("\n== %s ==\n%s", title.c_str(), to_string().c_str());
  std::fflush(stdout);
}

}  // namespace acdc::stats
