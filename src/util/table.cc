#include "src/util/table.h"

#include <algorithm>
#include <cassert>

namespace hogsim {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(width[c] - row[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  print_row(header_);
  os << '|';
  for (auto w : width) os << std::string(w + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace hogsim
