// Table rendering for bench output: column-aligned GitHub Markdown, so a
// table on the terminal pastes into a Markdown document unchanged.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace hogsim {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders a Markdown table: every column padded to its widest cell,
  /// and a delimiter row under the header.
  void Print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hogsim
