// Plain-text table rendering for bench output: benches print the paper's
// tables/figures as aligned text for the terminal.
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

  /// Renders with column alignment and a separator under the header.
  void Print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hogsim
