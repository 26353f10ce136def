// ASCII table renderer used by every bench binary to print paper-style
// tables (Table 1, 3, 4, 5, ...) with aligned columns.
#pragma once

#include <string>
#include <vector>

namespace tapo::stats {

class Table {
 public:
  explicit Table(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  /// Appends a data row. Rows shorter than the header are right-padded.
  void add_row(std::vector<std::string> row);

  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tapo::stats
