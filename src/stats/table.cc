#include "stats/table.h"

#include <algorithm>

namespace tapo::stats {

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string Table::render() const {
  // Compute column widths across header and all rows.
  std::vector<std::size_t> widths;
  auto grow = [&](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], cells[i].size());
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  std::size_t line_width = 0;
  for (std::size_t w : widths) line_width += w + 3;
  if (line_width >= 1) line_width -= 1;

  auto render_cells = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      line += c;
      line.append(widths[i] - c.size(), ' ');
      if (i + 1 < widths.size()) line += " | ";
    }
    // Trim trailing spaces.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  if (!header_.empty()) {
    out += render_cells(header_);
    out += std::string(line_width, '-') + "\n";
  }
  for (const auto& r : rows_) out += render_cells(r);
  return out;
}

}  // namespace tapo::stats
