#include "stats/table.hh"

#include "common/logging.hh"
#include "common/string_utils.hh"

#include <algorithm>
#include <cstdio>

namespace vdnn::stats
{

void
Table::setColumns(std::vector<std::string> names)
{
    VDNN_ASSERT(body.empty(), "setColumns() after rows were added");
    VDNN_ASSERT(!names.empty(), "a table needs at least one column");
    header = std::move(names);
}

void
Table::addRow(std::vector<std::string> cells)
{
    VDNN_ASSERT(cells.size() == header.size(),
                "row has %zu cells, table has %zu columns", cells.size(),
                header.size());
    body.push_back(std::move(cells));
}

std::string
Table::cell(double v, int precision)
{
    return strFormat("%.*f", precision, v);
}

std::string
Table::cellInt(long long v)
{
    return strFormat("%lld", v);
}

std::string
Table::cellPercent(double fraction, int precision)
{
    return strFormat("%.*f%%", precision, fraction * 100.0);
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : body)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto renderRow = [&](const std::vector<std::string> &row) {
        std::string line = "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += ' ';
            line += padRight(row[c], widths[c]);
            line += " |";
        }
        return line + "\n";
    };

    std::size_t total = 1;
    for (auto w : widths)
        total += w + 3;

    std::string rule(total, '-');
    std::string out;
    out += "\n=== " + tableTitle + " ===\n";
    out += rule + "\n";
    out += renderRow(header);
    out += rule + "\n";
    for (const auto &row : body)
        out += renderRow(row);
    out += rule + "\n";
    return out;
}

std::string
Table::csv() const
{
    auto escape = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string q = "\"";
        for (char ch : s) {
            if (ch == '"')
                q += "\"\"";
            else
                q += ch;
        }
        return q + "\"";
    };
    std::string out;
    std::vector<std::string> cells;
    cells.reserve(header.size());
    for (const auto &h : header)
        cells.push_back(escape(h));
    out += join(cells, ",") + "\n";
    for (const auto &row : body) {
        cells.clear();
        for (const auto &c : row)
            cells.push_back(escape(c));
        out += join(cells, ",") + "\n";
    }
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
    std::fflush(stdout);
}

} // namespace vdnn::stats
