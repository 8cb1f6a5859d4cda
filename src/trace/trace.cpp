#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/run_length.hpp"

namespace bml {

LoadTrace::LoadTrace(std::vector<double> rates) {
  // One pass: validate each rate and record where it differs from the
  // previous one.
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double r = rates[i];
    if (!(r >= 0.0) || !std::isfinite(r))
      throw std::invalid_argument(
          "LoadTrace: rates must be finite and >= 0");
    if (i > 0 && r != rates[i - 1]) change_points_.push_back(i);
  }
  series_ = TimeSeries(std::move(rates), 1.0);
  series_.build_max_index();
}

std::uint64_t LoadTrace::next_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

ReqRate LoadTrace::at(TimePoint t) const {
  if (t < 0) throw std::invalid_argument("LoadTrace: negative time");
  const auto idx = static_cast<std::size_t>(t);
  if (idx >= series_.size()) return 0.0;
  return series_[idx];
}

ReqRate LoadTrace::max_over(TimePoint begin, TimePoint end) const {
  if (begin < 0) begin = 0;
  if (end <= begin) return 0.0;
  return series_.max_over(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end));
}

TimePoint LoadTrace::next_change(TimePoint t) const {
  if (t < 0) throw std::invalid_argument("LoadTrace: negative time");
  const std::size_t n = series_.size();
  const auto idx = static_cast<std::size_t>(t);
  if (idx >= n) {
    // Beyond the end the trace serves 0 forever: no further change.
    return std::numeric_limits<TimePoint>::max();
  }
  return next_change_point(change_points_, idx, n, series_[n - 1]);
}

ReqRate LoadTrace::peak() const { return series_.empty() ? 0.0 : series_.max(); }

ReqRate LoadTrace::mean() const {
  return series_.empty() ? 0.0 : series_.mean();
}

std::size_t LoadTrace::days() const {
  const auto day = static_cast<std::size_t>(kSecondsPerDay);
  return (series_.size() + day - 1) / day;
}

ReqRate LoadTrace::day_peak(std::size_t d) const {
  if (d >= days()) throw std::out_of_range("LoadTrace: day out of range");
  const auto day = static_cast<std::size_t>(kSecondsPerDay);
  return series_.max_over(d * day, (d + 1) * day);
}

double LoadTrace::total_requests() const { return series_.integral(); }

std::string LoadTrace::to_csv() const {
  std::ostringstream os;
  os << "rate\n";
  os.precision(10);
  for (std::size_t i = 0; i < series_.size(); ++i) os << series_[i] << '\n';
  return os.str();
}

LoadTrace LoadTrace::from_csv(const std::string& text) {
  const CsvTable table = parse_csv(text, /*has_header=*/true);
  const std::size_t col = table.column("rate");
  std::vector<double> rates;
  rates.reserve(table.rows.size());
  for (const auto& row : table.rows) rates.push_back(parse_double(row[col]));
  return LoadTrace(std::move(rates));
}

void LoadTrace::save(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("LoadTrace: cannot open " + path.string());
  out << to_csv();
}

LoadTrace LoadTrace::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("LoadTrace: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_csv(buffer.str());
}

}  // namespace bml
