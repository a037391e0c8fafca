#include "lib/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace tsc {
namespace {

struct Range {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  void Extend(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  bool valid() const { return lo <= hi; }
};

bool Usable(double v, bool log_scale) {
  if (!std::isfinite(v)) return false;
  return !log_scale || v > 0.0;
}

double MaybeLog(double v, bool log_scale) {
  return log_scale ? std::log10(v) : v;
}

std::string FormatTick(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.4g", v);
  return buf;
}

}  // namespace

std::string RenderPlot(const std::vector<Series>& series,
                       const PlotOptions& options) {
  const std::size_t w = std::max<std::size_t>(options.width, 8);
  const std::size_t h = std::max<std::size_t>(options.height, 4);

  Range xr;
  Range yr;
  for (const Series& s : series) {
    const std::size_t n = std::min(s.x.size(), s.y.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!Usable(s.x[i], options.log_x) || !Usable(s.y[i], options.log_y)) {
        continue;
      }
      xr.Extend(MaybeLog(s.x[i], options.log_x));
      yr.Extend(MaybeLog(s.y[i], options.log_y));
    }
  }
  if (!xr.valid() || !yr.valid()) return "(no plottable points)\n";
  if (xr.hi == xr.lo) xr.hi = xr.lo + 1.0;
  if (yr.hi == yr.lo) yr.hi = yr.lo + 1.0;

  std::vector<std::string> grid(h, std::string(w, ' '));
  for (const Series& s : series) {
    const std::size_t n = std::min(s.x.size(), s.y.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!Usable(s.x[i], options.log_x) || !Usable(s.y[i], options.log_y)) {
        continue;
      }
      const double fx =
          (MaybeLog(s.x[i], options.log_x) - xr.lo) / (xr.hi - xr.lo);
      const double fy =
          (MaybeLog(s.y[i], options.log_y) - yr.lo) / (yr.hi - yr.lo);
      const std::size_t col = std::min(
          w - 1, static_cast<std::size_t>(fx * static_cast<double>(w - 1) + 0.5));
      const std::size_t row = std::min(
          h - 1, static_cast<std::size_t>(fy * static_cast<double>(h - 1) + 0.5));
      char& cell = grid[h - 1 - row][col];
      if (cell == ' ') cell = s.marker;
    }
  }

  std::ostringstream out;
  if (!options.title.empty()) out << options.title << "\n";
  const double y_mid = options.log_y
                           ? std::pow(10.0, (yr.lo + yr.hi) / 2.0)
                           : (yr.lo + yr.hi) / 2.0;
  const double y_top = options.log_y ? std::pow(10.0, yr.hi) : yr.hi;
  const double y_bot = options.log_y ? std::pow(10.0, yr.lo) : yr.lo;
  for (std::size_t r = 0; r < h; ++r) {
    if (r == 0) {
      out << FormatTick(y_top);
    } else if (r == h / 2) {
      out << FormatTick(y_mid);
    } else if (r == h - 1) {
      out << FormatTick(y_bot);
    } else {
      out << std::string(10, ' ');
    }
    out << " |" << grid[r] << "\n";
  }
  out << std::string(10, ' ') << " +" << std::string(w, '-') << "\n";
  const double x_left = options.log_x ? std::pow(10.0, xr.lo) : xr.lo;
  const double x_right = options.log_x ? std::pow(10.0, xr.hi) : xr.hi;
  out << std::string(12, ' ') << FormatTick(x_left)
      << std::string(w > 32 ? w - 32 : 1, ' ') << FormatTick(x_right) << "\n";
  if (!options.x_label.empty() || !options.y_label.empty()) {
    out << "            x: " << options.x_label << "   y: " << options.y_label
        << "\n";
  }
  bool any_named = false;
  for (const Series& s : series) {
    if (s.name.empty()) continue;
    out << (any_named ? "  " : "            legend: ");
    out << "'" << s.marker << "'=" << s.name;
    any_named = true;
  }
  if (any_named) out << "\n";
  return out.str();
}

std::string RenderScatter(const std::vector<double>& x,
                          const std::vector<double>& y,
                          const PlotOptions& options) {
  Series s;
  s.marker = '.';
  s.x = x;
  s.y = y;
  return RenderPlot({s}, options);
}

}  // namespace tsc
