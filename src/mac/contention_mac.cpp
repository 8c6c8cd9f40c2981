// The window rules' parameter checks and the two ContentionScheme
// instantiations (every other translation unit sees them `extern`).
#include "mac/contention_mac.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mac/dcf_mac.hpp"
#include "mac/fcsma_mac.hpp"

namespace rtmac::mac {

DcfWindow::DcfWindow(const SchemeContext& /*ctx*/, DcfParams params) : params_{params} {
  if (params.cw_min < 1 || params.cw_max < params.cw_min) {
    throw std::invalid_argument{"DCF needs 1 <= cw_min <= cw_max"};
  }
}

FcsmaWindow::FcsmaWindow(const SchemeContext& ctx, FcsmaParams params)
    : params_{std::move(params)}, debts_{ctx.debts}, p_{ctx.success_prob} {
  const std::vector<int>& ladder = params_.window_sizes;
  if (ladder.empty() || std::any_of(ladder.begin(), ladder.end(), [](int w) { return w < 1; }) ||
      !(params_.section_width > 0.0)) {
    throw std::invalid_argument{
        "FCSMA needs a non-empty window ladder, every window >= 1, and section_width > 0"};
  }
}

int fcsma_window_for_weight(double weight, const FcsmaParams& params) {
  const auto section = static_cast<std::size_t>(
      std::max(0.0, std::floor(weight / params.section_width)));
  const std::size_t clamped = std::min(section, params.window_sizes.size() - 1);
  return params.window_sizes[clamped];
}

template class ContentionScheme<DcfWindow>;
template class ContentionScheme<FcsmaWindow>;

}  // namespace rtmac::mac
