#include "workloads/session.hpp"

#include <algorithm>

namespace hcc::workloads {

int
stepAtFraction(double fraction, int total_steps)
{
    const double f = std::clamp(fraction, 0.0, 1.0);
    return static_cast<int>(static_cast<double>(total_steps) * f);
}

} // namespace hcc::workloads
