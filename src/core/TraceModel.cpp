#include "core/TraceModel.hpp"

#include <algorithm>

namespace pico::core
{

double
ComponentParams::p2() const
{
    if (lav <= 1.0)
        return 0.0;
    return (lav - (1.0 + p1)) / (lav - 1.0);
}

double
ComponentParams::uLines(double lineWords) const
{
    fatalIf(lineWords <= 0.0, "line size must be positive");
    // Closed form of equation 4.5 under equation 4.4; see header.
    return u1 * (lineWords + lav - 1.0) / (lineWords * lav);
}

void
GranuleAccumulator::grow()
{
    ++slotBits_;
    slots_.assign(size_t{1} << slotBits_, emptySlot);
    for (uint64_t word : unique_) {
        size_t i = slotOf(word);
        while (slots_[i] != emptySlot)
            i = (i + 1) & (slots_.size() - 1);
        slots_[i] = word;
    }
}

void
GranuleAccumulator::closeGranule()
{
    if (unique_.empty())
        return;

    // addWord already dropped the repeats: sorting the unique words
    // gives the same list as sorting every reference and then
    // removing duplicates.
    std::sort(unique_.begin(), unique_.end());

    // Walk the sorted unique words, splitting into runs of
    // consecutive addresses.
    uint64_t unique = unique_.size();
    uint64_t runs = 0;
    uint64_t isolated = 0;
    size_t i = 0;
    while (i < unique_.size()) {
        size_t j = i + 1;
        while (j < unique_.size() && unique_[j] == unique_[j - 1] + 1)
            ++j;
        ++runs;
        if (j - i == 1)
            ++isolated;
        i = j;
    }

    ++granules_;
    sumUnique_ += static_cast<double>(unique);
    sumIsolatedFraction_ += static_cast<double>(isolated) /
                            static_cast<double>(unique);
    sumRunLength_ += static_cast<double>(unique) /
                     static_cast<double>(runs);
    unique_.clear();
    std::fill(slots_.begin(), slots_.end(), emptySlot);
}

ComponentParams
GranuleAccumulator::params() const
{
    panicIf(granules_ == 0, "params() with no closed granules");
    ComponentParams p;
    auto n = static_cast<double>(granules_);
    p.u1 = sumUnique_ / n;
    p.p1 = sumIsolatedFraction_ / n;
    p.lav = sumRunLength_ / n;
    return p;
}

} // namespace pico::core
