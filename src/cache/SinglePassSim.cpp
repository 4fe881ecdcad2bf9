#include "cache/SinglePassSim.hpp"

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::cache
{

SinglePassSim::SinglePassSim(uint32_t line_bytes, uint32_t min_sets,
                             uint32_t max_sets, uint32_t max_assoc)
    : lineBytes_(line_bytes), minSets_(min_sets), maxSets_(max_sets),
      maxAssoc_(max_assoc)
{
    fatalIf(!isPowerOfTwo(line_bytes) || line_bytes < 4,
            "bad line size ", line_bytes);
    fatalIf(!isPowerOfTwo(min_sets) || !isPowerOfTwo(max_sets) ||
                min_sets > max_sets,
            "bad set-count range [", min_sets, ", ", max_sets, "]");
    fatalIf(max_assoc == 0, "max associativity must be positive");
    lineShift_ = log2Floor(line_bytes);

    size_t levels = log2Floor(max_sets) - log2Floor(min_sets) + 1;
    tags_.resize(levels);
    hist_.resize(levels);
    for (size_t lv = 0; lv < levels; ++lv) {
        size_t sets = static_cast<size_t>(minSets_) << lv;
        tags_[lv].assign(sets * maxAssoc_, emptyTag);
        hist_[lv].assign(static_cast<size_t>(maxAssoc_) + 1, 0);
    }
}

size_t
SinglePassSim::levelOf(uint32_t sets) const
{
    fatalIf(!isPowerOfTwo(sets) || sets < minSets_ || sets > maxSets_,
            "set count ", sets, " outside simulated range");
    return log2Floor(sets) - log2Floor(minSets_);
}

inline void
SinglePassSim::touchLevel(size_t lv, uint64_t line)
{
    const uint64_t set_mask =
        (static_cast<uint64_t>(minSets_) << lv) - 1;
    const size_t assoc = maxAssoc_;
    uint64_t *stack = tags_[lv].data() + (line & set_mask) * assoc;

    // Stack-distance search, no early exit: all slots are read and
    // the smallest matching depth wins via conditional moves. Vacant
    // slots hold emptyTag, which no real tag equals.
    size_t depth = assoc;
    for (size_t d = assoc; d-- > 0;)
        depth = stack[d] == line ? d : depth;

    // Exactly one histogram bin per reference: bin `assoc` is the
    // miss bin (stack distance >= every simulated associativity).
    hist_[lv][depth] += 1;

    // LRU update: shift [0, end) down one slot, insert at the top.
    // On a hit end == depth (move-to-front); on a miss end == assoc-1
    // (the LRU tag at the bottom is evicted by the shift).
    size_t end = depth < assoc ? depth : assoc - 1;
    for (size_t d = end; d > 0; --d)
        stack[d] = stack[d - 1];
    stack[0] = line;
}

void
SinglePassSim::access(uint64_t addr)
{
    ++accesses_;
    uint64_t line = addr >> lineShift_;
    // MRU filter: a reference to the line just touched hits at depth
    // 0 in every level and the move-to-front is a no-op everywhere,
    // so one counter stands in for the whole bank update. misses()
    // folds the counter into every level's depth-0 bin.
    if (line == lastLine_) {
        ++mruRepeats_;
        return;
    }
    lastLine_ = line;
    for (size_t lv = 0; lv < tags_.size(); ++lv)
        touchLevel(lv, line);
}

void
SinglePassSim::accessBlock(const uint64_t *addrs, size_t n)
{
    // Compact adjacent same-line runs first (the MRU filter of
    // access(), applied once for all levels), then sweep the
    // compacted lines level by level. Levels are independent, so
    // running the level loop outside the address loop reorders only
    // writes to disjoint state — miss counts are bit-identical to
    // the access() ordering. The payoff is locality: one level's
    // tags stay cached across the span.
    compact_.clear();
    uint64_t last = lastLine_;
    for (size_t i = 0; i < n; ++i) {
        uint64_t line = addrs[i] >> lineShift_;
        if (line != last) {
            compact_.push_back(line);
            last = line;
        }
    }
    lastLine_ = last;
    mruRepeats_ += n - compact_.size();
    for (size_t lv = 0; lv < tags_.size(); ++lv)
        for (uint64_t line : compact_)
            touchLevel(lv, line);
    accesses_ += n;
}

uint64_t
SinglePassSim::misses(uint32_t sets, uint32_t assoc) const
{
    fatalIf(assoc == 0 || assoc > maxAssoc_,
            "associativity ", assoc, " outside simulated range");
    const auto &hist = hist_[levelOf(sets)];
    // Filtered MRU repeats are depth-0 hits at every level, hence
    // hits for every associativity >= 1.
    uint64_t hits = mruRepeats_;
    for (uint32_t d = 0; d < assoc; ++d)
        hits += hist[d];
    return accesses_ - hits;
}

uint64_t
SinglePassSim::misses(const CacheConfig &config) const
{
    fatalIf(!covers(config),
            "configuration ", config.name(), " not covered");
    return misses(config.sets, config.assoc);
}

bool
SinglePassSim::covers(const CacheConfig &config) const
{
    return config.lineBytes == lineBytes_ && config.assoc >= 1 &&
           config.assoc <= maxAssoc_ && isPowerOfTwo(config.sets) &&
           config.sets >= minSets_ && config.sets <= maxSets_;
}

std::vector<CacheConfig>
SinglePassSim::coveredConfigs() const
{
    std::vector<CacheConfig> out;
    for (uint32_t sets = minSets_; sets <= maxSets_; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= maxAssoc_; ++assoc) {
            CacheConfig cfg;
            cfg.sets = sets;
            cfg.assoc = assoc;
            cfg.lineBytes = lineBytes_;
            out.push_back(cfg);
        }
        if (sets == maxSets_)
            break;
    }
    return out;
}

} // namespace pico::cache
