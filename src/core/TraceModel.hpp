/**
 * @file
 * AHH trace-parameter extraction (the paper's TraceModeler).
 *
 * The trace is divided into granules of a fixed number of references;
 * within each granule the unique word addresses are sorted so that
 * consecutive addresses form *runs*. Three basic parameters are
 * averaged over granules (section 4.2):
 *
 *   u(1) — unique word references per granule,
 *   p1   — fraction of unique references that are isolated
 *          (runs of length one),
 *   lav  — mean run length.
 *
 * From these the derived parameters p2 (equation 4.4) and u(L)
 * (equation 4.5) follow. Instruction traces are modeled whole
 * (ItraceModeler); unified traces are split into their instruction
 * and data components, each with its own parameters (UtraceModeler).
 */

#ifndef PICO_CORE_TRACE_MODEL_HPP
#define PICO_CORE_TRACE_MODEL_HPP

#include <cstdint>
#include <vector>

#include "support/Logging.hpp"
#include "trace/Access.hpp"

namespace pico::core
{

/** Default granule size for instruction traces (references). */
constexpr uint64_t defaultIGranule = 10000;
/** Default granule size for unified traces (references). */
constexpr uint64_t defaultUGranule = 200000;

/** The AHH basic parameters of one trace component. */
struct ComponentParams
{
    /** Average unique word references per granule, u(1). */
    double u1 = 0.0;
    /** Average fraction of isolated (singular) references, p1. */
    double p1 = 0.0;
    /** Average run length, lav. */
    double lav = 1.0;

    /**
     * Run-continuation probability p2 (equation 4.4):
     * p2 = (lav - (1 + p1)) / (lav - 1), defined as 0 when lav == 1.
     */
    double p2() const;

    /**
     * Average unique cache lines per granule, u(L), for a line of
     * lineWords words (equation 4.5). Substituting equation 4.4 into
     * 4.5 gives the equivalent closed form
     *
     *     u(L) = u(1) * (L + lav - 1) / (L * lav)
     *
     * which is what we evaluate; it is exact at L = 1 and tends to
     * the number of runs u(1)/lav as L grows. lineWords may be any
     * positive real — the dilation model deliberately evaluates it
     * at infeasible line sizes L / d.
     */
    double uLines(double lineWords) const;
};

/**
 * Shared granule machinery: collects the granule's unique word
 * addresses, and at each granule boundary sorts them and accumulates
 * run statistics. A duplicate word is dropped on entry by a flat
 * open-addressing set, so closing a granule sorts only its unique
 * words (the run statistics never depend on repeats).
 */
class GranuleAccumulator
{
  public:
    /** Fold one word address (a byte address / 4) into the
     *  current granule. */
    void
    addWord(uint64_t word)
    {
        panicIf(word == emptySlot, "word address out of range");
        size_t i = slotOf(word);
        while (slots_[i] != emptySlot) {
            if (slots_[i] == word)
                return;
            i = (i + 1) & (slots_.size() - 1);
        }
        slots_[i] = word;
        unique_.push_back(word);
        if (unique_.size() * 2 > slots_.size())
            grow();
    }

    /** Close the current granule and accumulate its statistics. */
    void closeGranule();

    /** Number of closed granules. */
    uint64_t granules() const { return granules_; }

    /** Averaged parameters over all closed granules. */
    ComponentParams params() const;

    /** Unique word addresses collected in the open granule. */
    size_t pendingWords() const { return unique_.size(); }

  private:
    /** Marks a free slot; never a word of a byte address. */
    static constexpr uint64_t emptySlot = ~uint64_t{0};
    static constexpr unsigned minSlotBits = 10;

    /** Fibonacci hash: spreads runs of consecutive words. */
    size_t
    slotOf(uint64_t word) const
    {
        return static_cast<size_t>((word * 0x9E3779B97F4A7C15ULL) >>
                                   (64 - slotBits_));
    }

    /** Double the table and re-insert the granule's words. */
    void grow();

    /** Open-addressing set of the granule's words, load <= 1/2. */
    std::vector<uint64_t> slots_ =
        std::vector<uint64_t>(size_t{1} << minSlotBits, emptySlot);
    unsigned slotBits_ = minSlotBits;
    /** The granule's unique words, in first-seen order. */
    std::vector<uint64_t> unique_;
    uint64_t granules_ = 0;
    double sumUnique_ = 0.0;
    double sumIsolatedFraction_ = 0.0;
    double sumRunLength_ = 0.0;
};

/** Trace modeler for instruction traces. */
class ItraceModeler
{
  public:
    explicit ItraceModeler(uint64_t granule_refs = defaultIGranule)
        : granuleRefs_(granule_refs)
    {
        fatalIf(granule_refs == 0, "granule size must be positive");
    }

    /** Feed one access; non-instruction references are ignored. */
    void
    access(const trace::Access &a)
    {
        if (!a.isInstr)
            return;
        acc_.addWord(a.addr / 4);
        if (++refs_ % granuleRefs_ == 0)
            acc_.closeGranule();
    }

    /** Sink-compatible overload. */
    void operator()(const trace::Access &a) { access(a); }

    /** Parameters of the instruction trace. */
    ComponentParams
    params() const
    {
        fatalIf(acc_.granules() == 0,
                "trace shorter than one granule (", granuleRefs_,
                " refs)");
        return acc_.params();
    }

    uint64_t granules() const { return acc_.granules(); }

  private:
    uint64_t granuleRefs_;
    uint64_t refs_ = 0;
    GranuleAccumulator acc_;
};

/**
 * Trace modeler for unified traces: granules are counted over all
 * references, but instruction and data addresses are sorted and
 * modeled separately (section 4.3).
 */
class UtraceModeler
{
  public:
    explicit UtraceModeler(uint64_t granule_refs = defaultUGranule)
        : granuleRefs_(granule_refs)
    {
        fatalIf(granule_refs == 0, "granule size must be positive");
    }

    void
    access(const trace::Access &a)
    {
        if (a.isInstr)
            iAcc_.addWord(a.addr / 4);
        else
            dAcc_.addWord(a.addr / 4);
        if (++refs_ % granuleRefs_ == 0) {
            iAcc_.closeGranule();
            dAcc_.closeGranule();
        }
    }

    void operator()(const trace::Access &a) { access(a); }

    /** Parameters of the instruction component. */
    ComponentParams
    instrParams() const
    {
        fatalIf(iAcc_.granules() == 0, "unified trace shorter than "
                                       "one granule");
        return iAcc_.params();
    }

    /** Parameters of the data component. */
    ComponentParams
    dataParams() const
    {
        fatalIf(dAcc_.granules() == 0, "unified trace shorter than "
                                       "one granule");
        return dAcc_.params();
    }

    uint64_t granules() const { return iAcc_.granules(); }

  private:
    uint64_t granuleRefs_;
    uint64_t refs_ = 0;
    GranuleAccumulator iAcc_;
    GranuleAccumulator dAcc_;
};

} // namespace pico::core

#endif // PICO_CORE_TRACE_MODEL_HPP
