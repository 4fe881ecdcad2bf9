/**
 * @file
 * Columnar compressed address traces (in-memory and trace format v3).
 *
 * The Cheetah hot loop replays one captured reference trace once per
 * distinct line size. Stored as an array of 16-byte Access structs,
 * every sweep would stream 16 bytes per reference through the memory
 * system even though the simulators only consume the address (and
 * the address stream itself is highly local). The columnar
 * representation, the only in-memory trace capture, fixes both costs:
 *
 *  - the trace is split into *blocks* of a fixed number of records
 *    (blockCapacity, default 4096);
 *  - within a block the columns are stored as separate streams: the
 *    address column as zigzag-varint *deltas* between consecutive
 *    addresses (sequential code and striding data collapse to one or
 *    two bytes per reference), and the kind column (read/write/
 *    instruction) packed at two bits per record; record sizes are
 *    implicit — every reference is one word;
 *  - each block carries its own header (record count, first address,
 *    FNV-1a checksum over the records) so a decoder can validate —
 *    and in lenient mode salvage — blocks independently.
 *
 * Decoding a block materializes a plain address array in a reusable
 * scratch buffer; SinglePassSim::accessBlock() then consumes the hot
 * span branch-free. One decoded block can feed *all* line sizes in a
 * single pass (the serial SimBank path does exactly that).
 *
 * Trace format v3 is the same layout on disk, binary and mmap-able:
 * the encoded block streams are simulated straight out of the file
 * mapping with no row-wise materialization. The text formats v1/v2
 * remain readable through TraceFileReader; replayTraceFile() sniffs
 * the version and dispatches, and the checksum chain of v3 is the
 * v2 chain (traceChecksumStep), so a lossless v2 -> v3 conversion
 * preserves the file checksum bit-for-bit.
 *
 * On-disk layout (all integers little-endian):
 *
 *   [ 0..23] magic "picoeval-trace-v3" NUL-padded to 24 bytes
 *   [24..87] file header, 8 x u64:
 *            blockCapacity, recordCount, blockCount, indexOffset,
 *            fileChecksum, headerSeal, reserved, reserved
 *   [88.. ]  blocks region: per block
 *              u32 blockMagic  u32 count  u64 firstAddr
 *              u32 deltaBytes  u32 kindBytes  u64 blockChecksum
 *            followed by deltaBytes + kindBytes stream bytes
 *   [index]  blockCount x u64 absolute byte offsets of each block
 *
 * The writer streams blocks as records arrive and patches the file
 * header last (headerSeal); a crash mid-write leaves the seal unset,
 * so truncation is always detected — never a clean end-of-trace.
 */

#ifndef PICO_TRACE_COLUMNAR_TRACE_HPP
#define PICO_TRACE_COLUMNAR_TRACE_HPP

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "support/Logging.hpp"
#include "trace/Access.hpp"
#include "trace/TraceFile.hpp"

namespace pico::trace
{

/** Magic prefix of a version-3 (binary columnar) trace file. */
inline constexpr const char *traceMagicV3 = "picoeval-trace-v3";
/** Bytes reserved for the magic prefix (NUL-padded). */
inline constexpr size_t traceMagicV3Bytes = 24;
/** Per-block magic of the v3 block header. */
inline constexpr uint32_t columnarBlockMagic = 0xb10c7aceU;
/** Value of the headerSeal field once a v3 file is complete. */
inline constexpr uint64_t columnarHeaderSeal = 0x5ea1ed5ea1ed5ea1ULL;

/** Reusable decode scratch: one block's materialized columns. */
class BlockScratch
{
  public:
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> kinds;
};

/** Zero-copy view of one decoded block (points into a scratch). */
struct BlockView
{
    const uint64_t *addrs = nullptr;
    /** Record kinds: 0 data read, 1 data write, 2 instruction. */
    const uint8_t *kinds = nullptr;
    uint32_t count = 0;
};

namespace detail
{

/** Streaming encoder of one columnar block. */
struct BlockEncoder
{
    uint32_t capacity = 0;
    uint32_t count = 0;
    uint64_t firstAddr = 0;
    uint64_t lastAddr = 0;
    uint64_t checksum = traceChecksumSeed;
    std::vector<uint8_t> deltas;
    std::vector<uint8_t> kinds;

    explicit BlockEncoder(uint32_t cap) : capacity(cap) {}

    bool full() const { return count == capacity; }

    void
    reset()
    {
        count = 0;
        firstAddr = lastAddr = 0;
        checksum = traceChecksumSeed;
        deltas.clear();
        kinds.clear();
    }

    /** Append one record (kind 0/1/2). The caller checks full(). */
    void add(int kind, uint64_t addr);
};

/**
 * Decode one block's streams into `scratch`.
 * @return false when a stream is malformed (truncated varint, count
 *         overrun, stream length mismatch) — never throws
 */
bool decodeBlock(const uint8_t *deltas, size_t delta_bytes,
                 const uint8_t *kinds, size_t kind_bytes,
                 uint32_t count, uint64_t first_addr,
                 BlockScratch &scratch, uint64_t &checksum_out);

} // namespace detail

/**
 * In-memory columnar trace, the capture buffer every multi-pass
 * consumer (SimBank, the evaluators) replays. Sink-compatible;
 * immutable once capture ends, so any number of threads may decode
 * blocks concurrently (each with its own BlockScratch).
 */
class ColumnarTraceBuffer
{
  public:
    /** Records per block (power of two; decode scratch sizing). */
    static constexpr uint32_t defaultBlockCapacity = 4096;

    explicit ColumnarTraceBuffer(
        uint32_t block_capacity = defaultBlockCapacity);

    /** Sink interface: append one reference. */
    void operator()(const Access &a) { append(a); }

    /** Append one reference. */
    void append(const Access &a);

    /** Total records captured. */
    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of blocks (including the open tail block). */
    size_t blockCount() const;

    uint32_t blockCapacity() const { return blockCapacity_; }

    /** Running FNV-1a checksum over every record (the v2 chain). */
    uint64_t checksum() const { return checksum_; }

    /** Encoded payload bytes (delta + kind streams, all blocks). */
    uint64_t encodedBytes() const;

    /**
     * Decode one block into `scratch` and return a view of it. The
     * buffer is read-only here: concurrent decodes of any blocks are
     * safe as long as each thread owns its scratch.
     */
    BlockView decodeBlock(size_t index, BlockScratch &scratch) const;

    /** Replay every record, in order, into sink(const Access &). */
    template <typename Sink>
    void
    replay(Sink &&sink) const
    {
        BlockScratch scratch;
        const size_t blocks = blockCount();
        for (size_t b = 0; b < blocks; ++b) {
            BlockView view = decodeBlock(b, scratch);
            for (uint32_t i = 0; i < view.count; ++i) {
                Access a;
                a.addr = view.addrs[i];
                a.isInstr = view.kinds[i] == 2;
                a.isWrite = view.kinds[i] == 1;
                sink(a);
            }
        }
    }

    /** Encoded form of one closed-or-open block (checksum, streams). */
    struct Block
    {
        uint32_t count = 0;
        uint64_t firstAddr = 0;
        uint64_t checksum = traceChecksumSeed;
        std::vector<uint8_t> deltas;
        std::vector<uint8_t> kinds;
    };

    /** Access to the raw encoded blocks (verification, writers). */
    const Block &block(size_t index) const;

  private:
    void sealOpenBlock() const;

    uint32_t blockCapacity_;
    uint64_t size_ = 0;
    uint64_t checksum_ = traceChecksumSeed;
    std::vector<Block> closed_;
    detail::BlockEncoder open_;
    /** Lazily-sealed copy of the open block for decode/block(). */
    mutable Block openView_;
    mutable uint64_t openViewCount_ = 0;
};

/** Streams accesses into a trace format v3 (columnar) file. */
class ColumnarTraceWriter
{
  public:
    /** Open (and truncate) the file; fatal() on failure. */
    explicit ColumnarTraceWriter(
        const std::string &path,
        uint32_t block_capacity =
            ColumnarTraceBuffer::defaultBlockCapacity);

    /** Closes (sealing the header); never throws during unwind. */
    ~ColumnarTraceWriter();

    /** Append one access. */
    void write(const Access &a);

    /** Sink-compatible overload. */
    void operator()(const Access &a) { write(a); }

    /** Records written so far. */
    uint64_t count() const { return count_; }

    /** Flush the tail block, write the index, seal the header. */
    void close();

  private:
    void flushBlock();

    std::string path_;
    std::ofstream out_;
    uint32_t blockCapacity_;
    uint64_t count_ = 0;
    uint64_t checksum_ = traceChecksumSeed;
    detail::BlockEncoder open_;
    std::vector<uint64_t> offsets_;
};

/** Exact accounting of what a columnar reader saw (Lenient mode). */
struct ColumnarCorruptionSummary
{
    /** Records delivered to the caller. */
    uint64_t recordsRead = 0;
    /** Record count the file header promised. */
    uint64_t expectedRecords = 0;
    /** Blocks skipped whole (bad header/magic/checksum/decode). */
    uint64_t corruptBlocks = 0;
    /** Blocks decoded and delivered intact. */
    uint64_t salvagedBlocks = 0;
    /** File header unsealed/truncated (crash mid-write). */
    bool headerTruncated = false;
    /** Whole-file checksum did not match the surviving records. */
    bool checksumMismatch = false;

    bool
    clean() const
    {
        return corruptBlocks == 0 && !headerTruncated &&
               !checksumMismatch &&
               recordsRead == expectedRecords;
    }

    /** Records lost to corruption. */
    uint64_t
    droppedRecords() const
    {
        return expectedRecords > recordsRead
                   ? expectedRecords - recordsRead
                   : 0;
    }

    /** One-line human-readable report. */
    std::string describe() const;
};

/**
 * Replays a trace format v3 file. The file is mapped read-only and
 * block streams are decoded straight out of the mapping (zero-copy
 * of the encoded columns; only the per-block address materialization
 * is written, into the caller's scratch).
 *
 * Corruption is never reported as a clean end: Strict mode raises
 * FatalError naming the block and byte offset; Lenient mode skips
 * exactly the corrupt blocks (whole-block salvage) and accounts for
 * them in summary().
 */
class ColumnarTraceReader
{
  public:
    explicit ColumnarTraceReader(const std::string &path,
                                 TraceReadMode mode =
                                     TraceReadMode::Strict);
    ~ColumnarTraceReader();

    ColumnarTraceReader(const ColumnarTraceReader &) = delete;
    ColumnarTraceReader &operator=(const ColumnarTraceReader &) =
        delete;

    /** Blocks the index declares. */
    size_t blockCount() const { return offsets_.size(); }

    /** Records the file header promises. */
    uint64_t recordCount() const { return recordCount_; }

    uint32_t blockCapacity() const { return blockCapacity_; }

    /**
     * Decode block `index` into `scratch`.
     * @return false when the block is corrupt (Lenient; Strict
     *         raises instead). A false return delivers no records.
     */
    bool decodeBlock(size_t index, BlockScratch &scratch,
                     BlockView &view);

    /**
     * Replay the whole file into sink(const Access &); validates the
     * whole-file checksum at the end.
     * @return records delivered
     */
    template <typename Sink>
    uint64_t
    replay(Sink &&sink)
    {
        BlockScratch scratch;
        uint64_t delivered = 0;
        for (size_t b = 0; b < offsets_.size(); ++b) {
            BlockView view;
            if (!decodeBlock(b, scratch, view))
                continue;
            for (uint32_t i = 0; i < view.count; ++i) {
                Access a;
                a.addr = view.addrs[i];
                a.isInstr = view.kinds[i] == 2;
                a.isWrite = view.kinds[i] == 1;
                sink(a);
            }
            delivered += view.count;
        }
        finish(delivered);
        return delivered;
    }

    /** Corruption accounting; fully populated once replay() (or a
     *  manual block walk plus finish()) completed. */
    const ColumnarCorruptionSummary &summary() const
    {
        return summary_;
    }

    /**
     * Validate the running whole-file checksum after a block walk.
     * replay() calls this automatically.
     */
    void finish(uint64_t delivered);

  private:
    /** Validate magic/header/index; builds the block offset table. */
    void parseHeader();

    [[noreturn]] void corruptionError(const std::string &what,
                                      size_t block,
                                      uint64_t offset) const;

    std::string path_;
    TraceReadMode mode_;
    int fd_ = -1;
    const uint8_t *data_ = nullptr;
    size_t bytes_ = 0;
    uint64_t recordCount_ = 0;
    uint32_t blockCapacity_ = 0;
    uint64_t fileChecksum_ = 0;
    uint64_t runningChecksum_ = traceChecksumSeed;
    std::vector<uint64_t> offsets_;
    ColumnarCorruptionSummary summary_;
    uint64_t warned_ = 0;
};

/**
 * Version of the trace file at `path`: 1 or 2 (text formats, from
 * the header line) or 3 (binary columnar). fatal() when the file is
 * missing or matches no known format.
 */
int sniffTraceFileVersion(const std::string &path);

/**
 * Replay a trace file of *any* format version into a sink: v1/v2 go
 * through TraceFileReader, v3 through ColumnarTraceReader. This is
 * the back-compat entry point — consumers of serialized traces never
 * need to know which format they were handed.
 * @return records delivered
 */
template <typename Sink>
uint64_t
replayTraceFile(const std::string &path, Sink &&sink,
                TraceReadMode mode = TraceReadMode::Strict)
{
    if (sniffTraceFileVersion(path) == 3) {
        ColumnarTraceReader reader(path, mode);
        return reader.replay(std::forward<Sink>(sink));
    }
    TraceFileReader reader(path, mode);
    return reader.replay(std::forward<Sink>(sink));
}

} // namespace pico::trace

#endif // PICO_TRACE_COLUMNAR_TRACE_HPP
