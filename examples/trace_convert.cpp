/**
 * @file
 * Trace file converter: re-encode a captured trace file in either
 * the row-wise text format (v2) or the blocked columnar binary
 * format (v3). The record stream and its whole-file checksum are
 * preserved bit-for-bit in both directions, so a converted file
 * replays identically to its source.
 *
 * Usage: trace_convert <input> <output> [--format v2|v3]
 *   input    a v1/v2 text or v3 columnar trace file (sniffed)
 *   --format target format (default v3)
 * Flags accept both `--flag value` and `--flag=value`; --help prints
 * the usage line and exits 0.
 *
 * Exit codes distinguish *why* a conversion failed, so scripts can
 * react (retry, alert, skip):
 *   0  converted cleanly
 *   1  other conversion failure
 *   2  bad usage (arguments)
 *   3  corrupt input (bad header/record/checksum — retrying is
 *      pointless, the bytes are wrong)
 *   4  I/O error (cannot open/read/write — the environment failed,
 *      the file may be fine)
 */

#include <iostream>
#include <string>

#include "support/Flags.hpp"
#include "trace/ColumnarTrace.hpp"
#include "trace/TraceErrors.hpp"
#include "trace/TraceFile.hpp"

using namespace pico;

namespace
{

template <typename Writer>
uint64_t
convert(const std::string &input, Writer &writer)
{
    uint64_t records = 0;
    trace::replayTraceFile(input,
                           [&writer, &records](const trace::Access &a) {
                               writer(a);
                               ++records;
                           });
    writer.close();
    return records;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input, output, format = "v3";
    support::Flags flags(
        "trace_convert",
        "usage: trace_convert <input> <output> [--format v2|v3]");
    flags.positional("input", &input, true);
    flags.positional("output", &output, true);
    flags.text("--format", &format);
    flags.parse(argc, argv);
    if (format != "v2" && format != "v3")
        flags.fail("--format takes v2 or v3, not '" + format + "'");

    try {
        int from = trace::sniffTraceFileVersion(input);
        uint64_t records = 0;
        if (format == "v3") {
            trace::ColumnarTraceWriter writer(output);
            records = convert(input, writer);
        } else {
            trace::TraceFileWriter writer(output);
            records = convert(input, writer);
        }
        std::cout << "converted " << records << " records: v" << from
                  << " " << input << " -> " << format << " " << output
                  << "\n";
    } catch (const trace::TraceCorruptionError &e) {
        std::cerr << "corrupt input: " << e.what() << "\n";
        return 3;
    } catch (const trace::TraceIoError &e) {
        std::cerr << "I/O error: " << e.what() << "\n";
        return 4;
    } catch (const std::exception &e) {
        std::cerr << "conversion failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
