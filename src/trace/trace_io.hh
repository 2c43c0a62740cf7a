/**
 * @file
 * Versioned binary miss-trace serialization: collect a trace once,
 * analyze it many times. Every figure and table of the paper is a
 * different projection over the same per-context miss traces, so the
 * simulation/analysis split runs through this file: benches and the
 * `tstream-trace` CLI write traces here, and all offline analysis
 * (and the bench trace cache) reads them back.
 *
 * Two on-disk versions exist (byte-level layout, worked hexdump and
 * the compatibility policy are in docs/TRACE_FORMAT.md):
 *
 *  - v1 (legacy, read only): fixed-width header + 20-byte records.
 *    Read support is permanent; tests/data holds a v1 fixture.
 *  - v2 (current): a self-describing header (per-field descriptors,
 *    experiment config hash, content kind, codec id), an optional
 *    function table (FnId -> name/category, so module attribution
 *    works offline), and the records in independent chunks —
 *    delta+varint column encoding, optionally compressed through
 *    trace/codec.hh — located by a chunk index, so large traces can
 *    be streamed chunk-at-a-time without loading whole files.
 *
 * Error contract: nothing in this API aborts on malformed input.
 * Opening, reading and decoding return TraceResult<T>; failure
 * carries a one-line human-readable diagnostic (bad magic, truncated
 * header, unknown codec id, size mismatch, ...) that callers such as
 * the CLI print verbatim. saveTrace() returns false on I/O failure
 * or unusable options. Only internal invariant violations panic().
 */

#ifndef TSTREAM_TRACE_TRACE_IO_HH
#define TSTREAM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/categories.hh"
#include "trace/codec.hh"
#include "trace/record.hh"

namespace tstream
{

/**
 * Minimal expected-style result: either a value or an error message.
 * Test with operator bool before dereferencing; error() is only
 * meaningful on failure.
 */
template <typename T>
class TraceResult
{
  public:
    TraceResult(T value) : value_(std::move(value)) {}

    static TraceResult
    failure(std::string message)
    {
        TraceResult r;
        r.error_ = std::move(message);
        return r;
    }

    explicit operator bool() const { return value_.has_value(); }

    T &operator*() { return *value_; }
    const T &operator*() const { return *value_; }
    T *operator->() { return &*value_; }
    const T *operator->() const { return &*value_; }

    const std::string &error() const { return error_; }

  private:
    TraceResult() = default;

    std::optional<T> value_;
    std::string error_;
};

/** What the records of a trace file are (v2 header `kind`). */
enum class TraceContentKind : std::uint32_t
{
    Unknown = 0,         ///< not recorded (all v1 files)
    OffChip = 1,         ///< off-chip read misses, cls = MissClass
    IntraChip = 2,       ///< all L1 read misses, cls = IntraClass
    IntraChipOnChip = 3, ///< L1 misses satisfied on chip, cls = IntraClass
};

/** Short name of a content kind ("off-chip", ...). */
std::string_view traceContentKindName(TraceContentKind k);

/** Per-field descriptor from the v2 header (self-description). */
struct TraceField
{
    std::uint8_t id = 0;       ///< FieldId (docs/TRACE_FORMAT.md)
    std::uint8_t encoding = 0; ///< FieldEncoding
    std::uint16_t widthBits = 0;
};

/** One function-table entry (FnId is the index). */
struct TraceFunction
{
    std::string name;
    Category category = Category::Uncategorized;
};

/** One chunk-index entry. */
struct TraceChunk
{
    std::uint64_t offset = 0;   ///< file offset of the chunk header
    std::uint64_t firstSeq = 0; ///< seq of the chunk's first record
    std::uint32_t records = 0;
    std::uint32_t storedBytes = 0; ///< on-disk payload size
};

/** Everything known about a trace file without decoding records. */
struct TraceMeta
{
    std::uint32_t version = 0;
    std::uint32_t numCpus = 0;
    TraceContentKind kind = TraceContentKind::Unknown;
    std::uint32_t codec = 0; ///< CodecId as stored
    std::uint32_t chunkRecords = 0;
    std::uint64_t instructions = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t configHash = 0; ///< 0 when not recorded

    std::vector<TraceField> fields;
    std::vector<TraceFunction> functions; ///< empty when no table
    std::vector<TraceChunk> chunks;
};

/** Options for saveTrace(), which writes the current v2 format. */
struct TraceWriteOptions
{
    /** Chunk payload codec; falls back to raw per incompressible
     *  chunk (see trace/codec.hh). */
    CodecId codec = CodecId::Lz4;

    /** Records per chunk (clamped to [1, 2^24]). */
    std::uint32_t chunkRecords = 64 * 1024;

    /** What the records are; stored in the header. */
    TraceContentKind kind = TraceContentKind::Unknown;

    /** sim/experiment.hh configHash() of the producing run; 0 = none. */
    std::uint64_t configHash = 0;

    /**
     * When set, the registry is embedded as the function table so
     * offline analysis can attribute misses to code modules. Names
     * longer than 255 bytes are truncated.
     */
    const FunctionRegistry *registry = nullptr;
};

/** How TraceReader accesses the bytes of a trace file. */
struct TraceOpenOptions
{
    /**
     * Memory-map the file when the platform supports it, so chunk
     * payloads decode zero-copy out of the page cache (raw-stored
     * chunks never pass through an intermediate buffer). false — or
     * an unsupported platform, or a failed mmap — selects the
     * portable streaming (stdio) path; both paths return identical
     * results for identical bytes (tests/trace_query_test.cc proves
     * it differentially).
     */
    bool allowMmap = true;
};

/**
 * Trace reader: parses header, field/function tables and the chunk
 * index on open(), then decodes chunks on demand, so a paper-scale
 * trace can be scanned without materializing it. The backing file is
 * memory-mapped when possible (see TraceOpenOptions) and streamed
 * through stdio otherwise. Understands v1 files as bounded synthetic
 * chunks, and can open a trace embedded inside a larger file (an
 * archive member; trace/query.hh) via openSlice().
 *
 * open() validates the chunk index (in-bounds chunks, plausible
 * record counts, firstSeq non-decreasing) and readChunk() validates
 * decoded records against the index (first record's seq equals the
 * index's firstSeq, seq non-decreasing within the chunk and across
 * the boundary into the next chunk), so whenever reads succeed the
 * index is trustworthy and binary-search time-range selection
 * (chunkRangeForSeq) agrees with a full scan.
 */
class TraceReader
{
  public:
    /** Open @p path and parse all metadata. */
    static TraceResult<TraceReader> open(const std::string &path,
                                         const TraceOpenOptions &opts = {});

    /**
     * Open the trace stored at [@p offset, @p offset + @p bytes) of
     * @p path — an archive member (trace/query.hh). All validation
     * applies relative to the slice.
     */
    static TraceResult<TraceReader>
    openSlice(const std::string &path, std::uint64_t offset,
              std::uint64_t bytes, const TraceOpenOptions &opts = {});

    const TraceMeta &meta() const { return meta_; }

    /** Decode chunk @p index (0-based). Chunks are self-contained. */
    TraceResult<std::vector<MissRecord>> readChunk(std::size_t index);

    /** Decode every chunk into one MissTrace. */
    TraceResult<MissTrace> readAll();

    /** True when the file embeds a function table. */
    bool hasFunctions() const { return !meta_.functions.empty(); }

    /**
     * Rebuild a FunctionRegistry from the embedded function table.
     * Fails when there is no table or the table does not intern back
     * to the same ids (malformed file).
     */
    TraceResult<FunctionRegistry> functions() const;

    /** True when the file is memory-mapped (zero-copy decode path). */
    bool usingMmap() const { return map_ != nullptr; }

    /**
     * Chunks decoded through readChunk() so far — the decode-counter
     * hook the differential tests assert against: a `[t0, t1)` window
     * query must decode only chunks chunkRangeForSeq() selects, never
     * the whole file.
     */
    std::uint64_t chunksDecoded() const { return chunksDecoded_; }

    /**
     * The half-open chunk-index range [lo, hi) that can contain
     * records with seq in [@p t0, @p t1), by binary search over the
     * index's firstSeq column (validated non-decreasing at open).
     * O(log chunks); touches no chunk payload. The range is tight to
     * index granularity: at most one leading chunk whose records all
     * precede @p t0 is included (its extent is unknowable without
     * decoding it).
     */
    std::pair<std::size_t, std::size_t>
    chunkRangeForSeq(std::uint64_t t0, std::uint64_t t1) const;

  private:
    TraceReader() : file_(nullptr, &std::fclose) {}

    /** Read @p n bytes at slice-relative @p off (map or stdio). */
    bool readBytes(std::uint64_t off, unsigned char *p,
                   std::size_t n) const;

    /** Pointer into the mapping at slice-relative @p off, or nullptr
     *  when not mapped (bounds are pre-checked by callers). */
    const unsigned char *viewBytes(std::uint64_t off,
                                   std::size_t n) const;

    static TraceResult<TraceReader>
    openImpl(const std::string &path, std::uint64_t offset,
             std::optional<std::uint64_t> bytes,
             const TraceOpenOptions &opts);

    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file_;
    std::shared_ptr<const void> mapping_; ///< owns the munmap
    const unsigned char *map_ = nullptr;  ///< whole-file mapping
    std::uint64_t base_ = 0;              ///< slice start in the file
    std::uint64_t size_ = 0;              ///< slice byte count
    std::uint64_t chunksDecoded_ = 0;
    TraceMeta meta_;
};

/**
 * Serialize @p trace to @p path per @p opts.
 * @return false on I/O failure or unusable options (unknown codec
 *         id).
 */
bool saveTrace(const MissTrace &trace, const std::string &path,
               const TraceWriteOptions &opts = {});

/**
 * Load a whole trace previously written by saveTrace() (any version).
 * Convenience wrapper over TraceReader; failure carries a diagnostic
 * instead of aborting (see the error contract above).
 */
TraceResult<MissTrace> loadTrace(const std::string &path);

} // namespace tstream

#endif // TSTREAM_TRACE_TRACE_IO_HH
