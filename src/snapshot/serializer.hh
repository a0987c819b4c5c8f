/**
 * @file
 * Versioned, checksummed binary serialization for crash-safe
 * snapshot/resume of the long-running simulations.
 *
 * The encoding is deliberately boring: every scalar is written
 * little-endian at fixed width (doubles as their IEEE-754 bit
 * patterns), strings and blobs carry explicit lengths, and there is no
 * pointer or callback serialization anywhere - stateful layers persist
 * plain data and reconstruct their derived structures (heaps, event
 * sets) declaratively on restore.  A snapshot *file* wraps one payload
 * in a magic + format-version header and a CRC-32 trailer; truncated,
 * corrupted, or wrong-version images are rejected with a util::Status
 * that says why, never silently half-loaded and never by killing the
 * process - callers (snapshot::Keeper, the bench resume paths) decide
 * whether to fall back to an older generation or give up.
 *
 * Resource caps: a reader must survive adversarial inputs without
 * unbounded allocation, so every length/count decoded from the image
 * is checked against what the payload could possibly hold *before*
 * anything is allocated (readString, readBlob, readCount), and the
 * file reader refuses images larger than kMaxSnapshotBytes outright.
 */

#ifndef HDMR_SNAPSHOT_SERIALIZER_HH
#define HDMR_SNAPSHOT_SERIALIZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace hdmr::snapshot
{

/** Eight-byte file magic ("HDMRSNAP"). */
inline constexpr char kMagic[8] = {'H', 'D', 'M', 'R',
                                   'S', 'N', 'A', 'P'};

/** Current on-disk format version; bumped on incompatible change. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Payload kinds (fourcc-style tags) the repository writes. */
inline constexpr std::uint32_t kClusterStateKind = 0x4d495343;  // "CSIM"
inline constexpr std::uint32_t kSweepStateKind = 0x50455753;    // "SWEP"
inline constexpr std::uint32_t kSdcAuditStateKind = 0x41434453; // "SDCA"
inline constexpr std::uint32_t kAdvisorStateKind = 0x53564441;  // "ADVS"

/** Hard ceiling on a snapshot image the file reader will load. */
inline constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 30; // 1 GiB

/** Hard ceiling on one length-prefixed string inside a payload. */
inline constexpr std::uint64_t kMaxStringBytes = 1ull << 20; // 1 MiB

/** CRC-32 (IEEE 802.3, reflected) over a byte range. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Appends little-endian scalars to a growable byte buffer. */
class Serializer
{
  public:
    void writeU8(std::uint8_t value);
    void writeU16(std::uint16_t value);
    void writeU32(std::uint32_t value);
    void writeU64(std::uint64_t value);
    void writeI64(std::int64_t value);
    void writeBool(bool value);
    /** IEEE-754 bit pattern, little-endian. */
    void writeDouble(double value);
    /** u32 length prefix + raw bytes. */
    void writeString(const std::string &value);
    /** u64 length prefix + raw bytes. */
    void writeBlob(const std::vector<std::uint8_t> &value);
    void writeBytes(const void *data, std::size_t size);

    const std::vector<std::uint8_t> &data() const { return buffer_; }

  private:
    std::vector<std::uint8_t> buffer_;
};

/**
 * Bounds-checked reader over a serialized byte range.  The first
 * failed read (underrun or malformed value) latches an error; all
 * subsequent reads return zero values, so callers may decode a whole
 * record and check ok() once at the end.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size);
    explicit Deserializer(const std::vector<std::uint8_t> &data);

    std::uint8_t readU8();
    std::uint16_t readU16();
    std::uint32_t readU32();
    std::uint64_t readU64();
    std::int64_t readI64();
    /** Rejects encodings other than 0/1 (likely corruption). */
    bool readBool();
    double readDouble();
    /** Latches an error past kMaxStringBytes or the payload end. */
    std::string readString();
    std::vector<std::uint8_t> readBlob();

    /**
     * Read a u64 element count that a decode loop is about to
     * allocate/iterate for, where each element occupies at least
     * `min_bytes_each` (>= 1) payload bytes.  A count no remaining
     * payload could hold latches an error naming `what` - the
     * overflow-proof form of the old `count * size > remaining()`
     * checks, which an adversarial count near 2^64 could wrap past.
     */
    std::uint64_t readCount(const char *what,
                            std::uint64_t min_bytes_each);

    /** readCount()'s check for a count already decoded (any width). */
    std::uint64_t checkCount(std::uint64_t count, const char *what,
                             std::uint64_t min_bytes_each);

    /** Record a semantic validation failure (bad index, mismatch...). */
    void fail(const std::string &message);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    /** kOk when ok(); kDataLoss carrying error() otherwise. */
    util::Status status() const;
    std::size_t remaining() const { return size_ - position_; }

  private:
    bool take(void *out, std::size_t size);

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t position_ = 0;
    std::string error_;
};

/**
 * Write one payload as a snapshot file:
 *
 *     [0)  "HDMRSNAP"            8-byte magic
 *     [8)  format version        u32 LE
 *     [12) payload kind          u32 LE (fourcc)
 *     [16) payload size          u64 LE
 *     [24) payload bytes
 *     [24+n) CRC-32              u32 LE over bytes [0, 24+n)
 *
 * Durability: the image is written to `path + ".tmp"`, fsync'd, and
 * renamed into place, then the parent directory is fsync'd so the
 * rename itself survives a crash (on journalled filesystems a rename
 * without the directory sync can be lost even though the data blocks
 * made it).  A crash mid-write never leaves a half-written file under
 * `path`.  Returns kIoError on any write/sync/rename failure.
 */
util::Status writeSnapshotFile(const std::string &path,
                               std::uint32_t kind,
                               const std::vector<std::uint8_t> &payload);

/**
 * Verify an in-memory snapshot image.  Rejects with kDataLoss
 * (short/truncated image, bad magic, size inconsistency, CRC
 * mismatch), kResourceExhausted (over kMaxSnapshotBytes), or
 * kFailedPrecondition (format-version or payload-kind mismatch).  On
 * success *payload holds the verified bytes.  `name` labels errors
 * (a path, or "<memory>" for fuzzing).
 */
util::Status parseSnapshotImage(const std::uint8_t *data,
                                std::size_t size, std::uint32_t kind,
                                std::vector<std::uint8_t> *payload,
                                const std::string &name = "<memory>");

/**
 * Read and verify a snapshot file: parseSnapshotImage() over the
 * file's bytes, plus kNotFound for a missing file, kIoError for a
 * failed read, and kResourceExhausted past kMaxSnapshotBytes.
 */
util::Status readSnapshotFile(const std::string &path,
                              std::uint32_t kind,
                              std::vector<std::uint8_t> *payload);

} // namespace hdmr::snapshot

#endif // HDMR_SNAPSHOT_SERIALIZER_HH
