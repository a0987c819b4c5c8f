#include "snapshot/serializer.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace hdmr::snapshot
{

namespace
{

std::array<std::uint32_t, 256>
buildCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table = buildCrcTable();
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// --------------------------------------------------------------------
// Serializer
// --------------------------------------------------------------------

void
Serializer::writeBytes(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void
Serializer::writeU8(std::uint8_t value)
{
    buffer_.push_back(value);
}

void
Serializer::writeU16(std::uint16_t value)
{
    for (int i = 0; i < 2; ++i)
        buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Serializer::writeU32(std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Serializer::writeU64(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Serializer::writeI64(std::int64_t value)
{
    writeU64(static_cast<std::uint64_t>(value));
}

void
Serializer::writeBool(bool value)
{
    writeU8(value ? 1 : 0);
}

void
Serializer::writeDouble(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    writeU64(bits);
}

void
Serializer::writeString(const std::string &value)
{
    writeU32(static_cast<std::uint32_t>(value.size()));
    writeBytes(value.data(), value.size());
}

void
Serializer::writeBlob(const std::vector<std::uint8_t> &value)
{
    writeU64(value.size());
    writeBytes(value.data(), value.size());
}

// --------------------------------------------------------------------
// Deserializer
// --------------------------------------------------------------------

Deserializer::Deserializer(const std::uint8_t *data, std::size_t size)
    : data_(data), size_(size)
{
}

Deserializer::Deserializer(const std::vector<std::uint8_t> &data)
    : data_(data.data()), size_(data.size())
{
}

bool
Deserializer::take(void *out, std::size_t size)
{
    if (!ok()) {
        std::memset(out, 0, size);
        return false;
    }
    if (size_ - position_ < size) {
        std::memset(out, 0, size);
        fail("truncated payload (wanted " + std::to_string(size) +
             " bytes, " + std::to_string(size_ - position_) + " left)");
        return false;
    }
    std::memcpy(out, data_ + position_, size);
    position_ += size;
    return true;
}

void
Deserializer::fail(const std::string &message)
{
    if (error_.empty())
        error_ = message;
}

util::Status
Deserializer::status() const
{
    if (ok())
        return util::Status{};
    return util::Status(util::StatusCode::kDataLoss, error_);
}

std::uint8_t
Deserializer::readU8()
{
    std::uint8_t byte = 0;
    take(&byte, 1);
    return byte;
}

std::uint16_t
Deserializer::readU16()
{
    std::uint8_t bytes[2] = {};
    take(bytes, sizeof(bytes));
    std::uint16_t value = 0;
    for (int i = 0; i < 2; ++i)
        value = static_cast<std::uint16_t>(
            value | static_cast<std::uint16_t>(bytes[i]) << (8 * i));
    return value;
}

std::uint32_t
Deserializer::readU32()
{
    std::uint8_t bytes[4] = {};
    take(bytes, sizeof(bytes));
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
    return value;
}

std::uint64_t
Deserializer::readU64()
{
    std::uint8_t bytes[8] = {};
    take(bytes, sizeof(bytes));
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return value;
}

std::int64_t
Deserializer::readI64()
{
    return static_cast<std::int64_t>(readU64());
}

bool
Deserializer::readBool()
{
    const std::uint8_t byte = readU8();
    if (byte > 1)
        fail("malformed bool (byte " + std::to_string(byte) + ")");
    return byte == 1;
}

double
Deserializer::readDouble()
{
    const std::uint64_t bits = readU64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
Deserializer::readString()
{
    const std::uint32_t size = readU32();
    if (size > kMaxStringBytes) {
        fail("string length " + std::to_string(size) +
             " exceeds the " + std::to_string(kMaxStringBytes) +
             "-byte cap");
        return {};
    }
    if (size > remaining()) {
        fail("truncated string (length " + std::to_string(size) + ", " +
             std::to_string(remaining()) + " bytes left)");
        return {};
    }
    std::string value(reinterpret_cast<const char *>(data_ + position_),
                      size);
    position_ += size;
    return value;
}

std::vector<std::uint8_t>
Deserializer::readBlob()
{
    const std::uint64_t size = readU64();
    if (size > remaining()) {
        fail("truncated blob (length " + std::to_string(size) + ", " +
             std::to_string(remaining()) + " bytes left)");
        return {};
    }
    std::vector<std::uint8_t> value(
        data_ + position_, data_ + position_ + static_cast<std::size_t>(size));
    position_ += static_cast<std::size_t>(size);
    return value;
}

std::uint64_t
Deserializer::readCount(const char *what, std::uint64_t min_bytes_each)
{
    return checkCount(readU64(), what, min_bytes_each);
}

std::uint64_t
Deserializer::checkCount(std::uint64_t count, const char *what,
                         std::uint64_t min_bytes_each)
{
    if (!ok())
        return 0;
    if (min_bytes_each == 0)
        min_bytes_each = 1;
    if (count > remaining() / min_bytes_each) {
        fail(std::string(what) + " count " + std::to_string(count) +
             " longer than the payload (" +
             std::to_string(remaining()) + " bytes left, >= " +
             std::to_string(min_bytes_each) + " each)");
        return 0;
    }
    return count;
}

// --------------------------------------------------------------------
// File container
// --------------------------------------------------------------------

namespace
{

constexpr std::size_t kHeaderSize = 24; // magic + version + kind + size
constexpr std::size_t kTrailerSize = 4; // CRC-32

/** fsync a directory so a rename inside it is durable. */
bool
syncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                          O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    return synced;
}

} // namespace

util::Status
writeSnapshotFile(const std::string &path, std::uint32_t kind,
                  const std::vector<std::uint8_t> &payload)
{
    Serializer image;
    image.writeBytes(kMagic, sizeof(kMagic));
    image.writeU32(kFormatVersion);
    image.writeU32(kind);
    image.writeU64(payload.size());
    image.writeBytes(payload.data(), payload.size());
    const std::uint32_t crc =
        crc32(image.data().data(), image.data().size());
    image.writeU32(crc);

    // Write to a temporary and rename so an interrupted write can
    // never be mistaken for a snapshot; fsync the data before the
    // rename and the directory after it so neither the bytes nor the
    // rename itself can be lost to a crash.
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
        return util::ioError("snapshot %s: cannot open %s for writing",
                             path.c_str(), tmp.c_str());
    const std::size_t written = std::fwrite(
        image.data().data(), 1, image.data().size(), file);
    const bool flushed = std::fflush(file) == 0;
    const bool synced = flushed && ::fsync(fileno(file)) == 0;
    std::fclose(file);
    if (written != image.data().size() || !synced) {
        std::remove(tmp.c_str());
        return util::ioError("snapshot %s: short write to %s",
                             path.c_str(), tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return util::ioError(
            "snapshot %s: cannot rename temporary into place",
            path.c_str());
    }
    const std::string parent =
        std::filesystem::path(path).parent_path().string();
    if (!syncDirectory(parent))
        return util::ioError("snapshot %s: cannot sync directory '%s' "
                             "after rename",
                             path.c_str(),
                             parent.empty() ? "." : parent.c_str());
    return util::Status{};
}

util::Status
parseSnapshotImage(const std::uint8_t *data, std::size_t size,
                   std::uint32_t kind,
                   std::vector<std::uint8_t> *payload,
                   const std::string &name)
{
    if (size > kMaxSnapshotBytes)
        return util::resourceExhausted(
            "snapshot %s: %zu bytes exceeds the %llu-byte image cap",
            name.c_str(), size,
            static_cast<unsigned long long>(kMaxSnapshotBytes));
    if (size < kHeaderSize + kTrailerSize)
        return util::dataLoss(
            "snapshot %s: truncated (%zu bytes, header alone needs "
            "%zu)",
            name.c_str(), size, kHeaderSize + kTrailerSize);
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        return util::dataLoss(
            "snapshot %s: bad magic (not a snapshot file)",
            name.c_str());

    Deserializer header(data + sizeof(kMagic), size - sizeof(kMagic));
    const std::uint32_t version = header.readU32();
    const std::uint32_t file_kind = header.readU32();
    const std::uint64_t payload_size = header.readU64();
    if (version != kFormatVersion)
        return util::failedPrecondition(
            "snapshot %s: format version %u (this build reads version "
            "%u)",
            name.c_str(), version, kFormatVersion);
    if (file_kind != kind)
        return util::failedPrecondition(
            "snapshot %s: payload kind mismatch", name.c_str());
    if (payload_size != size - kHeaderSize - kTrailerSize)
        return util::dataLoss("snapshot %s: truncated or oversized "
                              "payload",
                              name.c_str());

    Deserializer trailer(data + size - kTrailerSize, kTrailerSize);
    const std::uint32_t stored_crc = trailer.readU32();
    const std::uint32_t computed_crc = crc32(data, size - kTrailerSize);
    if (stored_crc != computed_crc)
        return util::dataLoss("snapshot %s: CRC mismatch (corrupted)",
                              name.c_str());

    payload->assign(data + kHeaderSize, data + size - kTrailerSize);
    return util::Status{};
}

util::Status
readSnapshotFile(const std::string &path, std::uint32_t kind,
                 std::vector<std::uint8_t> *payload)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return util::notFound("snapshot %s: cannot open", path.c_str());
    std::vector<std::uint8_t> image;
    std::uint8_t chunk[65536];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        image.insert(image.end(), chunk, chunk + got);
        if (image.size() > kMaxSnapshotBytes) {
            std::fclose(file);
            return util::resourceExhausted(
                "snapshot %s: exceeds the %llu-byte image cap",
                path.c_str(),
                static_cast<unsigned long long>(kMaxSnapshotBytes));
        }
    }
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error)
        return util::ioError("snapshot %s: read error", path.c_str());

    return parseSnapshotImage(image.data(), image.size(), kind, payload,
                              path);
}

} // namespace hdmr::snapshot
