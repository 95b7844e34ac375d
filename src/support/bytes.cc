#include "support/bytes.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"
#include "support/rng.hh"

namespace hbbp {

void
ByteReader::raw(void *data, size_t size)
{
    if (size > buf_.size() - pos_)
        throw ByteParseError(format("short read from '%s' (corrupt "
                                    "%s?)", context_.c_str(), what_));
    std::memcpy(data, buf_.data() + pos_, size);
    pos_ += size;
}

uint64_t
ByteReader::varintSlow()
{
    uint64_t v = 0;
    // Ends by the 10th byte: it either returns or throws there.
    for (int shift = 0;; shift += 7) {
        uint8_t b = u8();
        // The 10th byte holds bit 63 only; a zero final byte after the
        // first is padding. Either would give one value two encodings.
        if (shift == 63 && b > 1)
            throw ByteParseError(format("varint overflows 64 bits in "
                                        "'%s' (corrupt %s?)",
                                        context_.c_str(), what_));
        if (shift > 0 && b == 0)
            throw ByteParseError(format("non-minimal varint in '%s' "
                                        "(corrupt %s?)",
                                        context_.c_str(), what_));
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (b < 0x80)
            return v;
    }
}

std::string
ByteReader::str()
{
    uint32_t n = u32();
    if (n > (1u << 20))
        throw ByteParseError(format("implausible string length %u in "
                                    "'%s'", n, context_.c_str()));
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
}

uint64_t
ByteReader::count(uint64_t n, size_t min_elem_bytes, const char *name)
{
    uint64_t left = buf_.size() - pos_;
    if (n > left / min_elem_bytes)
        throw ByteParseError(format(
            "'%s' claims %llu %s records but only %llu bytes remain "
            "(corrupt %s?)",
            context_.c_str(), static_cast<unsigned long long>(n), name,
            static_cast<unsigned long long>(left), what_));
    return n;
}

void
ByteReader::expectEof()
{
    if (pos_ != buf_.size())
        throw ByteParseError(format("trailing garbage at the end of "
                                    "'%s' (corrupt %s?)",
                                    context_.c_str(), what_));
}

std::string
readFileBytes(const std::string &path, std::string *why)
{
    why->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        *why = format("cannot open '%s' for reading", path.c_str());
        return {};
    }
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::string bytes(size > 0 ? static_cast<size_t>(size) : 0, '\0');
    size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) {
        *why = format("short read from '%s'", path.c_str());
        return {};
    }
    return bytes;
}

void
writeFileAtomically(const std::string &path, const std::string &bytes)
{
    // The tmp name must be unique per writer: two threads or processes
    // racing to the same final path would otherwise interleave writes
    // into one temp file and rename a corrupt artifact into place.
    static std::atomic<uint64_t> tmp_serial{0};
    std::string tmp = format(
        "%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
        static_cast<unsigned long long>(
            tmp_serial.fetch_add(1, std::memory_order_relaxed)));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", tmp.c_str());
    // fclose() flushes: a full disk often only surfaces when the
    // buffered bytes hit it, and renaming an unflushed file would
    // publish a truncated artifact.
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    if (std::fclose(f) != 0 || !ok)
        fatal("cannot write '%s'", tmp.c_str());
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot move '%s' into place at '%s'", tmp.c_str(),
              path.c_str());
}

MappedBytes &
MappedBytes::operator=(MappedBytes &&other) noexcept
{
    if (this == &other)
        return *this;
    close();
    owned_ = std::move(other.owned_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    // owned_'s move may reseat the buffer; rebuild the view from
    // whichever backing store this instance now holds.
    view_ = map_ ? std::string_view(static_cast<const char *>(map_),
                                    other.view_.size())
                 : std::string_view(owned_);
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.view_ = {};
    return *this;
}

bool
MappedBytes::open(const std::string &path, std::string *why, Mode mode)
{
    why->clear();
    close();
    if (mode != Mode::Read) {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            *why = format("cannot open '%s' for reading", path.c_str());
            return false;
        }
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            *why = format("cannot stat '%s'", path.c_str());
            return false;
        }
        size_t size = static_cast<size_t>(st.st_size);
        bool want_map = size > 0 && (mode == Mode::Map ||
                                     size >= kMapThresholdBytes);
        if (want_map) {
            void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd,
                             0);
            // The mapping outlives the fd (POSIX keeps the pages);
            // fall through to the plain read on any mmap refusal —
            // the caller asked for bytes, not for a mapping.
            ::close(fd);
            if (m != MAP_FAILED) {
                map_ = m;
                map_len_ = size;
                view_ = std::string_view(static_cast<const char *>(m),
                                         size);
                return true;
            }
        } else {
            ::close(fd);
        }
    }
    owned_ = readFileBytes(path, why);
    if (!why->empty())
        return false;
    view_ = std::string_view(owned_);
    return true;
}

void
MappedBytes::close()
{
    if (map_) {
        ::munmap(map_, map_len_);
        map_ = nullptr;
        map_len_ = 0;
    }
    owned_.clear();
    owned_.shrink_to_fit();
    view_ = {};
}

FileLock::~FileLock()
{
    if (fd_ >= 0)
        ::close(fd_);
}

int
FileLock::fd()
{
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
        if (fd_ < 0)
            fatal("cannot open lock file '%s'", path_.c_str());
    }
    return fd_;
}

FileLock::Guard::Guard(FileLock &lock, bool exclusive) : lock_(lock)
{
    auto start = std::chrono::steady_clock::now();
    while (::flock(lock_.fd(), exclusive ? LOCK_EX : LOCK_SH) != 0) {
        if (errno == EINTR)
            continue;
        fatal("cannot lock '%s'", lock_.path_.c_str());
    }
    wait_ns_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

FileLock::Guard::~Guard()
{
    // Releasing cannot meaningfully fail; an EINTR'd unlock would
    // leave the fd locked until close, which the destructor handles.
    ::flock(lock_.fd_, LOCK_UN);
}

std::string
frameRecord(uint64_t magic, const std::string &body)
{
    ByteWriter rec;
    rec.u64(magic);
    rec.u64(body.size());
    rec.u64(fnv1a(body));
    std::string bytes = rec.bytes();
    bytes += body;
    return bytes;
}

size_t
scanRecords(std::string_view bytes, uint64_t magic, size_t offset,
            const std::function<bool(std::string_view)> &fn,
            std::string *why)
{
    if (why)
        why->clear();
    size_t off = offset;
    while (off + kRecordHeaderBytes <= bytes.size()) {
        uint64_t got_magic, body_len, stored;
        std::memcpy(&got_magic, bytes.data() + off, 8);
        std::memcpy(&body_len, bytes.data() + off + 8, 8);
        std::memcpy(&stored, bytes.data() + off + 16, 8);
        if (got_magic != magic) {
            if (why)
                *why = format("bad record magic at offset %zu", off);
            return off;
        }
        if (bytes.size() - off - kRecordHeaderBytes < body_len) {
            // A torn append: the writer died mid-record.
            if (why)
                *why = format("torn record at offset %zu", off);
            return off;
        }
        std::string_view body =
            bytes.substr(off + kRecordHeaderBytes,
                         static_cast<size_t>(body_len));
        if (fnv1a(body.data(), body.size()) != stored) {
            if (why)
                *why = format("record checksum failure at offset %zu",
                              off);
            return off;
        }
        if (!fn(body))
            return off;
        off += kRecordHeaderBytes + static_cast<size_t>(body_len);
    }
    return off;
}

} // namespace hbbp
