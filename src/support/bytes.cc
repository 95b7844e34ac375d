#include "support/bytes.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"

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

std::string_view
ByteReader::view(size_t size)
{
    if (size > buf_.size() - pos_)
        throw ByteParseError(format("short read from '%s' (corrupt "
                                    "%s?)", context_.c_str(), what_));
    std::string_view v(buf_.data() + pos_, size);
    pos_ += size;
    return v;
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
    // Only a regular file's size says how many bytes it holds: a
    // directory opens fine and then reports a size near LONG_MAX.
    struct stat st{};
    if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
        std::fclose(f);
        *why = format("'%s' is not a regular file", path.c_str());
        return {};
    }
    std::string bytes(static_cast<size_t>(st.st_size), '\0');
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

void
writeFileBySwap(const std::string &path, const std::string &spare,
                const std::string &bytes)
{
    int fd = ::open(spare.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0)
        fatal("cannot open '%s' for writing", spare.c_str());
    // Overwrite, then cut the tail: no O_TRUNC, because ext4 flushes a
    // file truncated to zero when it is closed (auto_da_alloc).
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                             static_cast<off_t>(done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += static_cast<size_t>(n);
    }
    bool ok = done == bytes.size() &&
              ::ftruncate(fd, static_cast<off_t>(bytes.size())) == 0;
    if (::close(fd) != 0 || !ok)
        fatal("cannot write '%s'", spare.c_str());
    if (::renameat2(AT_FDCWD, spare.c_str(), AT_FDCWD, path.c_str(),
                    RENAME_EXCHANGE) == 0)
        return;
    // No file at path yet (ENOENT), or a file system without the
    // exchange (EINVAL): a plain rename is just as atomic for readers,
    // it only frees the old file's inode.
    if (std::rename(spare.c_str(), path.c_str()) != 0)
        fatal("cannot move '%s' into place at '%s'", spare.c_str(),
              path.c_str());
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

FileLock::Guard::Guard(FileLock &lock) : lock_(lock)
{
    auto start = std::chrono::steady_clock::now();
    while (::flock(lock_.fd(), LOCK_EX) != 0) {
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

} // namespace hbbp
