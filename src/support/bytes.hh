/**
 * @file
 * Binary serialization primitives shared by every on-disk and on-wire
 * format in the repository (profile files, aggregator state, shard
 * transport frames).
 *
 * ByteWriter serializes into a memory buffer so payloads can be
 * checksummed before anything touches a file or socket; ByteReader
 * parses back out with bounds checks that throw ByteParseError (with
 * a diagnostic naming the source) instead of reading garbage — every
 * caller decides whether that means fatal() (trusted local files) or
 * a rejection (untrusted input). The file helpers implement the
 * repository-wide file discipline: every whole-file read goes through
 * readFileBytes(), and every write through a unique temp file +
 * rename (or, for a small file rewritten per shard, a spare swapped in
 * by writeFileBySwap()), so a crashed writer never publishes a
 * truncated artifact.
 * FileLock is the flock(2)-based lock that makes concurrent
 * depositors and gc on one profile store safe across processes.
 */

#ifndef HBBP_SUPPORT_BYTES_HH
#define HBBP_SUPPORT_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace hbbp {

/** Serializes a payload into a memory buffer (for checksumming). */
class ByteWriter
{
  public:
    void
    raw(const void *data, size_t size)
    {
        buf_.append(static_cast<const char *>(data), size);
    }

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }

    /** LEB128: 7 bits per byte, low group first, minimal length. */
    void
    varint(uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<char>(v | 0x80));
            v >>= 7;
        }
        buf_.push_back(static_cast<char>(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void reserve(size_t n) { buf_.reserve(n); }

    const std::string &bytes() const { return buf_; }

    /** Move the buffer out; the writer is empty afterwards. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Map a wrapping 64-bit difference to an unsigned varint value. */
inline uint64_t
zigzag(uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

/** Inverse of zigzag(). */
inline uint64_t
unzigzag(uint64_t v)
{
    return (v >> 1) ^ (0 - (v & 1));
}

/**
 * A structural parse failure: a count, length or enum that cannot be
 * right even though any outer checksum matched. Callers parsing
 * *trusted* local files catch it and fatal(); callers parsing
 * untrusted input (network frames) catch it and reject the source —
 * a crafted payload must never take the process down.
 */
class ByteParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parses a payload out of a memory buffer. @p context names the source
 * (a path, a peer address) and @p what the format ("profile",
 * "aggregator state") in diagnostics. All structural failures throw
 * ByteParseError.
 */
class ByteReader
{
  public:
    /**
     * The reader copies out of @p buf and never keeps references, but
     * the caller owns keeping the view alive across the parse.
     */
    ByteReader(std::string_view buf, const std::string &context,
               const char *what = "data")
        : buf_(buf), context_(context), what_(what)
    {
    }

    void raw(void *data, size_t size);

    /** raw() without the copy: the next @p size bytes, as a view. */
    std::string_view view(size_t size);

    uint8_t u8() { uint8_t v; raw(&v, sizeof(v)); return v; }
    uint32_t u32() { uint32_t v; raw(&v, sizeof(v)); return v; }
    uint64_t u64() { uint64_t v; raw(&v, sizeof(v)); return v; }

    /**
     * A ByteWriter::varint(). Only the minimal encoding is accepted —
     * a padded or over-long varint throws — so a canonical format
     * stays canonical through its varints.
     */
    uint64_t
    varint()
    {
        if (pos_ < buf_.size() &&
            static_cast<uint8_t>(buf_[pos_]) < 0x80)
            return static_cast<uint8_t>(buf_[pos_++]);
        return varintSlow();
    }

    std::string str();

    /**
     * Validate an element count against the bytes left in the payload:
     * a corrupt count must throw with a diagnostic here, not OOM in a
     * reserve() or spin reading garbage.
     */
    uint64_t count(uint64_t n, size_t min_elem_bytes, const char *name);

    /** Throws unless the whole payload has been consumed. */
    void expectEof();

  private:
    uint64_t varintSlow();

    std::string_view buf_;
    size_t pos_ = 0;
    // Owned, not a reference: callers routinely pass temporaries
    // (format(...), path accessors) as the context.
    std::string context_;
    const char *what_;
};

/**
 * A regular file's whole contents. On failure — the file cannot be
 * opened, is not a regular file (a directory, a pipe), or reads short
 * — returns an empty string with *@p why set (and *@p why cleared on
 * success, so callers can test it).
 */
std::string readFileBytes(const std::string &path, std::string *why);

/**
 * Write @p bytes to @p path atomically: a uniquely named temp file
 * (two writers racing to one path never interleave) renamed into
 * place. fatal() on I/O errors — a full disk must not publish a
 * truncated file.
 */
void writeFileAtomically(const std::string &path,
                         const std::string &bytes);

/**
 * Replace @p path's contents with @p bytes, atomically for readers,
 * without creating or freeing an inode: the bytes are written into
 * @p spare in place and renameat2(RENAME_EXCHANGE) swaps the two
 * names, so @p spare holds the old contents for the next call. For a
 * small file rewritten at a high rate: on ext4 without a journal every
 * inode allocation scans past the inodes freed in the last minutes,
 * so a temp file renamed over the old one per write costs more the
 * more files churn, and that cost swings from run to run. Falls back
 * to a plain rename when @p path does not exist yet or the filesystem
 * has no exchange. One writer at a time (callers hold a lock), and a
 * reader must not hold the file open across two calls. fatal() on I/O
 * errors, like writeFileAtomically().
 */
void writeFileBySwap(const std::string &path, const std::string &spare,
                     const std::string &bytes);

/**
 * An flock(2)-based advisory file lock — the cross-process mutex
 * around the profile store's deposits, pin writes and gc. The lock
 * file is created on first use and never deleted (deleting a lock
 * file is the classic unlink/flock race). Within one process, callers
 * still need their own mutex: flock is per open file description, and
 * one FileLock holds one.
 */
class FileLock
{
  public:
    /** Lazily opens (creating) @p path on the first Guard. */
    explicit FileLock(std::string path) : path_(std::move(path)) {}
    ~FileLock();
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** Scoped exclusive hold; fatal() on open failure. */
    class Guard
    {
      public:
        explicit Guard(FileLock &lock);
        ~Guard();
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

        /** Nanoseconds this guard blocked acquiring the lock. */
        uint64_t waitNs() const { return wait_ns_; }

      private:
        FileLock &lock_;
        uint64_t wait_ns_ = 0;
    };

  private:
    int fd();

    std::string path_;
    int fd_ = -1;
};

} // namespace hbbp

#endif // HBBP_SUPPORT_BYTES_HH
