/**
 * @file
 * The v3 journal frame shared by the sweep and fairness journals: one
 * record per line, `J3 <len> <crc32> <payload>`. Each journal kind owns
 * its payload format; this is only the framing and the append path.
 */

#ifndef BURSTSIM_COMMON_JOURNAL_HH
#define BURSTSIM_COMMON_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace bsim
{

/**
 * Append-only v3 journal writer. Each record is framed, assembled into
 * one buffer and written with a single O_APPEND write(2): concurrent
 * appenders never interleave and a crash can only tear the tail. With
 * sync every record is followed by fdatasync() — the journal's
 * durability point — so a record acknowledged on disk survives SIGKILL
 * and power loss.
 */
class JournalWriter
{
  public:
    /** @p kind names the journal in messages ("sweep", "fairness"). */
    explicit JournalWriter(const char *kind) : kind_(kind) {}
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Open @p path for appending; throws SimError(Resource). */
    void open(const std::string &path, bool sync);

    bool isOpen() const { return fd_ >= 0; }

    /** Frame and append one payload (atomic single write + fdatasync);
     *  a failed write is warned about, not thrown. */
    void append(const std::string &payload);

  private:
    const char *kind_;
    int fd_ = -1;
    bool sync_ = true;
    std::string path_;
};

/**
 * Parse the frame header "J3 <len> <crc> " at the start of @p line;
 * returns the payload's offset within @p line, or npos on a syntax
 * failure.
 */
std::size_t parseJournalFrame(const std::string &line, std::size_t &len,
                              std::uint32_t &crc);

} // namespace bsim

#endif // BURSTSIM_COMMON_JOURNAL_HH
