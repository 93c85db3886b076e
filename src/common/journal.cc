#include "common/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace bsim
{

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JournalWriter::open(const std::string &path, bool sync)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throwSimError(ErrorCategory::Resource,
                      "cannot open %s journal '%s' for writing", kind_,
                      path.c_str());
    path_ = path;
    sync_ = sync;
}

void
JournalWriter::append(const std::string &payload)
{
    char head[32];
    std::snprintf(head, sizeof(head), "J3 %zu %08x ", payload.size(),
                  crc32(payload));
    std::string rec = head;
    rec += payload;
    rec += '\n';
    const char *p = rec.data();
    std::size_t left = rec.size();
    while (left > 0) {
        const ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("%s journal %s: append failed (%s)", kind_, path_.c_str(),
                 std::strerror(errno));
            return;
        }
        p += n;
        left -= std::size_t(n);
    }
    if (sync_)
        ::fdatasync(fd_);
}

std::size_t
parseJournalFrame(const std::string &line, std::size_t &len,
                  std::uint32_t &crc)
{
    unsigned long long l = 0;
    unsigned int c = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "J3 %llu %8x %n", &l, &c, &consumed) < 2 ||
        consumed <= 0)
        return std::string::npos;
    len = std::size_t(l);
    crc = c;
    return std::size_t(consumed);
}

} // namespace bsim
