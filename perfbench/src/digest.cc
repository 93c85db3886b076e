#include "digest.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/critpath.hh"
#include "obs/observability.hh"
#include "obs/protocol_audit.hh"

namespace perfbench
{

namespace
{

/** Appends "name=value;" fields; doubles in exact hexfloat. */
class Canon
{
  public:
    Canon &
    u(const char *name, std::uint64_t v)
    {
        os_ << name << '=' << v << ';';
        return *this;
    }

    Canon &
    d(const char *name, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a", v);
        os_ << name << '=' << buf << ';';
        return *this;
    }

    template <typename Seq>
    Canon &
    seq(const char *name, const Seq &v)
    {
        os_ << name << '=';
        for (auto x : v)
            os_ << x << ',';
        os_ << ';';
        return *this;
    }

    Canon &
    hist(const char *name, const bsim::Histogram &h)
    {
        os_ << name << '=';
        for (std::size_t i = 0; i < h.size(); ++i)
            os_ << h.bucket(i) << ',';
        os_ << ';';
        return *this;
    }

    std::ostream &os() { return os_; }
    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
controller(Canon &c, const bsim::ctrl::ControllerStats &s)
{
    c.u("rd_n", s.readLatency.count()).d("rd_sum", s.readLatency.sum());
    c.u("wr_n", s.writeLatency.count()).d("wr_sum", s.writeLatency.sum());
    c.u("reads", s.reads).u("writes", s.writes);
    c.u("fwd", s.forwardedReads).u("hits", s.rowHits);
    c.u("empties", s.rowEmpties).u("conflicts", s.rowConflicts);
    c.hist("out_rd", s.outstandingReads).hist("out_wr", s.outstandingWrites);
    c.u("ticks", s.ticks).u("wsat", s.writeSatTicks);
    c.u("refreshes", s.refreshes).u("bytes", s.bytesTransferred);
    c.u("coalesced", s.coalescedWrites);
    c.seq("bank_hits", s.bankRowHits).seq("bank_acc", s.bankRowAccesses);
}

} // namespace

std::uint64_t
fnv1a(std::string_view s, std::uint64_t h)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::uint64_t
coreDigest(const bsim::sim::RunResult &r)
{
    Canon c;
    c.u("instr", r.instructions).u("exec", r.execCpuCycles);
    c.u("mem", r.memCycles);
    controller(c, r.ctrl);
    for (const auto &[name, v] : r.sched)
        c.d(name.c_str(), v);
    c.d("addr_util", r.addrBusUtil).d("data_util", r.dataBusUtil);
    const auto &k = r.dramCommands;
    c.u("act", k.activates).u("pre", k.precharges).u("rd", k.reads);
    c.u("wr", k.writes).u("ref", k.refreshes);
    return fnv1a(c.str());
}

std::uint64_t
fullDigest(const bsim::sim::RunResult &r)
{
    std::uint64_t h = coreDigest(r);
    if (!r.obs)
        return h;
    std::ostringstream pillars;
    if (r.obs->stalls())
        r.obs->writeStallJson(pillars);
    if (const auto *cp = r.obs->critpath())
        pillars << "critpath=" << cp->completedCount() << ','
                << cp->latencyTotal() << ',' << cp->digest() << ';';
    if (const auto *a = r.obs->auditor())
        pillars << "audit=" << a->commandsAudited() << ','
                << a->violationCount() << ';';
    return fnv1a(pillars.str(), h);
}

std::uint64_t
cmpDigest(const bsim::sim::CmpResult &r)
{
    Canon c;
    c.u("instr", r.instructions).u("exec", r.execCpuCycles);
    c.seq("core_exec", r.perCoreCpuCycles);
    controller(c, r.ctrl);
    c.d("data_util", r.dataBusUtil);
    const auto &f = r.fairness;
    for (double v : f.perCoreIpcAlone)
        c.d("alone_ipc", v);
    for (double v : f.perCoreSlowdown)
        c.d("slowdown", v);
    c.d("max_sd", f.maxSlowdown).d("ws", f.weightedSpeedup);
    c.d("hs", f.harmonicSpeedup);
    return fnv1a(c.str());
}

std::uint64_t
inputDigest(const bsim::trace::WorkloadProfile &prof, std::uint64_t seed,
            std::uint64_t length)
{
    bsim::trace::SyntheticGenerator gen(prof, length, seed);
    bsim::trace::TraceInstr in;
    std::uint64_t h = kFnvBasis;
    while (gen.next(in)) {
        const std::uint64_t word = in.addr ^ (std::uint64_t(in.op) << 56) ^
                                   (std::uint64_t(in.depChain) << 58) ^
                                   (std::uint64_t(in.chainId) << 59);
        h = fnv1a(std::string_view(reinterpret_cast<const char *>(&word),
                                   sizeof word),
                  h);
    }
    return h;
}

void
Goldens::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read goldens " + path);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        const auto cut = line.rfind(' ');
        if (cut == std::string::npos || line.size() - cut - 1 != 16)
            throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                     ": malformed golden line");
        entries_[line.substr(0, cut)] = line.substr(cut + 1);
    }
}

void
Goldens::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# perfbench golden digests: <kind> <scale> <seed> <label> "
           "<fnv1a>\n";
    for (const auto &[key, value] : entries_)
        out << key << ' ' << value << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

const std::string *
Goldens::find(const std::string &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

bool
Goldens::covers(const std::string &scale, std::uint64_t seed) const
{
    const std::string mid = " " + scale + " " + std::to_string(seed) + " ";
    for (const auto &[key, value] : entries_)
        if (key.find(mid) != std::string::npos)
            return true;
    return false;
}

} // namespace perfbench
