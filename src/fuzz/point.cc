#include "fuzz/point.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hh"
#include "trace/spec_profiles.hh"

namespace bsim::fuzz
{

namespace
{

/** FNV-1a for content-addressed scratch trace files. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
        h ^= std::uint8_t(c);
        h *= 1099511628211ULL;
    }
    return h;
}

// Token tables; the string forms match the burstsim CLI's options so a
// repro file reads like a command line.

const char *
pagePolicyToken(dram::PagePolicy p)
{
    switch (p) {
      case dram::PagePolicy::OpenPage: return "open";
      case dram::PagePolicy::ClosePageAuto: return "cpa";
      case dram::PagePolicy::Predictive: return "predictive";
    }
    return "?";
}

dram::PagePolicy
parsePagePolicy(const std::string &s)
{
    if (s == "open")
        return dram::PagePolicy::OpenPage;
    if (s == "cpa")
        return dram::PagePolicy::ClosePageAuto;
    if (s == "predictive")
        return dram::PagePolicy::Predictive;
    throwSimError(ErrorCategory::Config, "repro: unknown page policy '%s'",
                  s.c_str());
}

const char *
addressMapToken(dram::AddressMapKind k)
{
    switch (k) {
      case dram::AddressMapKind::PageInterleave: return "page";
      case dram::AddressMapKind::BlockInterleave: return "block";
      case dram::AddressMapKind::BitReversal: return "bitrev";
      case dram::AddressMapKind::PermutationInterleave: return "perm";
    }
    return "?";
}

dram::AddressMapKind
parseAddressMap(const std::string &s)
{
    if (s == "page")
        return dram::AddressMapKind::PageInterleave;
    if (s == "block")
        return dram::AddressMapKind::BlockInterleave;
    if (s == "bitrev")
        return dram::AddressMapKind::BitReversal;
    if (s == "perm")
        return dram::AddressMapKind::PermutationInterleave;
    throwSimError(ErrorCategory::Config, "repro: unknown address map '%s'",
                  s.c_str());
}

const char *
deviceToken(sim::DeviceGen d)
{
    return d == sim::DeviceGen::DDR_266 ? "ddr-266" : "ddr2-800";
}

sim::DeviceGen
parseDevice(const std::string &s)
{
    if (s == "ddr2-800")
        return sim::DeviceGen::DDR2_800;
    if (s == "ddr-266")
        return sim::DeviceGen::DDR_266;
    throwSimError(ErrorCategory::Config, "repro: unknown device '%s'",
                  s.c_str());
}

std::uint64_t
parseU64(const std::string &key, const std::string &s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (!end || *end != '\0' || s.empty())
        throwSimError(ErrorCategory::Config,
                      "repro: %s expects a number, got '%s'", key.c_str(),
                      s.c_str());
    return v;
}

bool
parseBool(const std::string &key, const std::string &s)
{
    if (s == "0" || s == "1")
        return s == "1";
    throwSimError(ErrorCategory::Config,
                  "repro: %s expects 0 or 1, got '%s'", key.c_str(),
                  s.c_str());
}

/** Workloads the sampler draws from (paper set + pchase). */
std::vector<std::string>
sampleWorkloads()
{
    std::vector<std::string> names = trace::specProfileNames();
    for (const std::string &m : trace::microProfileNames())
        names.push_back(m);
    return names;
}

/** Generate a small random inline trace (the trace-workload axis). */
std::vector<std::string>
sampleTrace(Rng &rng)
{
    const std::uint64_t lines = 200 + rng.below(1800);
    // Keep the footprint modest so short traces still produce bank
    // contention and row reuse; block-align addresses like a real L2.
    const std::uint64_t footprint = 1ULL << (20 + rng.below(6)); // 1M-32M
    std::vector<std::string> out;
    out.reserve(lines);
    char buf[48];
    for (std::uint64_t i = 0; i < lines; ++i) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 45) {
            out.emplace_back("C");
            continue;
        }
        const std::uint64_t addr = rng.below(footprint) & ~63ULL;
        const char kind = roll < 75 ? 'L' : (roll < 90 ? 'S' : 'D');
        std::snprintf(buf, sizeof(buf), "%c %" PRIx64, kind, addr);
        out.emplace_back(buf);
    }
    return out;
}

} // namespace

FuzzPoint
defaultPoint()
{
    return FuzzPoint{};
}

FuzzPoint
samplePoint(Rng &rng)
{
    FuzzPoint p;

    const auto workloads = sampleWorkloads();
    if (rng.chance(0.15)) {
        p.workload = kInlineTraceWorkload;
        p.trace = sampleTrace(rng);
    } else {
        p.workload = workloads[rng.below(workloads.size())];
    }

    constexpr ctrl::Mechanism kMechs[] = {
        ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
        ctrl::Mechanism::Intel,     ctrl::Mechanism::IntelRP,
        ctrl::Mechanism::Burst,     ctrl::Mechanism::BurstRP,
        ctrl::Mechanism::BurstWP,   ctrl::Mechanism::BurstTH,
        ctrl::Mechanism::AdaptiveHistory,
        ctrl::Mechanism::FrFcfs,    ctrl::Mechanism::Parbs,
        ctrl::Mechanism::Atlas,     ctrl::Mechanism::Bliss,
    };
    p.mechanism = kMechs[rng.below(std::size(kMechs))];
    // The drain-mode axis only exists for the contention families;
    // keeping it default elsewhere keeps shrunk repros honest (the
    // axis never appears in a repro it cannot influence).
    if (ctrl::isContentionMechanism(p.mechanism))
        p.watermarkDrain = rng.chance(0.35);

    constexpr std::uint64_t kInstr[] = {2000, 4000, 6000, 8000, 12000};
    p.instructions = kInstr[rng.below(std::size(kInstr))];
    p.seed = 1 + rng.below(1'000'000);

    constexpr std::size_t kThresholds[] = {0, 1, 8, 16, 32, 52, 64, 128};
    p.threshold = kThresholds[rng.below(std::size(kThresholds))];

    p.pagePolicy = dram::PagePolicy(rng.below(3));
    p.addressMap = dram::AddressMapKind(rng.below(4));
    p.device = rng.chance(0.3) ? sim::DeviceGen::DDR_266
                               : sim::DeviceGen::DDR2_800;
    p.timingVariant = sim::TimingVariant(rng.below(sim::kNumTimingVariants));

    constexpr std::uint32_t kChannels[] = {0, 1, 2, 4};
    constexpr std::uint32_t kRanks[] = {0, 1, 2, 4};
    constexpr std::uint32_t kBanks[] = {0, 2, 4, 8};
    p.channels = kChannels[rng.below(std::size(kChannels))];
    p.ranksPerChannel = kRanks[rng.below(std::size(kRanks))];
    p.banksPerRank = kBanks[rng.below(std::size(kBanks))];

    p.dynamicThreshold = rng.chance(0.2);
    p.sortBurstsBySize = rng.chance(0.2);
    p.criticalFirst = rng.chance(0.2);
    p.rankAware = !rng.chance(0.2);
    p.coalesceWrites = rng.chance(0.2);

    constexpr std::uint32_t kRob[] = {0, 1, 8, 32};
    constexpr std::uint32_t kIssue[] = {0, 1, 4};
    p.robSize = kRob[rng.below(std::size(kRob))];
    p.issueWidth = kIssue[rng.below(std::size(kIssue))];
    return p;
}

sim::ExperimentConfig
toConfig(const FuzzPoint &p, const std::string &scratch_dir)
{
    sim::ExperimentConfig cfg;
    if (p.workload == kInlineTraceWorkload) {
        // Content-addressed scratch file: replays of the same point
        // (shrinker probes, corpus reruns) share one materialisation.
        std::string body;
        for (const std::string &line : p.trace) {
            body += line;
            body += '\n';
        }
        namespace fs = std::filesystem;
        const fs::path dir = scratch_dir.empty()
                                 ? fs::temp_directory_path()
                                 : fs::path(scratch_dir);
        char name[64];
        std::snprintf(name, sizeof(name), "bsim-fuzz-%016" PRIx64 ".trace",
                      fnv1a(body));
        const fs::path path = dir / name;
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (!fs::exists(path)) {
            std::ofstream os(path);
            os << body;
            if (!os)
                throwSimError(ErrorCategory::Resource,
                              "cannot write scratch trace '%s'",
                              path.string().c_str());
        }
        // A char, not "@": GCC 12 flags that with a false -Wrestrict.
        cfg.workload = '@' + path.string();
    } else {
        cfg.workload = p.workload;
    }
    cfg.mechanism = p.mechanism;
    cfg.instructions = p.instructions;
    cfg.seed = p.seed;
    cfg.threshold = p.threshold;
    cfg.pagePolicy = p.pagePolicy;
    cfg.addressMap = p.addressMap;
    cfg.device = p.device;
    cfg.timingVariant = p.timingVariant;
    cfg.channels = p.channels;
    cfg.ranksPerChannel = p.ranksPerChannel;
    cfg.banksPerRank = p.banksPerRank;
    cfg.dynamicThreshold = p.dynamicThreshold;
    cfg.sortBurstsBySize = p.sortBurstsBySize;
    cfg.criticalFirst = p.criticalFirst;
    cfg.rankAware = p.rankAware;
    cfg.coalesceWrites = p.coalesceWrites;
    cfg.watermarkDrain = p.watermarkDrain;
    cfg.robSize = p.robSize;
    cfg.issueWidth = p.issueWidth;
    return cfg;
}

int
axesChangedFromDefault(const FuzzPoint &p)
{
    const FuzzPoint d = defaultPoint();
    int n = 0;
    n += p.workload != d.workload;
    n += p.mechanism != d.mechanism;
    n += p.seed != d.seed;
    n += p.threshold != d.threshold;
    n += p.pagePolicy != d.pagePolicy;
    n += p.addressMap != d.addressMap;
    n += p.device != d.device;
    n += p.timingVariant != d.timingVariant;
    n += p.channels != d.channels;
    n += p.ranksPerChannel != d.ranksPerChannel;
    n += p.banksPerRank != d.banksPerRank;
    n += p.dynamicThreshold != d.dynamicThreshold;
    n += p.sortBurstsBySize != d.sortBurstsBySize;
    n += p.criticalFirst != d.criticalFirst;
    n += p.rankAware != d.rankAware;
    n += p.coalesceWrites != d.coalesceWrites;
    n += p.watermarkDrain != d.watermarkDrain;
    n += p.robSize != d.robSize;
    n += p.issueWidth != d.issueWidth;
    return n;
}

std::string
pointLabel(const FuzzPoint &p)
{
    std::ostringstream os;
    os << p.workload << '/' << ctrl::mechanismName(p.mechanism);
    const FuzzPoint d = defaultPoint();
    if (p.pagePolicy != d.pagePolicy)
        os << " pp=" << pagePolicyToken(p.pagePolicy);
    if (p.addressMap != d.addressMap)
        os << " map=" << addressMapToken(p.addressMap);
    if (p.device != d.device)
        os << " dev=" << deviceToken(p.device);
    if (p.timingVariant != d.timingVariant)
        os << " t=" << sim::timingVariantName(p.timingVariant);
    if (p.channels || p.ranksPerChannel || p.banksPerRank)
        os << " geo=" << p.channels << 'x' << p.ranksPerChannel << 'x'
           << p.banksPerRank;
    if (p.threshold != d.threshold)
        os << " th=" << p.threshold;
    if (p.watermarkDrain != d.watermarkDrain)
        os << " wd";
    return os.str();
}

std::string
serializePoint(const FuzzPoint &p, const std::string &note)
{
    std::ostringstream os;
    os << "# burstsim_fuzz repro v1\n";
    if (!note.empty()) {
        // Notes can be multi-line (watchdog errors embed a controller
        // dump); every line must carry the comment marker or the file
        // won't parse back.
        std::istringstream ns(note);
        std::string nline;
        while (std::getline(ns, nline))
            os << "# " << nline << '\n';
    }
    os << "workload=" << p.workload << '\n'
       << "mechanism=" << ctrl::mechanismName(p.mechanism) << '\n'
       << "instructions=" << p.instructions << '\n'
       << "seed=" << p.seed << '\n'
       << "threshold=" << p.threshold << '\n'
       << "page_policy=" << pagePolicyToken(p.pagePolicy) << '\n'
       << "address_map=" << addressMapToken(p.addressMap) << '\n'
       << "device=" << deviceToken(p.device) << '\n'
       << "timing=" << sim::timingVariantName(p.timingVariant) << '\n'
       << "channels=" << p.channels << '\n'
       << "ranks=" << p.ranksPerChannel << '\n'
       << "banks=" << p.banksPerRank << '\n'
       << "dynamic_threshold=" << p.dynamicThreshold << '\n'
       << "sort_bursts=" << p.sortBurstsBySize << '\n'
       << "critical_first=" << p.criticalFirst << '\n'
       << "rank_aware=" << p.rankAware << '\n'
       << "coalesce_writes=" << p.coalesceWrites << '\n'
       << "watermark_drain=" << p.watermarkDrain << '\n'
       << "rob=" << p.robSize << '\n'
       << "issue_width=" << p.issueWidth << '\n';
    if (p.workload == kInlineTraceWorkload) {
        os << "trace:\n";
        for (const std::string &line : p.trace)
            os << line << '\n';
    }
    return os.str();
}

FuzzPoint
parsePoint(const std::string &text)
{
    FuzzPoint p;
    std::istringstream is(text);
    std::string line;
    bool in_trace = false;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        lineno += 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (in_trace) {
            if (!line.empty() && line[0] != '#')
                p.trace.push_back(line);
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "trace:") {
            in_trace = true;
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throwSimError(ErrorCategory::Config,
                          "repro line %u: expected key=value, got '%s'",
                          lineno, line.c_str());
        const std::string key = line.substr(0, eq);
        const std::string val = line.substr(eq + 1);
        if (key == "workload")
            p.workload = val;
        else if (key == "mechanism")
            p.mechanism = ctrl::parseMechanism(val);
        else if (key == "instructions")
            p.instructions = parseU64(key, val);
        else if (key == "seed")
            p.seed = parseU64(key, val);
        else if (key == "threshold")
            p.threshold = std::size_t(parseU64(key, val));
        else if (key == "page_policy")
            p.pagePolicy = parsePagePolicy(val);
        else if (key == "address_map")
            p.addressMap = parseAddressMap(val);
        else if (key == "device")
            p.device = parseDevice(val);
        else if (key == "timing")
            p.timingVariant = sim::timingVariantByName(val);
        else if (key == "channels")
            p.channels = std::uint32_t(parseU64(key, val));
        else if (key == "ranks")
            p.ranksPerChannel = std::uint32_t(parseU64(key, val));
        else if (key == "banks")
            p.banksPerRank = std::uint32_t(parseU64(key, val));
        else if (key == "dynamic_threshold")
            p.dynamicThreshold = parseBool(key, val);
        else if (key == "sort_bursts")
            p.sortBurstsBySize = parseBool(key, val);
        else if (key == "critical_first")
            p.criticalFirst = parseBool(key, val);
        else if (key == "rank_aware")
            p.rankAware = parseBool(key, val);
        else if (key == "coalesce_writes")
            p.coalesceWrites = parseBool(key, val);
        else if (key == "watermark_drain")
            p.watermarkDrain = parseBool(key, val);
        else if (key == "rob")
            p.robSize = std::uint32_t(parseU64(key, val));
        else if (key == "issue_width")
            p.issueWidth = std::uint32_t(parseU64(key, val));
        else
            throwSimError(ErrorCategory::Config,
                          "repro line %u: unknown key '%s'", lineno,
                          key.c_str());
    }
    if (p.workload == kInlineTraceWorkload && p.trace.empty())
        throwSimError(ErrorCategory::Config,
                      "repro: inline workload without trace lines");
    return p;
}

} // namespace bsim::fuzz
