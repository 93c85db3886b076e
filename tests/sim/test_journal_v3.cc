/**
 * @file
 * Journal v3 hardening tests: CRC framing written by real sweeps,
 * record-level corruption detection (CRC flip, length mismatch, torn
 * tail), longest-valid-prefix repair, legacy v2 acceptance, pinned
 * record keys, and the shardSlots partition the campaign layer is
 * built on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/hash.hh"
#include "sim/fairness.hh"
#include "sim/sweep.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

std::vector<ExperimentConfig>
tinyPoints()
{
    std::vector<ExperimentConfig> points;
    for (const ctrl::Mechanism m :
         {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
          ctrl::Mechanism::BurstTH}) {
        ExperimentConfig cfg;
        cfg.workload = "swim";
        cfg.instructions = 1500;
        cfg.mechanism = m;
        points.push_back(cfg);
    }
    return points;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
}

/** A valid framed record line for @p payload. */
std::string
frame(const std::string &payload)
{
    char head[32];
    std::snprintf(head, sizeof(head), "J3 %zu %08x ", payload.size(),
                  crc32(payload));
    return head + payload + "\n";
}

const std::string kPayloadA =
    "P 00000000000000aa attempts=1 exec=123 rdlat=0x1p+1 wrlat=0x1p+2 "
    "rowhit=0x1p-1 bw=0x1.8p+1";
const std::string kPayloadB =
    "P 00000000000000bb attempts=2 exec=456 rdlat=0x1p+0 wrlat=0x1p+0 "
    "rowhit=0x1p-2 bw=0x1p+0";
const std::string kPayloadC =
    "P 00000000000000cc attempts=1 exec=789 rdlat=0x1p+0 wrlat=0x1p+0 "
    "rowhit=0x1p-2 bw=0x1p+0";

} // namespace

TEST(JournalV3, RealSweepWritesFramedRecordsThatScanClean)
{
    const auto points = tinyPoints();
    const std::string path = tempPath("j3_real.journal");
    std::remove(path.c_str());

    SweepOptions opt;
    opt.journal = path;
    opt.journalSync = false; // tmpfs test, durability irrelevant
    const SweepReport rep = runExperimentSweep(points, opt);
    ASSERT_EQ(rep.failures(), 0u);

    const JournalScan scan = scanSweepJournal(path);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.v3Records, 3u);
    EXPECT_EQ(scan.legacyRecords, 0u);
    EXPECT_EQ(scan.records.size(), 3u);
    // Every record is framed and the whole file is the valid prefix.
    const std::string content = slurp(path);
    EXPECT_EQ(scan.validPrefixBytes, content.size());
    EXPECT_EQ(content.rfind("J3 ", 0), 0u);

    // And the echo survives: records carry their canonical config.
    for (const ExperimentConfig &p : points) {
        const auto it = scan.records.find(configKey(p));
        ASSERT_NE(it, scan.records.end());
        EXPECT_EQ(it->second.configEcho, canonicalConfig(p));
    }
    std::remove(path.c_str());
}

TEST(JournalV3, CrcFlipMidFileIsDetectedAndRecordDropped)
{
    const std::string path = tempPath("j3_crcflip.journal");
    spit(path, frame(kPayloadA) + frame(kPayloadB) + frame(kPayloadC));

    // Corrupt one byte of record B's payload without changing its
    // length: stored CRC no longer matches.
    std::string content = slurp(path);
    const std::size_t at = content.find("exec=456");
    ASSERT_NE(at, std::string::npos);
    content[at + 5] = '9';
    spit(path, content);

    const JournalScan scan = scanSweepJournal(path);
    ASSERT_EQ(scan.issues.size(), 1u);
    EXPECT_EQ(scan.issues[0].kind, JournalIssue::Kind::CrcMismatch);
    EXPECT_EQ(scan.issues[0].line, 2u);
    // The damaged record is dropped; its neighbours survive.
    EXPECT_EQ(scan.records.count(0xaa), 1u);
    EXPECT_EQ(scan.records.count(0xbb), 0u);
    EXPECT_EQ(scan.records.count(0xcc), 1u);
    // The valid prefix ends before the damaged record.
    EXPECT_EQ(scan.validPrefixBytes, frame(kPayloadA).size());

    // loadSweepJournal (the resume path) sees the same records.
    const auto loaded = loadSweepJournal(path);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.count(0xbb), 0u);
    std::remove(path.c_str());
}

TEST(JournalV3, CrcFlipOnFinalRecordIsStillCorruptionNotTornTail)
{
    const std::string path = tempPath("j3_crctail.journal");
    std::string second = frame(kPayloadB);
    const std::size_t at = second.find("exec=456");
    second[at + 5] = '9';
    spit(path, frame(kPayloadA) + second);

    const JournalScan scan = scanSweepJournal(path);
    ASSERT_EQ(scan.issues.size(), 1u);
    // A CRC mismatch is never excused as crash debris, even at EOF:
    // a torn single write can shorten the tail but not rewrite bytes.
    EXPECT_EQ(scan.issues[0].kind, JournalIssue::Kind::CrcMismatch);
    std::remove(path.c_str());
}

TEST(JournalV3, TornTailVariantsAreSkippedAndRepaired)
{
    // Three torn shapes a crash mid-append can leave behind.
    const std::string torn[] = {
        "J3 12",                      // frame header torn
        frame(kPayloadB).substr(0, 30), // payload torn short
        frame(kPayloadB).substr(0, frame(kPayloadB).size() - 1),
        // ^ complete record missing only its newline: still rejected,
        // or the next O_APPEND write would concatenate onto this line
    };
    for (const std::string &tail : torn) {
        const std::string path = tempPath("j3_torn.journal");
        spit(path, frame(kPayloadA) + tail);

        const JournalScan scan = scanSweepJournal(path);
        ASSERT_EQ(scan.issues.size(), 1u) << tail;
        EXPECT_EQ(scan.issues[0].kind, JournalIssue::Kind::TornTail)
            << tail;
        EXPECT_EQ(scan.records.size(), 1u);
        EXPECT_EQ(scan.validPrefixBytes, frame(kPayloadA).size());

        // Repair truncates to the valid prefix; the rescan is clean.
        EXPECT_TRUE(repairSweepJournal(path));
        EXPECT_EQ(slurp(path), frame(kPayloadA));
        const JournalScan healed = scanSweepJournal(path);
        EXPECT_TRUE(healed.clean());
        EXPECT_EQ(healed.records.size(), 1u);
        // Idempotent: a clean file is left alone.
        EXPECT_FALSE(repairSweepJournal(path));
        std::remove(path.c_str());
    }
}

TEST(JournalV3, LengthMismatchIsItsOwnIssueKind)
{
    const std::string path = tempPath("j3_len.journal");
    // Frame claims 5 bytes, carries more; a clean record follows, so
    // this is mid-file damage, not a torn tail.
    spit(path, "J3 5 00000000 hello-much-longer\n" + frame(kPayloadA));
    const JournalScan scan = scanSweepJournal(path);
    ASSERT_EQ(scan.issues.size(), 1u);
    EXPECT_EQ(scan.issues[0].kind, JournalIssue::Kind::LengthMismatch);
    EXPECT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.validPrefixBytes, 0u);
    std::remove(path.c_str());
}

TEST(JournalV3, LegacyBareV2RecordsStillResume)
{
    const std::string path = tempPath("j3_legacy.journal");
    spit(path, "# old journal\n" + kPayloadA + "\n" + frame(kPayloadB));
    const JournalScan scan = scanSweepJournal(path);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.legacyRecords, 1u);
    EXPECT_EQ(scan.v3Records, 1u);
    EXPECT_EQ(scan.records.count(0xaa), 1u);
    EXPECT_EQ(scan.records.count(0xbb), 1u);
    EXPECT_EQ(scan.records.at(0xaa).summary.execCpuCycles, 123u);
    std::remove(path.c_str());
}

TEST(JournalV3, MissingFileIsCleanAndEmpty)
{
    const JournalScan scan =
        scanSweepJournal(tempPath("j3_nope.journal"));
    EXPECT_TRUE(scan.missing);
    EXPECT_TRUE(scan.clean());
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(repairSweepJournal(tempPath("j3_nope.journal")));
}

TEST(JournalV3, ResumeAcrossTornTailReproducesByteIdenticalCsv)
{
    const auto points = tinyPoints();
    const std::string path = tempPath("j3_resume.journal");
    std::remove(path.c_str());

    const SweepReport fresh = runExperimentSweep(points, {});
    std::ostringstream fresh_csv;
    writeSweepCsv(fresh_csv, points, fresh);

    SweepOptions opt;
    opt.journal = path;
    opt.journalSync = false;
    runExperimentSweep(points, opt);

    // Crash debris after the last good record: resume must shrug it off
    // and reproduce the fresh CSV exactly.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "J3 999 0000";
    }
    const SweepReport resumed = runExperimentSweep(points, opt);
    EXPECT_EQ(resumed.journaled(), 3u);
    std::ostringstream resumed_csv;
    writeSweepCsv(resumed_csv, points, resumed);
    EXPECT_EQ(resumed_csv.str(), fresh_csv.str());
    std::remove(path.c_str());
}

TEST(ShardSlots, PartitionIsContiguousBalancedAndComplete)
{
    for (const std::size_t count : {1u, 2u, 7u, 24u, 100u}) {
        for (unsigned shards = 1; shards <= count && shards <= 9;
             ++shards) {
            std::vector<std::size_t> all;
            std::size_t minSize = count, maxSize = 0;
            for (unsigned s = 0; s < shards; ++s) {
                const auto slots = shardSlots(count, shards, s);
                minSize = std::min(minSize, slots.size());
                maxSize = std::max(maxSize, slots.size());
                all.insert(all.end(), slots.begin(), slots.end());
            }
            // Concatenation in shard order is exactly 0..count-1.
            ASSERT_EQ(all.size(), count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(all[i], i) << count << "/" << shards;
            // Balanced: sizes differ by at most one.
            EXPECT_LE(maxSize - minSize, 1u) << count << "/" << shards;
        }
    }
}

TEST(ShardSlots, RejectsBadGeometry)
{
    EXPECT_SIM_ERROR(shardSlots(10, 0, 0), ErrorCategory::Config,
                     "shard count");
    EXPECT_SIM_ERROR(shardSlots(10, 3, 3), ErrorCategory::Config,
                     "out of range");
}

TEST(Crc32, KnownVectorsAndSensitivity)
{
    // The standard check vector for CRC-32/ISO-HDLC.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0x00000000u);
    EXPECT_NE(crc32(std::string("journal")), crc32(std::string("journak")));
}

TEST(Fnv1a, KnownVectorsAndChaining)
{
    EXPECT_EQ(fnv1a(""), kFnv1aBasis);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("journal"), fnv1a("nal", fnv1a("jour")));
}

TEST(JournalV3, RecordKeysArePinned)
{
    // Existing sweep and fairness journals key their records with
    // these values: if either moves, no journal written before resumes.
    EXPECT_EQ(configKey(ExperimentConfig{}), 0x2bcd01bf3cbe7d0fULL);
    CmpConfig mix;
    mix.workloads = {"mcf", "swim", "gcc", "art"};
    mix.mechanism = ctrl::Mechanism::Bliss;
    mix.instructions = 20000;
    mix.watermarkDrain = true;
    EXPECT_EQ(cmpConfigKey(mix), 0x22a64c25c9eaf536ULL);
}
