/**
 * @file
 * SDRAM organization and controller-policy configuration.
 */

#ifndef BURSTSIM_DRAM_CONFIG_HH
#define BURSTSIM_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "dram/timing.hh"

namespace bsim::dram
{

/** Row policy of the controller (Table 1 of the paper + Section 2.2). */
enum class PagePolicy : std::uint8_t
{
    OpenPage,           //!< leave the accessed row open (baseline)
    ClosePageAuto,      //!< precharge automatically after each access
    /** History-based open/close prediction (Ying Xu's dynamic SDRAM
     *  controller policy predictor, cited in Section 2.2): a per-bank
     *  saturating counter learns whether the next access tends to reuse
     *  the row (stay open) or conflict (close early). */
    Predictive,
};

/** Address-to-location mapping scheme (Section 2.2 related work). */
enum class AddressMapKind : std::uint8_t
{
    PageInterleave,     //!< baseline of Table 3: row-sized runs per bank
    BlockInterleave,    //!< cache-block granularity channel/bank stripes
    BitReversal,        //!< Shao & Davis SCOPES'05 bit-reversal mapping
    /** Permutation-based page interleaving (Zhang, Zhu & Zhang,
     *  MICRO'00, cited in Section 2.2): XOR the bank index with
     *  low-order row bits so conflicting rows spread across banks while
     *  row locality is untouched. */
    PermutationInterleave,
};

/** Printable name of an address mapping. */
const char *addressMapName(AddressMapKind k);

/** Largest supported banks per rank (DDR5 has 32); bounds the
 *  per-bank entries of a RefreshAll's constraint list. */
inline constexpr std::uint32_t kMaxBanksPerRank = 32;

/** Organization + timing of the simulated main memory. */
struct DramConfig
{
    /** Table 3 baseline: 2 channels x 4 ranks x 4 banks, 4 GB total. */
    std::uint32_t channels = 2;
    std::uint32_t ranksPerChannel = 4;
    std::uint32_t banksPerRank = 4;
    std::uint32_t rowsPerBank = 16384;
    /** Blocks (bursts) per row: 8 KB row / 64 B block. */
    std::uint32_t blocksPerRow = 128;
    /** Bytes per column-access burst (cache block). */
    std::uint32_t blockBytes = 64;

    Timing timing = Timing::ddr2_800();
    PagePolicy pagePolicy = PagePolicy::OpenPage;
    AddressMapKind addressMap = AddressMapKind::PageInterleave;

    /** Total banks across the machine. */
    std::uint32_t
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t(totalBanks()) * rowsPerBank * blocksPerRow *
               blockBytes;
    }

    /** Validate; throws SimError(ErrorCategory::Config) when inconsistent. */
    void validate() const;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_CONFIG_HH
