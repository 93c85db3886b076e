#include "dram/address_map.hh"

#include "common/error.hh"
#include "common/log.hh"

namespace bsim::dram
{

namespace
{

/** Extract @p bits bits of @p v starting at bit @p pos. */
inline std::uint64_t
field(std::uint64_t v, std::uint32_t pos, std::uint32_t bits)
{
    return (v >> pos) & ((std::uint64_t(1) << bits) - 1);
}

/** Reverse the low @p bits bits of @p v. */
inline std::uint64_t
reverseBits(std::uint64_t v, std::uint32_t bits)
{
    std::uint64_t r = 0;
    for (std::uint32_t i = 0; i < bits; ++i)
        if (v & (std::uint64_t(1) << i))
            r |= std::uint64_t(1) << (bits - 1 - i);
    return r;
}

} // namespace

const char *
addressMapName(AddressMapKind k)
{
    switch (k) {
      case AddressMapKind::PageInterleave: return "page-interleave";
      case AddressMapKind::BlockInterleave: return "block-interleave";
      case AddressMapKind::BitReversal: return "bit-reversal";
      case AddressMapKind::PermutationInterleave:
        return "permutation-interleave";
    }
    return "?";
}

void
DramConfig::validate() const
{
    timing.validate();
    if (!channels || !ranksPerChannel || !banksPerRank || !rowsPerBank ||
        !blocksPerRow || !blockBytes) {
        throwSimError(ErrorCategory::Config, "dram config: all dimensions must be nonzero");
    }
    if (banksPerRank > kMaxBanksPerRank)
        throwSimError(ErrorCategory::Config,
                      "dram config: banksPerRank (%u) must be <= %u",
                      banksPerRank, kMaxBanksPerRank);
    // AddressMap enforces power-of-two-ness with better messages.
}

std::uint32_t
AddressMap::log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throwSimError(ErrorCategory::Config, "address map: %s (%llu) must be a power of two", what,
              static_cast<unsigned long long>(v));
    std::uint32_t b = 0;
    while ((std::uint64_t(1) << b) < v)
        ++b;
    return b;
}

AddressMap::AddressMap(const DramConfig &cfg)
    : kind_(cfg.addressMap),
      blockBytes_(cfg.blockBytes),
      offsetBits_(log2Exact(cfg.blockBytes, "blockBytes")),
      colBits_(log2Exact(cfg.blocksPerRow, "blocksPerRow")),
      chanBits_(log2Exact(cfg.channels, "channels")),
      bankBits_(log2Exact(cfg.banksPerRank, "banksPerRank")),
      rankBits_(log2Exact(cfg.ranksPerChannel, "ranksPerChannel")),
      rowBits_(log2Exact(cfg.rowsPerBank, "rowsPerBank")),
      totalBits_(offsetBits_ + colBits_ + chanBits_ + bankBits_ +
                 rankBits_ + rowBits_)
{
}

Coords
AddressMap::decode(Addr addr) const
{
    Coords c;
    std::uint32_t pos = offsetBits_;

    switch (kind_) {
      case AddressMapKind::PageInterleave: {
        // low -> high: col | channel | bank | rank | row
        c.col = std::uint32_t(field(addr, pos, colBits_));
        pos += colBits_;
        c.channel = std::uint32_t(field(addr, pos, chanBits_));
        pos += chanBits_;
        c.bank = std::uint32_t(field(addr, pos, bankBits_));
        pos += bankBits_;
        c.rank = std::uint32_t(field(addr, pos, rankBits_));
        pos += rankBits_;
        c.row = std::uint32_t(field(addr, pos, rowBits_));
        break;
      }
      case AddressMapKind::BlockInterleave: {
        // low -> high: channel | bank | rank | col | row: adjacent blocks
        // stripe across channels and banks (fine-grain interleaving).
        c.channel = std::uint32_t(field(addr, pos, chanBits_));
        pos += chanBits_;
        c.bank = std::uint32_t(field(addr, pos, bankBits_));
        pos += bankBits_;
        c.rank = std::uint32_t(field(addr, pos, rankBits_));
        pos += rankBits_;
        c.col = std::uint32_t(field(addr, pos, colBits_));
        pos += colBits_;
        c.row = std::uint32_t(field(addr, pos, rowBits_));
        break;
      }
      case AddressMapKind::PermutationInterleave: {
        // Zhang et al. MICRO'00: identical to page interleaving except
        // the bank index is XORed with the low-order row bits, breaking
        // the pathological case where large-stride streams collide in
        // one bank while leaving within-row locality intact.
        c.col = std::uint32_t(field(addr, pos, colBits_));
        pos += colBits_;
        c.channel = std::uint32_t(field(addr, pos, chanBits_));
        pos += chanBits_;
        c.bank = std::uint32_t(field(addr, pos, bankBits_));
        pos += bankBits_;
        c.rank = std::uint32_t(field(addr, pos, rankBits_));
        pos += rankBits_;
        c.row = std::uint32_t(field(addr, pos, rowBits_));
        c.bank ^= std::uint32_t(c.row & ((1u << bankBits_) - 1));
        break;
      }
      case AddressMapKind::BitReversal: {
        // Page interleaving with the bits above the column field reversed
        // (Shao & Davis, SCOPES'05): slowly-varying high-order bits end up
        // selecting channel/bank, spreading large-stride streams.
        c.col = std::uint32_t(field(addr, pos, colBits_));
        pos += colBits_;
        const std::uint32_t high_bits =
            chanBits_ + bankBits_ + rankBits_ + rowBits_;
        std::uint64_t high = field(addr, pos, high_bits);
        high = reverseBits(high, high_bits);
        std::uint32_t hpos = 0;
        c.channel = std::uint32_t(field(high, hpos, chanBits_));
        hpos += chanBits_;
        c.bank = std::uint32_t(field(high, hpos, bankBits_));
        hpos += bankBits_;
        c.rank = std::uint32_t(field(high, hpos, rankBits_));
        hpos += rankBits_;
        c.row = std::uint32_t(field(high, hpos, rowBits_));
        break;
      }
    }
    return c;
}

Addr
AddressMap::encode(const Coords &c) const
{
    Addr addr = 0;
    std::uint32_t pos = offsetBits_;

    switch (kind_) {
      case AddressMapKind::PageInterleave: {
        addr |= Addr(c.col) << pos;
        pos += colBits_;
        addr |= Addr(c.channel) << pos;
        pos += chanBits_;
        addr |= Addr(c.bank) << pos;
        pos += bankBits_;
        addr |= Addr(c.rank) << pos;
        pos += rankBits_;
        addr |= Addr(c.row) << pos;
        break;
      }
      case AddressMapKind::BlockInterleave: {
        addr |= Addr(c.channel) << pos;
        pos += chanBits_;
        addr |= Addr(c.bank) << pos;
        pos += bankBits_;
        addr |= Addr(c.rank) << pos;
        pos += rankBits_;
        addr |= Addr(c.col) << pos;
        pos += colBits_;
        addr |= Addr(c.row) << pos;
        break;
      }
      case AddressMapKind::PermutationInterleave: {
        addr |= Addr(c.col) << pos;
        pos += colBits_;
        addr |= Addr(c.channel) << pos;
        pos += chanBits_;
        const std::uint32_t stored_bank =
            c.bank ^ std::uint32_t(c.row & ((1u << bankBits_) - 1));
        addr |= Addr(stored_bank) << pos;
        pos += bankBits_;
        addr |= Addr(c.rank) << pos;
        pos += rankBits_;
        addr |= Addr(c.row) << pos;
        break;
      }
      case AddressMapKind::BitReversal: {
        addr |= Addr(c.col) << pos;
        pos += colBits_;
        const std::uint32_t high_bits =
            chanBits_ + bankBits_ + rankBits_ + rowBits_;
        std::uint64_t high = 0;
        std::uint32_t hpos = 0;
        high |= std::uint64_t(c.channel) << hpos;
        hpos += chanBits_;
        high |= std::uint64_t(c.bank) << hpos;
        hpos += bankBits_;
        high |= std::uint64_t(c.rank) << hpos;
        hpos += rankBits_;
        high |= std::uint64_t(c.row) << hpos;
        high = reverseBits(high, high_bits);
        addr |= high << pos;
        break;
      }
    }
    return addr;
}

} // namespace bsim::dram
