/**
 * @file
 * A set of one channel's flat bank indices, kept as a bitmask.
 *
 * The schedulers track which banks hold a candidate and which need
 * their arbiter re-run; the per-tick pick then visits only those banks,
 * in the same ascending (or round-robin) order the full scans used, so
 * first-wins tie-breaking is unchanged.
 */

#ifndef BURSTSIM_CTRL_BANK_MASK_HH
#define BURSTSIM_CTRL_BANK_MASK_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace bsim::ctrl
{

/** Bitmask over the flat bank indices [0, size) of one channel. */
class BankMask
{
  public:
    BankMask() = default;
    explicit BankMask(std::uint32_t banks)
        : size_(banks), words_((banks + 63) / 64, 0)
    {
    }

    void set(std::uint32_t b) { words_[b >> 6] |= bit(b); }
    void reset(std::uint32_t b) { words_[b >> 6] &= ~bit(b); }
    bool test(std::uint32_t b) const { return words_[b >> 6] & bit(b); }

    bool
    any() const
    {
        return std::any_of(words_.begin(), words_.end(),
                           [](std::uint64_t w) { return w != 0; });
    }

    std::uint32_t
    count() const
    {
        std::uint32_t n = 0;
        for (std::uint64_t w : words_)
            n += std::uint32_t(std::popcount(w));
        return n;
    }

    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    void
    setAll()
    {
        std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
        if (size_ % 64)
            words_.back() = bit(size_) - 1;
    }

    /** Call @p f(b) for every member in ascending order. Each word is
     *  read once before its members are visited, so @p f may change
     *  the mask; a member it adds behind or inside the current word is
     *  not visited. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t m = words_[w]; m; m &= m - 1)
                f(std::uint32_t(w * 64 + std::countr_zero(m)));
    }

    /** Visit the members in ascending order until @p f returns true;
     *  returns whether it did. */
    template <typename F>
    bool
    anyOf(F &&f) const
    {
        return visit(*this, *this, 0, size_, f);
    }

    /**
     * Visit the members of @p a | @p b round robin: ascending from
     * @p start, then wrapping to the banks below it. Stops at the first
     * member for which @p f returns true and returns that; false when
     * every member was visited. @p f may change either mask; a change
     * takes effect from the next word visited.
     */
    template <typename F>
    static bool
    anyFrom(const BankMask &a, const BankMask &b, std::uint32_t start,
            F &&f)
    {
        return visit(a, b, start, a.size_, f) || visit(a, b, 0, start, f);
    }

  private:
    static std::uint64_t bit(std::uint32_t b)
    {
        return std::uint64_t{1} << (b & 63);
    }

    /** anyFrom() over the members in [lo, hi). */
    template <typename F>
    static bool
    visit(const BankMask &a, const BankMask &b, std::uint32_t lo,
          std::uint32_t hi, F &f)
    {
        for (std::uint32_t w = lo >> 6; w * 64 < hi; ++w) {
            std::uint64_t m = a.words_[w] | b.words_[w];
            if (w == lo >> 6)
                m &= ~(bit(lo) - 1);
            if ((w + 1) * 64 > hi)
                m &= bit(hi) - 1;
            for (; m; m &= m - 1)
                if (f(std::uint32_t(w * 64 + std::countr_zero(m))))
                    return true;
        }
        return false;
    }

    std::uint32_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_BANK_MASK_HH
