/**
 * @file
 * FNV-1a (64-bit), the repo's standard cheap digest: the sweep and
 * fairness journals' point keys, the fuzzer's content-addressed scratch
 * traces and the crit-path JSONL digest. Keys derived from it are
 * persisted in journals, so its output must never change.
 */

#ifndef BURSTSIM_COMMON_HASH_HH
#define BURSTSIM_COMMON_HASH_HH

#include <cstdint>
#include <string_view>

namespace bsim
{

constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/** FNV-1a of @p s, continuing from @p h (chain calls to digest a stream). */
constexpr std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = kFnv1aBasis)
{
    for (const char c : s) {
        h ^= std::uint8_t(c);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace bsim

#endif // BURSTSIM_COMMON_HASH_HH
