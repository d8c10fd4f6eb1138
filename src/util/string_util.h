// Small string helpers shared across modules.
#ifndef P2PDB_UTIL_STRING_UTIL_H_
#define P2PDB_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace p2pdb {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view TrimString(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace p2pdb

#endif  // P2PDB_UTIL_STRING_UTIL_H_
