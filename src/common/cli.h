// Command-line flag values: one strict integer parser for every binary.
//
// std::atoi silently maps "abc" to 0, "4x" to 4 and overflows to undefined
// behaviour; a typo'd --threads or --sim-shards must fail instead.
#pragma once

#include <optional>
#include <string_view>

namespace jf::cli {

// The whole of `text` as a base-10 int: an optional '-' then digits, no
// whitespace, no '+', no trailing characters, within int's range.
// Anything else is nullopt.
std::optional<int> parse_int(std::string_view text);

// parse_int(value), or "<prog>: error: <flag> needs an integer, got
// '<value>'" on stderr and exit status 2.
int int_flag(std::string_view prog, std::string_view flag, std::string_view value);

}  // namespace jf::cli
