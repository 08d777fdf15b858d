#include "common/cli.h"

#include <charconv>
#include <cstdlib>
#include <iostream>

namespace jf::cli {

std::optional<int> parse_int(std::string_view text) {
  if (text.empty()) return std::nullopt;
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

int int_flag(std::string_view prog, std::string_view flag, std::string_view value) {
  if (auto v = parse_int(value)) return *v;
  std::cerr << prog << ": error: " << flag << " needs an integer, got '" << value << "'\n";
  std::exit(2);
}

}  // namespace jf::cli
