#pragma once
/// \file strings.hpp
/// Small string utilities shared by the config loader and CSV parsing.
/// Kept allocation-light: views in, owned strings out only where lifetime
/// demands it.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace powai::common {

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on \p sep; keeps empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits into non-empty whitespace-separated tokens.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// True if \p s begins with \p prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Lowercases ASCII characters.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Strict full-string parses; std::nullopt on any trailing garbage,
/// overflow, or empty input.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// Joins \p parts with \p sep.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

}  // namespace powai::common
