// Full-token numeric parsing, shared by every surface that turns user
// strings into numbers (CLI flags, spec files, sweep axis values), and the
// one printed form of 64-bit hashes.
//
// The entire token must parse — trailing garbage ("100x"), an empty
// string, or out-of-range magnitudes are errors, never a silent prefix
// parse — and every failure throws std::invalid_argument built from the
// caller's context string (which names the offending flag or field) plus
// the rejected value.
#ifndef DLB_UTIL_PARSE_HPP
#define DLB_UTIL_PARSE_HPP

#include <cstdint>
#include <string>

namespace dlb {

/// Parses a signed 64-bit integer from the whole of `value`. On any
/// failure throws std::invalid_argument with message `context + ": '" +
/// value + "'"`.
std::int64_t parse_full_int64(const std::string& value,
                              const std::string& context);

/// Parses an unsigned 64-bit integer from the whole of `value`. A '-'
/// anywhere in the token is rejected (std::stoull would happily wrap
/// "-1" — and even " -1" past a first-character check — to 2^64-1).
std::uint64_t parse_full_uint64(const std::string& value,
                                const std::string& context);

/// Parses a double from the whole of `value` (NaN/inf spellings parse;
/// callers with finiteness requirements check after).
double parse_full_double(const std::string& value, const std::string& context);

/// `value` as 16 lowercase hex digits: how spec hashes print everywhere
/// (snapshot gates, the runner's resume check, queue meta, manifests), so
/// one mismatch reads the same wherever it is caught.
std::string hex64(std::uint64_t value);

} // namespace dlb

#endif // DLB_UTIL_PARSE_HPP
