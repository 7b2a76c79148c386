#include "util/parse.hpp"

#include <stdexcept>

namespace dlb {

namespace {

[[noreturn]] void reject(const std::string& value, const std::string& context)
{
    throw std::invalid_argument(context + ": '" + value + "'");
}

} // namespace

std::int64_t parse_full_int64(const std::string& value,
                              const std::string& context)
{
    std::int64_t parsed = 0;
    std::size_t used = 0;
    try {
        parsed = std::stoll(value, &used);
    } catch (const std::exception&) { // invalid_argument / out_of_range
        reject(value, context);
    }
    if (used != value.size()) reject(value, context);
    return parsed;
}

std::uint64_t parse_full_uint64(const std::string& value,
                                const std::string& context)
{
    // std::stoull wraps negatives ("-1" — and even " -1", past any
    // first-character check — becomes 2^64-1); a sign anywhere in the
    // token is a rejection, not a wrap.
    if (value.find('-') != std::string::npos) reject(value, context);
    std::uint64_t parsed = 0;
    std::size_t used = 0;
    try {
        parsed = std::stoull(value, &used);
    } catch (const std::exception&) {
        reject(value, context);
    }
    if (used != value.size()) reject(value, context);
    return parsed;
}

double parse_full_double(const std::string& value, const std::string& context)
{
    double parsed = 0.0;
    std::size_t used = 0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::exception&) {
        reject(value, context);
    }
    if (used != value.size()) reject(value, context);
    return parsed;
}

std::string hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

} // namespace dlb
