// Fixture: every banned construct below carries a dlb-analyzer allow comment
// with a reason, so the file analyzes clean (no analyze-expect lines).
#include <chrono>
#include <string>
#include <unordered_map> // dlb-analyzer: allow(unordered) used lookup-only below

long long allowed_timestamp()
{
    // dlb-analyzer: allow(clock) log decoration only, never enters a report
    auto t = std::chrono::steady_clock::now();
    return t.time_since_epoch().count();
}

std::size_t allowed_lookup(
    // dlb-analyzer: allow(unordered) lookup only, never iterated
    const std::unordered_map<std::string, int>& index)
{
    return index.size(); // dlb-analyzer: allow(unordered) size is order-free
}
