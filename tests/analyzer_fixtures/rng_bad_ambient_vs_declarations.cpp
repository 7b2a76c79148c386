// Fixture: functions and members *named* time/clock/rand are declarations,
// not ambient reads, and must not be flagged; the three calls below must.
// analyze-expect: rng-contract
// analyze-expect: rng-contract
// analyze-expect: rng-contract
#include <cstdlib>
#include <ctime>

namespace sim {

struct stopwatch {
    double time() const;             // declaration after a type name
    long clock() const { return 0; } // inline member definition
    ~stopwatch() = default;
};

double stopwatch::time() const { return 0.0; } // qualified declarator

auto rand() -> int; // trailing-return declaration after `auto`

} // namespace sim

long ambient_reads()
{
    const long a = static_cast<long>(time(nullptr));      // flagged
    const long b = static_cast<long>(std::time(nullptr)); // flagged
    return a + b + rand();                                // flagged
}
