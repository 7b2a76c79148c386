// Fixture: ambient entropy / process state outside util/rng.hpp.
// analyze-expect: rng-contract
// analyze-expect: rng-contract
// analyze-expect: rng-contract
#include <cstdlib>
#include <ctime>
#include <random>

unsigned bad_seed()
{
    std::random_device entropy;            // flagged: rng-contract
    std::srand(static_cast<unsigned>(std::time(nullptr))); // flagged (srand + time, one line)
    return entropy() + static_cast<unsigned>(rand()); // flagged: rng-contract
}
