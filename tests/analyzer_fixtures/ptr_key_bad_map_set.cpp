// Fixture: a pointer-keyed ordered container iterates in allocation order.
// analyze-expect: ptr-key
// analyze-expect: ptr-key
#include <map>
#include <set>

struct graph;

int count_entries(const std::map<const graph*, int>& weights,
                  const std::set<graph*>& visited)
{
    return static_cast<int>(weights.size() + visited.size());
}
