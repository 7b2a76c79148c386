#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "campaign/registry.hpp"
#include "util/csv.hpp" // format_double
#include "util/parse.hpp"

namespace dlb::campaign {

namespace {

std::string trim(const std::string& text)
{
    const auto begin = text.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) return {};
    const auto end = text.find_last_not_of(" \t\r\n");
    return text.substr(begin, end - begin + 1);
}

// Shared full-token parsers (util/parse.hpp) with spec-flavored context.

std::int64_t parse_int(const std::string& key, const std::string& value)
{
    return parse_full_int64(value, "spec: bad integer for " + key);
}

std::uint64_t parse_uint(const std::string& key, const std::string& value)
{
    return parse_full_uint64(value, "spec: bad unsigned for " + key);
}

double parse_double(const std::string& key, const std::string& value)
{
    return parse_full_double(value, "spec: bad number for " + key);
}

// The member holding each name-valued field (the keys of
// registry::value_names()); null for numeric fields and unknown keys.
std::string scenario_spec::*name_member(const std::string& key)
{
    if (key == "topology") return &scenario_spec::topology;
    if (key == "alpha") return &scenario_spec::alpha;
    if (key == "speeds") return &scenario_spec::speeds;
    if (key == "scheme") return &scenario_spec::scheme;
    if (key == "process") return &scenario_spec::process;
    if (key == "rounding") return &scenario_spec::rounding;
    if (key == "policy") return &scenario_spec::policy;
    if (key == "switch") return &scenario_spec::switch_mode;
    if (key == "load") return &scenario_spec::load_pattern;
    if (key == "workload") return &scenario_spec::workload;
    return nullptr;
}

// A linear scan of `names`; value_index is reached only to throw its
// message naming the field and the accepted names.
void check_name(const std::string& field,
                const std::vector<std::string>& names, const std::string& value)
{
    if (std::find(names.begin(), names.end(), value) == names.end())
        value_index(field, value);
}

} // namespace

const std::vector<std::string>& field_names()
{
    static const std::vector<std::string> names = {
        "topology",      "nodes",           "topology_param",
        "alpha",         "alpha_gamma",     "speeds",
        "speed_value",   "speed_shape",     "scheme",
        "beta",          "process",         "rounding",
        "policy",        "switch",          "switch_value",
        "load",          "tokens_per_node", "workload",
        "workload_rate", "workload_amount", "workload_period",
        "rng_version",   "seed",            "rounds",
    };
    return names;
}

void set_field(scenario_spec& spec, const std::string& key,
               const std::string& value)
{
    if (const auto member = name_member(key)) spec.*member = value;
    else if (key == "nodes") spec.nodes = parse_int(key, value);
    else if (key == "topology_param") {
        // Reject NaN/inf eagerly: a non-finite param corrupts the ordered
        // graph/lambda cache keys and no topology family accepts one.
        const double parsed = parse_double(key, value);
        if (!std::isfinite(parsed))
            throw std::invalid_argument(
                "spec: topology_param must be finite, got '" + value + "'");
        spec.topology_param = parsed;
    }
    else if (key == "alpha_gamma") spec.alpha_gamma = parse_double(key, value);
    else if (key == "speed_value") spec.speed_value = parse_double(key, value);
    else if (key == "speed_shape") spec.speed_shape = parse_double(key, value);
    else if (key == "beta") spec.beta = parse_double(key, value);
    else if (key == "switch_value") spec.switch_value = parse_double(key, value);
    else if (key == "tokens_per_node") spec.tokens_per_node = parse_int(key, value);
    else if (key == "workload_rate") spec.workload_rate = parse_double(key, value);
    else if (key == "workload_amount")
        spec.workload_amount = parse_int(key, value);
    else if (key == "workload_period")
        spec.workload_period = parse_int(key, value);
    else if (key == "rng_version") {
        const std::int64_t parsed = parse_int(key, value);
        if (parsed != 1 && parsed != 2)
            throw std::invalid_argument(
                "spec: rng_version must be 1 (xoshiro streams, the default) "
                "or 2 (counter-based draws), got '" +
                value + "'");
        spec.rng_version = parsed;
    } else if (key == "seed") spec.seed = parse_uint(key, value);
    else if (key == "rounds") spec.rounds = parse_int(key, value);
    else
        throw std::invalid_argument("spec: unknown field '" + key + "'");
}

std::string get_field(const scenario_spec& spec, const std::string& key)
{
    if (const auto member = name_member(key)) return spec.*member;
    if (key == "nodes") return std::to_string(spec.nodes);
    if (key == "topology_param") return format_double(spec.topology_param);
    if (key == "alpha_gamma") return format_double(spec.alpha_gamma);
    if (key == "speed_value") return format_double(spec.speed_value);
    if (key == "speed_shape") return format_double(spec.speed_shape);
    if (key == "beta") return format_double(spec.beta);
    if (key == "switch_value") return format_double(spec.switch_value);
    if (key == "tokens_per_node") return std::to_string(spec.tokens_per_node);
    if (key == "workload_rate") return format_double(spec.workload_rate);
    if (key == "workload_amount") return std::to_string(spec.workload_amount);
    if (key == "workload_period") return std::to_string(spec.workload_period);
    if (key == "rng_version") return std::to_string(spec.rng_version);
    if (key == "seed") return std::to_string(spec.seed);
    if (key == "rounds") return std::to_string(spec.rounds);
    throw std::invalid_argument("spec: unknown field '" + key + "'");
}

std::string scenario_label(const scenario_spec& spec)
{
    std::string label = spec.topology + "-n" + std::to_string(spec.nodes) + "-" +
                        spec.scheme + "-" + spec.rounding;
    if (spec.process != "discrete") label += "-" + spec.process;
    if (spec.load_pattern != "point") label += "-" + spec.load_pattern;
    if (spec.workload != "static") label += "-" + spec.workload;
    if (spec.switch_mode != "never") label += "-sw_" + spec.switch_mode;
    if (spec.speeds != "uniform") label += "-" + spec.speeds;
    if (spec.policy == "prevent") label += "-prevent";
    if (spec.rng_version != 1) label += "-rng" + std::to_string(spec.rng_version);
    label += "-s" + std::to_string(spec.seed);
    return label;
}

std::int64_t campaign_spec::expected_count() const
{
    std::int64_t count = 1;
    for (const auto& [key, values] : axes) {
        if (values.empty())
            throw std::invalid_argument("campaign: empty sweep axis '" + key + "'");
        count *= static_cast<std::int64_t>(values.size());
        if (count > 1000000)
            throw std::invalid_argument("campaign: expansion exceeds 1e6 scenarios");
    }
    return count;
}

std::vector<scenario_spec> expand(const campaign_spec& spec)
{
    const std::int64_t count = spec.expected_count();

    // Validate axis field names up front, and every name a scenario will
    // carry (each swept value, else the base value) once, so a typo fails
    // before any work.
    for (const auto& [key, values] : spec.axes) {
        scenario_spec probe = spec.base;
        set_field(probe, key, values.front());
    }
    for (const auto& [field, names] : value_names()) {
        const auto axis = spec.axes.find(field);
        if (axis == spec.axes.end())
            check_name(field, names, spec.base.*name_member(field));
        else
            for (const std::string& value : axis->second)
                check_name(field, names, value);
    }

    std::vector<scenario_spec> out;
    out.reserve(static_cast<std::size_t>(count));

    std::vector<const std::pair<const std::string, std::vector<std::string>>*>
        axes;
    axes.reserve(spec.axes.size());
    for (const auto& axis : spec.axes) axes.push_back(&axis);

    std::vector<std::size_t> index(axes.size(), 0);
    for (;;) {
        scenario_spec scenario = spec.base;
        for (std::size_t a = 0; a < axes.size(); ++a)
            set_field(scenario, axes[a]->first, axes[a]->second[index[a]]);
        out.push_back(std::move(scenario));

        // Odometer increment, last axis fastest.
        std::size_t a = axes.size();
        while (a > 0) {
            if (++index[a - 1] < axes[a - 1]->second.size()) break;
            index[a - 1] = 0;
            --a;
        }
        if (a == 0) break;
    }
    return out;
}

std::uint64_t spec_hash(const campaign_spec& spec)
{
    // FNV-1a over the canonical serialization. Field separators ('\x1f' unit
    // separator between tokens, '\x1e' between sections) keep adjacent
    // values from colliding ("ab"+"c" vs "a"+"bc").
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto feed = [&hash](const std::string& text) {
        for (const unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ULL;
        }
        hash ^= 0x1f;
        hash *= 0x100000001b3ULL;
    };
    const auto section = [&hash] {
        hash ^= 0x1e;
        hash *= 0x100000001b3ULL;
    };

    feed(spec.name);
    section();
    for (const std::string& field : field_names())
        feed(get_field(spec.base, field));
    section();
    for (const auto& [key, values] : spec.axes) {
        feed(key);
        for (const std::string& value : values) feed(value);
        section();
    }
    return hash;
}

std::vector<std::string> split_list(const std::string& csv)
{
    std::vector<std::string> out;
    std::string::size_type begin = 0;
    while (begin <= csv.size()) {
        const auto comma = csv.find(',', begin);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        const std::string item = trim(csv.substr(begin, end - begin));
        if (!item.empty()) out.push_back(item);
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    return out;
}

shard_part parse_shard(const std::string& text)
{
    // Every failure names the --shard flag (the PR 5 full-token parsing
    // contract): a bad token in a long launch script should point straight
    // at the argument to fix, not at an internal key.
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
        throw std::invalid_argument("--shard: expected i/N, got '" + text +
                                    "'");
    shard_part shard;
    shard.index = parse_full_int64(trim(text.substr(0, slash)),
                                   "--shard: bad index in '" + text + "'");
    shard.count = parse_full_int64(trim(text.substr(slash + 1)),
                                   "--shard: bad count in '" + text + "'");
    if (shard.count < 1)
        throw std::invalid_argument("--shard: count must be >= 1, got '" +
                                    text + "'");
    if (shard.index < 0 || shard.index >= shard.count)
        throw std::invalid_argument(
            "--shard: index " + std::to_string(shard.index) +
            " out of range for count " + std::to_string(shard.count));
    return shard;
}

campaign_spec parse_campaign(std::istream& in)
{
    campaign_spec spec;
    std::string line;
    int line_number = 0;
    std::int64_t seed_count = 0; // "seeds" shorthand, applied after the parse
                                 // so a later "seed = N" line still counts
    while (std::getline(in, line)) {
        ++line_number;
        const auto comment = line.find('#');
        if (comment != std::string::npos) line.resize(comment);
        const std::string text = trim(line);
        if (text.empty()) continue;
        const auto eq = text.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("campaign file line " +
                                        std::to_string(line_number) +
                                        ": expected key = value");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key == "name") {
            spec.name = value;
        } else if (key.rfind("sweep.", 0) == 0) {
            const std::string field = key.substr(6);
            const auto values = split_list(value);
            if (values.empty())
                throw std::invalid_argument("campaign file line " +
                                            std::to_string(line_number) +
                                            ": empty sweep list");
            spec.axes[field] = values;
        } else if (key == "seeds") {
            seed_count = parse_int(key, value);
            if (seed_count < 1)
                throw std::invalid_argument("campaign file: seeds must be >= 1");
        } else {
            set_field(spec.base, key, value);
        }
    }
    if (seed_count > 0) {
        // Shorthand: sweep the seed over base.seed .. base.seed + N - 1.
        std::vector<std::string> values;
        values.reserve(static_cast<std::size_t>(seed_count));
        for (std::int64_t s = 0; s < seed_count; ++s)
            values.push_back(
                std::to_string(spec.base.seed + static_cast<std::uint64_t>(s)));
        spec.axes["seed"] = std::move(values);
    }
    return spec;
}

campaign_spec parse_campaign_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("campaign: cannot open spec file " + path);
    return parse_campaign(in);
}

} // namespace dlb::campaign
