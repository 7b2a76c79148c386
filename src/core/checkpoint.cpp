#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/cumulative_baseline.hpp"
#include "util/rng.hpp"
#include "util/tempfile.hpp"

namespace dlb {

namespace {

// ---- byte-level serialization ----------------------------------------------
//
// Fields are written little-endian byte by byte, so the format is identical
// on any host. Doubles travel as their IEEE-754 bit patterns (exact
// round-trip; NaN/inf payloads preserved — the negative-load minima start
// at +inf).

class byte_writer {
public:
    void u8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }

    void u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            out_.push_back(static_cast<char>((value >> shift) & 0xff));
    }

    void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

    void i32(std::int32_t value)
    {
        const auto bits = static_cast<std::uint32_t>(value);
        for (int shift = 0; shift < 32; shift += 8)
            out_.push_back(static_cast<char>((bits >> shift) & 0xff));
    }

    void f64(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void flag(bool value) { u8(value ? 1 : 0); }

    void vec_i64(const std::vector<std::int64_t>& values)
    {
        u64(values.size());
        for (const std::int64_t value : values) i64(value);
    }

    void vec_f64(const std::vector<double>& values)
    {
        u64(values.size());
        for (const double value : values) f64(value);
    }

    const std::string& bytes() const noexcept { return out_; }

private:
    std::string out_;
};

class byte_reader {
public:
    explicit byte_reader(std::string_view data) : data_(data) {}

    std::uint8_t u8(const char* field)
    {
        need(1, field);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint64_t u64(const char* field)
    {
        need(8, field);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= static_cast<std::uint64_t>(
                         static_cast<std::uint8_t>(data_[pos_++]))
                     << shift;
        return value;
    }

    std::int64_t i64(const char* field)
    {
        return static_cast<std::int64_t>(u64(field));
    }

    std::int32_t i32(const char* field)
    {
        need(4, field);
        std::uint32_t bits = 0;
        for (int shift = 0; shift < 32; shift += 8)
            bits |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(data_[pos_++]))
                    << shift;
        return static_cast<std::int32_t>(bits);
    }

    double f64(const char* field)
    {
        const std::uint64_t bits = u64(field);
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    bool flag(const char* field)
    {
        const std::uint8_t value = u8(field);
        if (value > 1)
            throw std::runtime_error(std::string("checkpoint: field ") + field +
                                     " is not a boolean");
        return value == 1;
    }

    std::vector<std::int64_t> vec_i64(const char* field)
    {
        const std::uint64_t count = length(8, field);
        std::vector<std::int64_t> values(count);
        for (auto& value : values) value = i64(field);
        return values;
    }

    std::vector<double> vec_f64(const char* field)
    {
        const std::uint64_t count = length(8, field);
        std::vector<double> values(count);
        for (auto& value : values) value = f64(field);
        return values;
    }

    void expect_done() const
    {
        if (pos_ != data_.size())
            throw std::runtime_error(
                "checkpoint: trailing bytes after the last field");
    }

private:
    // A vector length must fit in the remaining payload before anything is
    // allocated, so a corrupt length fails fast instead of bad_alloc-ing.
    std::uint64_t length(std::uint64_t element_size, const char* field)
    {
        const std::uint64_t count = u64(field);
        if (count > (data_.size() - pos_) / element_size)
            throw std::runtime_error(
                std::string("checkpoint: truncated while reading ") + field);
        return count;
    }

    void need(std::size_t count, const char* field) const
    {
        if (pos_ + count > data_.size())
            throw std::runtime_error(
                std::string("checkpoint: truncated while reading ") + field);
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

std::uint64_t fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

// ---- section serializers ----------------------------------------------------

void write_negative(byte_writer& out, const negative_load_stats& stats)
{
    out.f64(stats.min_end_of_round_load);
    out.f64(stats.min_transient_load);
    out.i64(stats.rounds_with_negative_end_load);
    out.i64(stats.rounds_with_negative_transient);
}

negative_load_stats read_negative(byte_reader& in)
{
    negative_load_stats stats;
    stats.min_end_of_round_load = in.f64("negative.min_end_of_round_load");
    stats.min_transient_load = in.f64("negative.min_transient_load");
    stats.rounds_with_negative_end_load =
        in.i64("negative.rounds_with_negative_end_load");
    stats.rounds_with_negative_transient =
        in.i64("negative.rounds_with_negative_transient");
    return stats;
}

void write_scheme(byte_writer& out, const checkpoint_scheme_state& scheme)
{
    out.i32(scheme.kind);
    out.f64(scheme.beta);
    out.f64(scheme.lambda);
    out.i64(scheme.rounds_in_scheme);
    out.f64(scheme.omega);
}

checkpoint_scheme_state read_scheme(byte_reader& in)
{
    checkpoint_scheme_state scheme;
    scheme.kind = in.i32("scheme.kind");
    if (scheme.kind < 0 || scheme.kind > 2)
        throw std::runtime_error("checkpoint: scheme kind " +
                                 std::to_string(scheme.kind) +
                                 " outside the known range 0..2");
    scheme.beta = in.f64("scheme.beta");
    scheme.lambda = in.f64("scheme.lambda");
    scheme.rounds_in_scheme = in.i64("scheme.rounds_in_scheme");
    if (scheme.rounds_in_scheme < 0)
        throw std::runtime_error("checkpoint: negative rounds_in_scheme");
    scheme.omega = in.f64("scheme.omega");
    return scheme;
}

void write_continuous(byte_writer& out, const continuous_engine_state& state)
{
    out.vec_f64(state.load);
    out.vec_f64(state.previous_flows);
    out.i64(state.round);
    write_scheme(out, state.scheme);
    out.f64(state.initial_total);
    out.f64(state.external_total);
    write_negative(out, state.negative);
}

continuous_engine_state read_continuous(byte_reader& in)
{
    continuous_engine_state state;
    state.load = in.vec_f64("continuous load vector");
    state.previous_flows = in.vec_f64("continuous previous-flows vector");
    state.round = in.i64("continuous round");
    state.scheme = read_scheme(in);
    state.initial_total = in.f64("continuous initial_total");
    state.external_total = in.f64("continuous external_total");
    state.negative = read_negative(in);
    return state;
}

void write_discrete(byte_writer& out, const discrete_engine_state& state)
{
    out.vec_i64(state.load);
    out.vec_i64(state.previous_flows);
    out.i64(state.round);
    write_scheme(out, state.scheme);
    out.i64(state.initial_total);
    out.i64(state.external_total);
    out.i64(state.clipped_tokens);
    write_negative(out, state.negative);
}

discrete_engine_state read_discrete(byte_reader& in)
{
    discrete_engine_state state;
    state.load = in.vec_i64("discrete load vector");
    state.previous_flows = in.vec_i64("discrete previous-flows vector");
    state.round = in.i64("discrete round");
    state.scheme = read_scheme(in);
    state.initial_total = in.i64("discrete initial_total");
    state.external_total = in.i64("discrete external_total");
    state.clipped_tokens = in.i64("discrete clipped_tokens");
    state.negative = read_negative(in);
    return state;
}

void write_cumulative(byte_writer& out, const cumulative_engine_state& state)
{
    write_continuous(out, state.twin);
    out.vec_i64(state.load);
    out.vec_f64(state.cumulative_continuous);
    out.vec_i64(state.cumulative_discrete);
    out.i64(state.round);
    out.i64(state.initial_total);
    out.i64(state.external_total);
    write_negative(out, state.negative);
}

cumulative_engine_state read_cumulative(byte_reader& in)
{
    cumulative_engine_state state;
    state.twin = read_continuous(in);
    state.load = in.vec_i64("cumulative load vector");
    state.cumulative_continuous = in.vec_f64("cumulative continuous counters");
    state.cumulative_discrete = in.vec_i64("cumulative discrete counters");
    state.round = in.i64("cumulative round");
    state.initial_total = in.i64("cumulative initial_total");
    state.external_total = in.i64("cumulative external_total");
    state.negative = read_negative(in);
    return state;
}

void write_runner(byte_writer& out, const runner_checkpoint_state& state)
{
    out.vec_i64(state.rounds);
    out.vec_f64(state.max_minus_average);
    out.vec_f64(state.max_local_difference);
    out.vec_f64(state.potential_over_n);
    out.vec_f64(state.min_load);
    out.vec_f64(state.min_transient_load);
    out.vec_f64(state.total_load_error);
    out.i64(state.switch_round);
    out.i64(state.total_injected);
    out.i64(state.total_drained);
    out.flag(state.hybrid_switched);
    out.i64(state.hybrid_switch_round);
    out.i64(state.tracker.count);
    out.i64(state.tracker.last_improvement);
    out.f64(state.tracker.best);
    out.flag(state.tracker.converged);
    out.vec_f64(state.tracker.trailing);
    out.f64(state.baseline_total);
    out.f64(state.ideal_basis);
    out.flag(state.ideal_stale);
}

runner_checkpoint_state read_runner(byte_reader& in)
{
    runner_checkpoint_state state;
    state.rounds = in.vec_i64("series rounds");
    state.max_minus_average = in.vec_f64("series max_minus_average");
    state.max_local_difference = in.vec_f64("series max_local_difference");
    state.potential_over_n = in.vec_f64("series potential_over_n");
    state.min_load = in.vec_f64("series min_load");
    state.min_transient_load = in.vec_f64("series min_transient_load");
    state.total_load_error = in.vec_f64("series total_load_error");
    const std::size_t rows = state.rounds.size();
    if (state.max_minus_average.size() != rows ||
        state.max_local_difference.size() != rows ||
        state.potential_over_n.size() != rows ||
        state.min_load.size() != rows ||
        state.min_transient_load.size() != rows ||
        state.total_load_error.size() != rows)
        throw std::runtime_error(
            "checkpoint: recorded series columns have mismatched lengths");
    state.switch_round = in.i64("series switch_round");
    state.total_injected = in.i64("series total_injected");
    state.total_drained = in.i64("series total_drained");
    state.hybrid_switched = in.flag("hybrid switched");
    state.hybrid_switch_round = in.i64("hybrid switch_round");
    state.tracker.count = in.i64("tracker count");
    state.tracker.last_improvement = in.i64("tracker last_improvement");
    state.tracker.best = in.f64("tracker best");
    state.tracker.converged = in.flag("tracker converged");
    state.tracker.trailing = in.vec_f64("tracker trailing window");
    state.baseline_total = in.f64("runner baseline_total");
    state.ideal_basis = in.f64("runner ideal_basis");
    state.ideal_stale = in.flag("runner ideal_stale");
    return state;
}

std::int64_t engine_section_round(const engine_checkpoint& checkpoint)
{
    switch (checkpoint.engine) {
    case checkpoint_engine::discrete:
        return checkpoint.discrete.round;
    case checkpoint_engine::continuous:
        return checkpoint.continuous.round;
    case checkpoint_engine::cumulative:
        return checkpoint.cumulative.round;
    }
    return -1;
}

// Shared by the engines' restore_checkpoint: turns the serialized scheme
// back into validated scheme_params.
scheme_params scheme_from_state(const checkpoint_scheme_state& state)
{
    if (state.kind < 0 || state.kind > 2)
        throw std::invalid_argument("checkpoint: scheme kind " +
                                    std::to_string(state.kind) +
                                    " outside the known range 0..2");
    if (state.rounds_in_scheme < 0)
        throw std::invalid_argument("checkpoint: negative rounds_in_scheme");
    const scheme_params scheme{static_cast<scheme_kind>(state.kind),
                               state.beta, state.lambda};
    validate_scheme(scheme);
    return scheme;
}

void check_size(std::size_t have, std::size_t want, const char* what)
{
    if (have == want) return;
    throw std::invalid_argument(std::string("checkpoint: ") + what + " has " +
                                std::to_string(have) +
                                " entries but the engine expects " +
                                std::to_string(want));
}

} // namespace

std::string_view to_string(checkpoint_engine kind) noexcept
{
    switch (kind) {
    case checkpoint_engine::discrete:
        return "discrete";
    case checkpoint_engine::continuous:
        return "continuous";
    case checkpoint_engine::cumulative:
        return "cumulative";
    }
    return "unknown";
}

std::uint64_t checkpoint_rng_check(std::int32_t rng_version_wire,
                                   std::uint64_t seed, std::int64_t round)
{
    const auto round_word = static_cast<std::uint64_t>(round);
    if (rng_version_wire == 1) return stream_for(seed, 0, round_word)();
    if (rng_version_wire == 2) return draw_u64(seed, 0, round_word, 0);
    throw std::invalid_argument("checkpoint: rng_version must be 1 or 2, got " +
                                std::to_string(rng_version_wire));
}

std::string serialize_checkpoint(const engine_checkpoint& checkpoint)
{
    byte_writer payload;
    payload.u64(checkpoint.spec_hash);
    payload.i64(checkpoint.scenario_index);
    payload.i32(checkpoint.rng_version);
    payload.u64(checkpoint.seed);
    payload.u64(checkpoint.rng_check);
    payload.i32(static_cast<std::int32_t>(checkpoint.engine));
    payload.i32(checkpoint.rounding);
    payload.i32(checkpoint.policy);
    payload.i64(checkpoint.round);
    payload.i64(checkpoint.record_every);
    switch (checkpoint.engine) {
    case checkpoint_engine::discrete:
        write_discrete(payload, checkpoint.discrete);
        break;
    case checkpoint_engine::continuous:
        write_continuous(payload, checkpoint.continuous);
        break;
    case checkpoint_engine::cumulative:
        write_cumulative(payload, checkpoint.cumulative);
        break;
    default:
        throw std::invalid_argument("checkpoint: unknown engine kind " +
                                    std::to_string(static_cast<std::int32_t>(
                                        checkpoint.engine)));
    }
    write_runner(payload, checkpoint.runner);

    std::string out;
    out.reserve(kCheckpointHeader.size() + 1 + payload.bytes().size() + 8);
    out.append(kCheckpointHeader);
    out.push_back('\n');
    out.append(payload.bytes());
    byte_writer checksum;
    checksum.u64(fnv1a(payload.bytes()));
    out.append(checksum.bytes());
    return out;
}

engine_checkpoint parse_checkpoint(std::string_view bytes)
{
    const std::size_t header_size = kCheckpointHeader.size() + 1;
    if (bytes.size() < header_size ||
        bytes.substr(0, kCheckpointHeader.size()) != kCheckpointHeader ||
        bytes[kCheckpointHeader.size()] != '\n')
        throw std::runtime_error(
            "checkpoint: missing '# dlb checkpoint v1' header (not a "
            "checkpoint file, or an incompatible format version)");
    if (bytes.size() < header_size + 8)
        throw std::runtime_error(
            "checkpoint: truncated before the payload checksum");

    const std::string_view payload =
        bytes.substr(header_size, bytes.size() - header_size - 8);
    byte_reader trailer(bytes.substr(bytes.size() - 8));
    if (trailer.u64("checksum") != fnv1a(payload))
        throw std::runtime_error(
            "checkpoint: payload checksum mismatch (corrupt or truncated "
            "snapshot); refusing to resume");

    byte_reader in(payload);
    engine_checkpoint checkpoint;
    checkpoint.spec_hash = in.u64("spec_hash");
    checkpoint.scenario_index = in.i64("scenario_index");
    checkpoint.rng_version = in.i32("rng_version");
    if (checkpoint.rng_version != 1 && checkpoint.rng_version != 2)
        throw std::runtime_error("checkpoint: rng_version must be 1 or 2, got " +
                                 std::to_string(checkpoint.rng_version));
    checkpoint.seed = in.u64("seed");
    checkpoint.rng_check = in.u64("rng_check");
    const std::int32_t engine_wire = in.i32("engine kind");
    if (engine_wire < 0 || engine_wire > 2)
        throw std::runtime_error("checkpoint: engine kind " +
                                 std::to_string(engine_wire) +
                                 " outside the known range 0..2");
    checkpoint.engine = static_cast<checkpoint_engine>(engine_wire);
    checkpoint.rounding = in.i32("rounding");
    if (checkpoint.rounding < 0 || checkpoint.rounding > 3)
        throw std::runtime_error("checkpoint: rounding " +
                                 std::to_string(checkpoint.rounding) +
                                 " outside the known range 0..3");
    checkpoint.policy = in.i32("policy");
    if (checkpoint.policy < 0 || checkpoint.policy > 1)
        throw std::runtime_error("checkpoint: policy " +
                                 std::to_string(checkpoint.policy) +
                                 " outside the known range 0..1");
    checkpoint.round = in.i64("round");
    if (checkpoint.round < 0)
        throw std::runtime_error("checkpoint: negative round index");
    checkpoint.record_every = in.i64("record_every");
    if (checkpoint.record_every < 1)
        throw std::runtime_error("checkpoint: record_every must be >= 1");

    switch (checkpoint.engine) {
    case checkpoint_engine::discrete:
        checkpoint.discrete = read_discrete(in);
        break;
    case checkpoint_engine::continuous:
        checkpoint.continuous = read_continuous(in);
        break;
    case checkpoint_engine::cumulative:
        checkpoint.cumulative = read_cumulative(in);
        break;
    }
    checkpoint.runner = read_runner(in);
    in.expect_done();

    if (checkpoint.rng_check !=
        checkpoint_rng_check(checkpoint.rng_version, checkpoint.seed,
                             checkpoint.round))
        throw std::runtime_error(
            "checkpoint: rng_check mismatch — the stored RNG probe does not "
            "match this build's rng_version " +
            std::to_string(checkpoint.rng_version) +
            " stream for (seed, round); refusing to resume");
    if (engine_section_round(checkpoint) != checkpoint.round)
        throw std::runtime_error(
            "checkpoint: header round " + std::to_string(checkpoint.round) +
            " does not match the engine state round " +
            std::to_string(engine_section_round(checkpoint)));
    if (checkpoint.engine == checkpoint_engine::cumulative &&
        checkpoint.cumulative.twin.round != checkpoint.round)
        throw std::runtime_error(
            "checkpoint: cumulative twin round " +
            std::to_string(checkpoint.cumulative.twin.round) +
            " does not match the engine round " +
            std::to_string(checkpoint.round));
    return checkpoint;
}

void write_checkpoint_file(const std::string& path,
                           const engine_checkpoint& checkpoint)
{
    // Atomic save (util/tempfile.hpp): the destination path always holds a
    // complete old or new snapshot, never a partial write — which is the
    // whole point of checkpointing against crashes.
    write_file_atomic(path, serialize_checkpoint(checkpoint), "checkpoint");
}

engine_checkpoint read_checkpoint_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("checkpoint: cannot read " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        throw std::runtime_error("checkpoint: read failed for " + path);
    try {
        return parse_checkpoint(bytes);
    } catch (const std::runtime_error& failure) {
        throw std::runtime_error(path + ": " + failure.what());
    }
}

// ---- engine save/restore ----------------------------------------------------
//
// The members live here rather than in the engine .cpps so every piece of
// the snapshot contract — what is captured, what is validated — reads in
// one place. Construction parameters (seed, rounding, policy, graph,
// alpha, speeds) are deliberately NOT part of engine state: the caller
// reconstructs the engine from its spec and restores only the evolving
// state, which is what lets measure_windows legally re-seed a restored
// engine.

void continuous_process::save_checkpoint(continuous_engine_state& out) const
{
    out.load.assign(load_.begin(), load_.end());
    out.previous_flows.assign(previous_flows_.begin(), previous_flows_.end());
    out.round = round_;
    out.scheme.kind = static_cast<std::int32_t>(config_.scheme.kind);
    out.scheme.beta = config_.scheme.beta;
    out.scheme.lambda = config_.scheme.lambda;
    out.scheme.rounds_in_scheme = rounds_in_scheme_;
    out.scheme.omega = beta_state_.omega();
    out.initial_total = initial_total_;
    out.external_total = external_total_;
    out.negative = negative_;
}

void continuous_process::restore_checkpoint(const continuous_engine_state& state)
{
    check_size(state.load.size(), load_.size(), "continuous load vector");
    check_size(state.previous_flows.size(), previous_flows_.size(),
               "continuous previous-flows vector");
    if (state.round < 0)
        throw std::invalid_argument("checkpoint: negative engine round");
    const scheme_params scheme = scheme_from_state(state.scheme);

    config_.scheme = scheme;
    std::copy(state.load.begin(), state.load.end(), load_.begin());
    std::copy(state.previous_flows.begin(), state.previous_flows.end(),
              previous_flows_.begin());
    round_ = state.round;
    rounds_in_scheme_ = state.scheme.rounds_in_scheme;
    beta_state_.restore(scheme, state.scheme.rounds_in_scheme,
                        state.scheme.omega);
    initial_total_ = state.initial_total;
    external_total_ = state.external_total;
    negative_ = state.negative;
}

void discrete_process::save_checkpoint(discrete_engine_state& out) const
{
    out.load.assign(load_.begin(), load_.end());
    out.previous_flows.assign(previous_flows_int_.begin(),
                              previous_flows_int_.end());
    out.round = round_;
    out.scheme.kind = static_cast<std::int32_t>(config_.scheme.kind);
    out.scheme.beta = config_.scheme.beta;
    out.scheme.lambda = config_.scheme.lambda;
    out.scheme.rounds_in_scheme = rounds_in_scheme_;
    out.scheme.omega = beta_state_.omega();
    out.initial_total = initial_total_;
    out.external_total = external_total_;
    out.clipped_tokens = clipped_tokens_;
    out.negative = negative_;
}

void discrete_process::restore_checkpoint(const discrete_engine_state& state)
{
    check_size(state.load.size(), load_.size(), "discrete load vector");
    check_size(state.previous_flows.size(), previous_flows_int_.size(),
               "discrete previous-flows vector");
    if (state.round < 0)
        throw std::invalid_argument("checkpoint: negative engine round");
    const scheme_params scheme = scheme_from_state(state.scheme);

    config_.scheme = scheme;
    std::copy(state.load.begin(), state.load.end(), load_.begin());
    std::copy(state.previous_flows.begin(), state.previous_flows.end(),
              previous_flows_int_.begin());
    round_ = state.round;
    rounds_in_scheme_ = state.scheme.rounds_in_scheme;
    beta_state_.restore(scheme, state.scheme.rounds_in_scheme,
                        state.scheme.omega);
    initial_total_ = state.initial_total;
    external_total_ = state.external_total;
    clipped_tokens_ = state.clipped_tokens;
    negative_ = state.negative;
}

void cumulative_process::save_checkpoint(cumulative_engine_state& out) const
{
    continuous_.save_checkpoint(out.twin);
    out.load.assign(load_.begin(), load_.end());
    out.cumulative_continuous.assign(cumulative_continuous_.begin(),
                                     cumulative_continuous_.end());
    out.cumulative_discrete.assign(cumulative_discrete_.begin(),
                                   cumulative_discrete_.end());
    out.round = round_;
    out.initial_total = initial_total_;
    out.external_total = external_total_;
    out.negative = negative_;
}

void cumulative_process::restore_checkpoint(const cumulative_engine_state& state)
{
    check_size(state.load.size(), load_.size(), "cumulative load vector");
    check_size(state.cumulative_continuous.size(),
               cumulative_continuous_.size(),
               "cumulative continuous counters");
    check_size(state.cumulative_discrete.size(), cumulative_discrete_.size(),
               "cumulative discrete counters");
    if (state.round < 0)
        throw std::invalid_argument("checkpoint: negative engine round");
    continuous_.restore_checkpoint(state.twin);

    std::copy(state.load.begin(), state.load.end(), load_.begin());
    std::copy(state.cumulative_continuous.begin(),
              state.cumulative_continuous.end(),
              cumulative_continuous_.begin());
    std::copy(state.cumulative_discrete.begin(),
              state.cumulative_discrete.end(), cumulative_discrete_.begin());
    round_ = state.round;
    initial_total_ = state.initial_total;
    external_total_ = state.external_total;
    negative_ = state.negative;
}

} // namespace dlb
