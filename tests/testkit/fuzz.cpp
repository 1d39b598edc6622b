#include "testkit/fuzz.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "accel/analytic.hpp"
#include "accel/pipeline.hpp"
#include "accel/records.hpp"
#include "accel/report.hpp"
#include "core/accelerator.hpp"
#include "core/spatial_array.hpp"
#include "dataflow/enumerate.hpp"
#include "dataflow/transform.hpp"
#include "func/library.hpp"
#include "model/area.hpp"
#include "model/params.hpp"
#include "model/timing.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/outerspace.hpp"
#include "sparse/matrix.hpp"
#include "sparse/matrix_market.hpp"
#include "testkit/oracles.hpp"
#include "util/fault_inject.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/watchdog.hpp"

namespace stellar::fuzz
{

using namespace util;

namespace
{

/** splitmix64-style mix: iteration i of seed s is always the same
 *  input, so (domain, seed) alone reproduces any finding. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t iteration)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (iteration + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Outcome of one replay: success, or a classified failure. */
struct EvalOutcome
{
    bool ok = true;
    Failure failure;
};

IntMatrix
randomMatrix(Rng &rng, int rows, int cols, std::int64_t max_coeff)
{
    IntMatrix matrix(rows, cols);
    for (int r = 0; r < rows; r++)
        for (int c = 0; c < cols; c++)
            matrix.at(r, c) = rng.nextRange(-max_coeff, max_coeff);
    return matrix;
}

func::FunctionalSpec
randomFunctional(Rng &rng, std::string &label)
{
    switch (rng.nextBounded(4)) {
      case 0:
        label = "matmul";
        return func::matmulSpec();
      case 1:
        label = "matadd";
        return func::matAddSpec();
      case 2: {
        std::int64_t kh = rng.nextRange(1, 3);
        std::int64_t kw = rng.nextRange(1, 3);
        label = "conv" + std::to_string(kh) + "x" + std::to_string(kw);
        return func::convSpec(kh, kw);
      }
      default:
        label = "merge";
        return func::mergeSpec();
    }
}

IntVec
randomBounds(Rng &rng, int index_count)
{
    // Mostly well-formed; sometimes the wrong arity, zero, negative, or
    // oversized — exactly the shapes a hostile caller can hand in.
    std::size_t len = std::size_t(index_count);
    if (rng.nextBool(0.1))
        len = std::size_t(rng.nextBounded(7));
    IntVec bounds(len);
    for (auto &bound : bounds) {
        if (rng.nextBool(0.08))
            bound = 0;
        else if (rng.nextBool(0.08))
            bound = rng.nextRange(-4, -1);
        else if (rng.nextBool(0.05))
            bound = rng.nextRange(7, 12);
        else
            bound = rng.nextRange(1, 6);
    }
    return bounds;
}

EvalOutcome
evaluateSpecInput(Rng &rng, const FuzzOptions &options, std::string &input)
{
    std::string label;
    auto functional = randomFunctional(rng, label);
    int indices = functional.numIndices();
    int rows = indices, cols = indices;
    if (rng.nextBool(0.05))
        rows = int(rng.nextBounded(std::uint64_t(indices) + 2));
    if (rng.nextBool(0.05))
        cols = int(rng.nextBounded(std::uint64_t(indices) + 2));
    IntMatrix matrix = randomMatrix(rng, rows, cols, 3);
    IntVec bounds = randomBounds(rng, indices);
    input = "spec " + label + "\nbounds " + vecToString(bounds) +
            "\ntransform\n" + matrix.toString();

    WatchdogScope guard("fuzz.spec", options.stepBudget,
                        options.timeBudgetMillis);
    dataflow::SpaceTimeTransform transform(std::move(matrix), "fuzz");
    core::AcceleratorSpec spec;
    spec.name = "fuzz";
    spec.functional = functional;
    spec.transform = transform;
    spec.elaborationBounds = bounds;
    accel::PipelineSpec pipeline;
    pipeline.name = "fuzz";
    pipeline.stages.push_back(spec);
    auto result = accel::generatePipelineIsolated(pipeline,
                                                  options.stepBudget);
    if (!result.ok()) {
        EvalOutcome outcome;
        outcome.ok = false;
        outcome.failure = result.failures.front().failure;
        return outcome;
    }
    // The generated stages must also survive the analytic models.
    model::AreaParams area_params;
    model::TimingParams timing_params;
    for (const auto &stage : result.pipeline.stages) {
        double area = model::arrayArea(area_params, stage, 8, 8, true);
        auto timing = model::timingOf(timing_params, stage, false);
        if (!(area >= 0.0) || !(timing.fmaxMhz() > 0.0))
            throw std::logic_error(
                    "fuzz property violated: non-physical model output "
                    "(area " + std::to_string(area) + ", fmax " +
                    std::to_string(timing.fmaxMhz()) + " MHz)");
    }
    return {};
}

EvalOutcome
evaluateTransformInput(Rng &rng, const FuzzOptions &options,
                       std::string &input)
{
    int n = 1 + int(rng.nextBounded(4));
    int rows = n, cols = n;
    if (rng.nextBool(0.15))
        rows = int(rng.nextBounded(5));
    if (rng.nextBool(0.15))
        cols = int(rng.nextBounded(5));
    std::int64_t max_coeff = rng.nextBool(0.1) ? 9 : 3;
    IntMatrix matrix = randomMatrix(rng, rows, cols, max_coeff);
    input = "transform\n" + matrix.toString();

    WatchdogScope guard("fuzz.transform", options.stepBudget,
                        options.timeBudgetMillis);
    dataflow::SpaceTimeTransform transform(matrix, "fuzz");
    // Survived validation: the algebra must now be self-consistent.
    // Property breaches throw std::logic_error deliberately — an
    // *unclassified* kind — so they surface as violations, not as
    // silently tolerated "classified" outcomes.
    if (!matrix.isInvertible())
        throw std::logic_error("fuzz property violated: transform "
                               "accepted a singular matrix");
    IntVec point(std::size_t(matrix.cols()));
    for (auto &x : point)
        x = rng.nextRange(-5, 5);
    IntVec space_time = matrix * point;
    auto recovered = transform.invert(space_time);
    if (!recovered.has_value() || *recovered != point)
        throw std::logic_error("fuzz property violated: T^-1(T(x)) != x "
                               "for " + vecToString(point));

    // Analytic-tier oracle: for a square transform whose rank matches
    // one of the library specs, the closed-form probe must agree with
    // the elaborated array *exactly* — equal PE count and schedule
    // length — or flag itself `saturated`. Any silent disagreement is
    // the bug class the DSE's analytic tier cannot tolerate (a wrong
    // closed form would rank the space against phantom designs), so it
    // surfaces as an unclassified violation with a repro.
    int d = transform.dims();
    if (d >= 1 && d <= 4) {
        auto library = [d]() -> std::pair<func::FunctionalSpec,
                                          const char *> {
            switch (d) {
              case 1: return {func::mergeSpec(), "merge"};
              case 2: return {func::matAddSpec(), "matadd"};
              case 3: return {func::matmulSpec(), "matmul"};
              default: return {func::convSpec(2, 2), "conv"};
            }
        };
        auto [functional, label] = library();
        IntVec bounds(std::size_t(d), 0);
        for (auto &bound : bounds)
            bound = rng.nextRange(2, 5);
        input += "oracle " + std::string(label) + " bounds " +
                 vecToString(bounds) + "\n";
        core::IterationSpace space = core::elaborate(functional, bounds);
        auto probe = accel::analyticProbe(transform, bounds, space);
        if (!probe.saturated) {
            core::SpatialArray array = core::applyTransform(space,
                                                            transform);
            if (array.numPes() != probe.pes ||
                array.scheduleLength() != probe.scheduleLength) {
                throw std::logic_error(
                        "fuzz property violated: analytic probe "
                        "disagrees with elaboration (pes " +
                        std::to_string(probe.pes) + " vs " +
                        std::to_string(array.numPes()) + ", steps " +
                        std::to_string(probe.scheduleLength) + " vs " +
                        std::to_string(array.scheduleLength()) + ")");
            }
        }
    }
    return {};
}

/**
 * The Enumerate domain: hostile EnumerateOptions (degenerate and
 * asymmetric coefficient windows, hop lengths from 0 to absurd, limits
 * from 0 to 2^40, broadcast and orbit toggles, every thread count)
 * against two oracles. First, the streamed scan must be byte-identical
 * to the pre-streaming serial oracle — names, matrices, and its own
 * stats accounting (codesExamined == orbitSkipped + feasibilitySkipped +
 * decoded). Second, the orbit-canonicalization completeness
 * property: every code the scan skips as non-canonical that *would*
 * pass the filters must decode to a signature some retained canonical
 * representative already yielded — i.e. skipping it lost nothing.
 * Property breaches throw std::logic_error (deliberately unclassified)
 * so they surface as violations with a seeded repro.
 */
EvalOutcome
evaluateEnumerateInput(Rng &rng, const FuzzOptions &options,
                       std::string &input)
{
    std::string label;
    auto functional = randomFunctional(rng, label);
    int n = functional.numIndices();

    dataflow::EnumerateOptions eopt;
    // Window sized so the examine-every-code oracle and the orbit
    // completeness re-scan stay affordable: range^(n^2) caps near 64k.
    std::int64_t max_range = n >= 4 ? 2 : (n == 3 ? 3 : 9);
    std::int64_t range =
            2 + std::int64_t(rng.nextBounded(std::uint64_t(max_range) - 1));
    if (range % 2 == 1 && rng.nextBool(0.6))
        eopt.minCoeff = -(range / 2); // symmetric: sign orbits active
    else
        eopt.minCoeff = rng.nextRange(-range, 1);
    eopt.maxCoeff = eopt.minCoeff + range - 1;
    if (rng.nextBool(0.05))
        eopt.maxCoeff = eopt.minCoeff; // degenerate: must classify
    eopt.maxHopLength = rng.nextBool(0.1) ? rng.nextRange(0, 1 << 20)
                                          : rng.nextRange(1, 4);
    eopt.allowBroadcast = rng.nextBool(0.5);
    eopt.orbitCanonical = !rng.nextBool(0.15);
    static const std::size_t kLimits[] = {0, 1, 2, 7, 100, 4096,
                                          std::size_t(1) << 40};
    eopt.limit = kLimits[rng.nextBounded(std::size(kLimits))];
    eopt.threads = 1 + std::size_t(rng.nextBounded(4));
    input = "enumerate " + label + " coeff [" +
            std::to_string(eopt.minCoeff) + "," +
            std::to_string(eopt.maxCoeff) + "] hop " +
            std::to_string(eopt.maxHopLength) + " limit " +
            std::to_string(eopt.limit) + " threads " +
            std::to_string(eopt.threads) +
            (eopt.allowBroadcast ? "" : " no-broadcast") +
            (eopt.orbitCanonical ? "" : " no-orbit") + "\n";

    WatchdogScope guard("fuzz.enumerate", options.stepBudget,
                        options.timeBudgetMillis);
    auto oracle = testkit::enumerateTransformsOracle(functional, eopt);
    dataflow::EnumerateStats stats;
    auto streamed = testkit::collectTransforms(functional, eopt, &stats);
    if (streamed.size() != oracle.size())
        throw std::logic_error(
                "fuzz property violated: streamed scan yielded " +
                std::to_string(streamed.size()) + " transforms, oracle " +
                std::to_string(oracle.size()));
    for (std::size_t i = 0; i < streamed.size(); i++) {
        if (streamed[i].name() != oracle[i].name() ||
            streamed[i].matrix() != oracle[i].matrix())
            throw std::logic_error(
                    "fuzz property violated: streamed transform " +
                    std::to_string(i) + " (" + streamed[i].name() +
                    ") differs from the oracle's (" + oracle[i].name() +
                    ")");
    }
    if (stats.codesExamined != stats.orbitSkipped +
                                       stats.feasibilitySkipped +
                                       stats.decoded ||
        stats.feasibilitySkipped < 0 ||
        stats.decoded !=
                stats.rejected + stats.duplicates + stats.yielded ||
        stats.yielded != std::int64_t(streamed.size()))
        throw std::logic_error(
                "fuzz property violated: enumeration stats do not "
                "account for the scan (examined " +
                std::to_string(stats.codesExamined) + ", orbit-skipped " +
                std::to_string(stats.orbitSkipped) +
                ", feasibility-skipped " +
                std::to_string(stats.feasibilitySkipped) + ", decoded " +
                std::to_string(stats.decoded) + ", rejected " +
                std::to_string(stats.rejected) + ", duplicates " +
                std::to_string(stats.duplicates) + ", yielded " +
                std::to_string(stats.yielded) + ")");

    // Orbit completeness, checked against the *unlimited* scan so the
    // canonical-signature set is total, over every code in the space.
    auto full = eopt;
    full.threads = 1;
    full.limit = std::size_t(1) << 40;
    dataflow::detail::CandidateDecoder decoder(functional, full);
    std::int64_t total = decoder.codesTotal();
    if (eopt.orbitCanonical && total <= 70000) {
        std::set<std::vector<std::int64_t>> canonical;
        dataflow::forEachTransform(
                functional, full,
                [&](const dataflow::EnumeratedTransform &item) {
                    canonical.insert(item.signature);
                    return true;
                });
        for (std::int64_t code = 0; code < total; code++) {
            if (decoder.canonical(code) || !decoder.decode(code))
                continue;
            if (!canonical.count(decoder.signature()))
                throw std::logic_error(
                        "fuzz property violated: orbit-skipped code " +
                        std::to_string(code) +
                        " passes the filters but no retained canonical "
                        "representative shares its signature");
        }
    }
    return {};
}

/**
 * Records domain: scan a tiny sharded sweep into real ShardRecords
 * documents, then attack the codec. A clean round-trip must be exact
 * (serialize(parse(text)) == text) and the full partition must merge;
 * every deterministic corruption mode must be *rejected*; a forged
 * record code under a fresh checksum must merge byte-identically or be
 * rejected; arbitrary byte-level mutilations and merge misuse (a
 * dropped or duplicated shard file) may fail, but only as classified
 * failures — an unclassified throw, or a corruption mode or one-byte
 * flip that parses, is the violation. Property breaches throw
 * std::logic_error (deliberately unclassified) so they surface with a
 * seeded repro.
 */
EvalOutcome
evaluateRecordsInput(Rng &rng, const FuzzOptions &options,
                     std::string &input)
{
    accel::ShardConfig config;
    config.dim = 2 + std::int64_t(rng.nextBounded(3));
    config.maxHop = 1 + std::int64_t(rng.nextBounded(2));
    config.maxCoeff = 1;
    config.topK = 1 + std::int64_t(rng.nextBounded(8));
    config.analyticTopK = 1 + std::int64_t(rng.nextBounded(6));
    static const std::int64_t kLimits[] = {1, 2, 7, 100, 4096};
    config.enumLimit = kLimits[rng.nextBounded(std::size(kLimits))];
    if (rng.nextBool(0.3))
        config.maxPes = config.dim * config.dim;
    std::int64_t shard_count = 1 + std::int64_t(rng.nextBounded(3));
    std::int64_t victim = std::int64_t(
            rng.nextBounded(std::uint64_t(shard_count)));
    std::uint64_t attack = rng.nextBounded(11);
    input = "records dim " + std::to_string(config.dim) + " hop " +
            std::to_string(config.maxHop) + " shards " +
            std::to_string(shard_count) + " victim " +
            std::to_string(victim) + " attack " +
            std::to_string(attack) + "\n";

    WatchdogScope guard("fuzz.records", options.stepBudget,
                        options.timeBudgetMillis);
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto functional = func::matmulSpec();
    IntVec bounds = {config.dim, config.dim, config.dim};
    std::vector<accel::ShardRecords> shards;
    for (std::int64_t i = 0; i < shard_count; i++)
        shards.push_back(accel::scanShard(functional, bounds, config, i,
                                          shard_count, 1, area_params,
                                          timing_params));
    std::string text = accel::serializeShardRecords(
            shards[std::size_t(victim)]);

    // Merge a set; returns its ranking and stats as comparable text.
    auto mergeAll = [&](std::vector<accel::ShardRecords> set) {
        accel::MergeEvalOptions eval;
        eval.threads = 1;
        accel::DseStats stats;
        std::string out;
        for (const auto &candidate : accel::mergeShardRecords(
                     std::move(set), functional, bounds, eval,
                     area_params, timing_params, &stats))
            out += candidate.transform.matrix().toString() + " " +
                   std::to_string(candidate.enumIndex) + " " +
                   util::json::serializeDouble(candidate.score) + "\n";
        return out + accel::dseStatsReport(stats, false);
    };

    if (attack == 0) {
        // Clean path: exact round-trip, and the full partition merges.
        auto parsed = accel::parseShardRecords(text);
        if (accel::serializeShardRecords(parsed) != text)
            throw std::logic_error(
                    "fuzz property violated: shard records round-trip "
                    "is not byte-exact");
        mergeAll(shards);
        return {};
    }
    if (attack <= 5) {
        // Each deterministic corruption mode must be rejected.
        static const accel::RecordsCorruption kModes[] = {
                accel::RecordsCorruption::TruncateTail,
                accel::RecordsCorruption::FlipByte,
                accel::RecordsCorruption::VersionBump,
                accel::RecordsCorruption::ChecksumClobber,
                accel::RecordsCorruption::GarbageHeader,
        };
        auto mode = kModes[attack - 1];
        std::string damaged = accel::corruptShardRecords(text, mode);
        try {
            accel::parseShardRecords(damaged);
        } catch (...) {
            // Rejection is the required outcome — report it classified
            // so an Unknown rejection still surfaces as a violation.
            EvalOutcome outcome;
            outcome.ok = false;
            outcome.failure = classifyException(
                    std::current_exception(), "fuzz.records",
                    "corruption mode " + std::to_string(attack - 1));
            return outcome;
        }
        throw std::logic_error(
                "fuzz property violated: corrupted shard records "
                "(mode " + std::to_string(attack - 1) + ") parsed");
    }
    if (attack == 6 || attack == 7) {
        // Arbitrary mutilation: flip one byte or excise a span. The
        // header is literal but for the version and checksum digits,
        // and the checksum covers the payload's raw bytes, so no
        // mutation re-spells a valid document. A one-byte flip cannot
        // even collide — each FNV-1a step is a bijection of the hash —
        // so it must be rejected; an excision is rejected unless its
        // checksum collides. Either way a throw must classify.
        std::size_t at = std::size_t(
                rng.nextBounded(std::uint64_t(text.size())));
        if (attack == 6)
            text[at] = char(text[at] ^ (1 + rng.nextBounded(255)));
        else
            text.erase(at, 1 + std::size_t(rng.nextBounded(64)));
        accel::parseShardRecords(text); // throws classified or succeeds
        if (attack == 6)
            throw std::logic_error(
                    "fuzz property violated: shard records with one "
                    "flipped byte parsed");
        return {};
    }
    if (attack == 8 && !shards[std::size_t(victim)].records.empty()) {
        // Forged code: rewrite one record's code to a code between its
        // predecessor's and its own, then re-checksum, so the document
        // parses (a record's examined and decoded counts are derived
        // from its code, and its stored duplicates_after stays in
        // order) and only the merge can catch it. Every such code but
        // the original is non-canonical, filtered out, or a repeat of a
        // signature the shard yielded earlier (else the scan would have
        // recorded it), so the set merges byte-identically — the code
        // is unchanged or lies past the enum limit — or is rejected
        // classified, by the re-decode or by the rejected count the
        // merge derives for the moved code.
        const std::string clean = mergeAll(shards);
        auto &shard = shards[std::size_t(victim)];
        std::size_t at = std::size_t(
                rng.nextBounded(std::uint64_t(shard.records.size())));
        accel::CandidateRecord &record = shard.records[at];
        std::int64_t lo = at == 0 ? shard.range.lo
                                  : shard.records[at - 1].code + 1;
        record.code = lo + std::int64_t(rng.nextBounded(
                                   std::uint64_t(record.code - lo + 1)));
        shard = accel::parseShardRecords(
                accel::serializeShardRecords(shard));
        if (mergeAll(shards) != clean)
            throw std::logic_error(
                    "fuzz property violated: a forged record code merged "
                    "to a different ranking");
        return {};
    }
    if (attack == 9 && shard_count > 1) {
        // Merge misuse: drop one shard file — classified rejection.
        auto partial = shards;
        partial.erase(partial.begin() + std::ptrdiff_t(victim));
        mergeAll(std::move(partial));
        throw std::logic_error(
                "fuzz property violated: merge accepted an incomplete "
                "shard set");
    }
    if (shard_count > 1) {
        // Merge misuse: duplicate a shard file — classified rejection.
        auto doubled = shards;
        doubled[std::size_t((victim + 1) % shard_count)] =
                shards[std::size_t(victim)];
        mergeAll(std::move(doubled));
        throw std::logic_error(
                "fuzz property violated: merge accepted a duplicated "
                "shard range");
    }
    mergeAll(shards); // single shard: nothing to misuse; must succeed
    return {};
}

std::string
randomMatrixMarketText(Rng &rng)
{
    sparse::CooMatrix coo;
    coo.rows = std::int64_t(1 + rng.nextBounded(24));
    coo.cols = std::int64_t(1 + rng.nextBounded(24));
    std::size_t entries = std::size_t(rng.nextBounded(40));
    for (std::size_t e = 0; e < entries; e++) {
        sparse::CooEntry entry;
        entry.row = std::int64_t(rng.nextBounded(std::uint64_t(coo.rows)));
        entry.col = std::int64_t(rng.nextBounded(std::uint64_t(coo.cols)));
        entry.value = rng.nextGaussian(0.0, 4.0);
        coo.entries.push_back(entry);
    }
    coo.canonicalize();
    std::ostringstream os;
    sparse::writeMatrixMarket(os, sparse::cooToCsr(coo));
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        lines.push_back(current);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

/** One structured or raw mutation of a Matrix Market text. */
std::string
mutateMatrixMarketText(Rng &rng, std::string text)
{
    std::uint64_t which = rng.nextBounded(12);
    if (which < 5)
        return fault::corruptMatrixMarket(text,
                                          fault::MtxCorruption(which));
    std::vector<std::string> lines = splitLines(text);
    switch (which) {
      case 5: // flip one byte to a random printable character
        if (!text.empty()) {
            std::size_t at = std::size_t(rng.nextBounded(text.size()));
            text[at] = char(' ' + rng.nextBounded(95));
        }
        return text;
      case 6: { // splice a hostile token into a random line
        static const char *kTokens[] = {
                "nan", "inf", "-inf", "1e308", "-1e308",
                "999999999999999999999", "-7", "0x10", "1.5.5",
        };
        if (lines.empty())
            return text;
        std::size_t at = std::size_t(rng.nextBounded(lines.size()));
        lines[at] += ' ';
        lines[at] += kTokens[rng.nextBounded(std::size(kTokens))];
        return joinLines(lines);
      }
      case 7: // duplicate a line
        if (!lines.empty()) {
            std::size_t at = std::size_t(rng.nextBounded(lines.size()));
            lines.insert(lines.begin() + std::ptrdiff_t(at), lines[at]);
        }
        return joinLines(lines);
      case 8: // delete a line
        if (!lines.empty())
            lines.erase(lines.begin() +
                        std::ptrdiff_t(rng.nextBounded(lines.size())));
        return joinLines(lines);
      case 9: // claim symmetry the entries may not satisfy
        for (auto &line : lines) {
            auto at = line.find("general");
            if (at != std::string::npos) {
                line.replace(at, 7, "symmetric");
                break;
            }
        }
        return joinLines(lines);
      case 10: // truncate mid-byte
        return text.substr(0, rng.nextBounded(text.size() + 1));
      default: // oversized (but representable) size header
        for (std::size_t i = 1; i < lines.size(); i++) {
            if (!lines[i].empty() && lines[i][0] != '%') {
                lines[i] = std::to_string(rng.nextRange(1, 999999)) + " " +
                           std::to_string(rng.nextRange(1, 999999)) + " 2";
                break;
            }
        }
        return joinLines(lines);
    }
}

/** Default MatrixMarket replay: parse, convert, simulate — bounded. */
void
defaultMtxOracle(const std::string &text)
{
    std::istringstream in(text);
    sparse::CsrMatrix csr = sparse::readMatrixMarket(in);
    if (csr.rows() > 4096 || csr.cols() > 4096 || csr.nnz() > 4096)
        return; // parsed fine; skip heavyweight downstream consumption
    auto csc = sparse::csrToCsc(csr);
    if (csc.nnz() != csr.nnz())
        throw std::logic_error("fuzz property violated: csrToCsc changed "
                               "nnz");
    if (csr.rows() == csr.cols() && csr.rows() <= 512 &&
        csr.nnz() <= 512) {
        sim::OuterSpaceConfig config;
        config.multipliers = 16;
        config.mergeLanes = 8;
        config.workGroups = 4;
        auto result = sim::simulateOuterSpace(config, csr);
        if (result.cycles < 0 || result.multiplies < 0)
            throw std::logic_error("fuzz property violated: negative "
                                   "simulated cycle/multiply count");
    }
}

void
evaluateMtxText(const FuzzOptions &options, const std::string &text)
{
    WatchdogScope guard("fuzz.mtx", options.stepBudget,
                        options.timeBudgetMillis);
    if (options.mtxOracle)
        options.mtxOracle(text);
    else
        defaultMtxOracle(text);
}

/** True when `text` still classifies to Unknown (the minimizer oracle). */
bool
mtxStillUnknown(const FuzzOptions &options, const std::string &text)
{
    try {
        evaluateMtxText(options, text);
        return false;
    } catch (...) {
        return classifyException(std::current_exception()).kind ==
               FailureKind::Unknown;
    }
}

/**
 * Bounded private server for the Request domain: hostile requests may
 * *ask* for anything, but parse-time caps and server-side budget clamps
 * keep each admitted one small enough for a single fuzz iteration.
 */
serve::ServeOptions
fuzzServeOptions(const FuzzOptions &options)
{
    serve::ServeOptions sopt;
    sopt.maxStepBudget = options.stepBudget;
    sopt.maxTimeBudgetMillis = options.timeBudgetMillis;
    sopt.limits.maxBytes = 64 << 10;
    sopt.limits.maxDim = 5;
    sopt.limits.maxThreads = 4;
    sopt.limits.maxTopK = 64;
    return sopt;
}

EvalOutcome
evaluateRequestInput(serve::Server &server, const FuzzOptions &options,
                     Rng &rng, std::string &input)
{
    input = randomServeRequestText(rng, /*allow_shutdown=*/false);
    std::string reply = options.requestOracle
                                ? options.requestOracle(input)
                                : server.handleRequestText(input);
    serve::Response response;
    try {
        response = serve::parseResponse(reply);
    } catch (const std::exception &err) {
        // Deliberately unclassified: an unparseable response is itself
        // the invariant breach, so it must surface as a violation.
        throw std::logic_error(
                "fuzz property violated: unparseable serve response (" +
                std::string(err.what()) + ")");
    }
    if (response.status != serve::Status::Error)
        return {}; // ok / overloaded / shutting_down: all well-formed
    EvalOutcome outcome;
    outcome.ok = false;
    outcome.failure = response.failure;
    return outcome;
}

std::string
dumpRepro(const std::string &repro_dir, const FuzzViolation &violation)
{
    std::filesystem::create_directories(repro_dir);
    std::ostringstream name;
    name << "fuzz-" << fuzzDomainName(violation.domain) << "-iter"
         << violation.iteration << "-seed" << std::hex << violation.seed
         << (violation.domain == FuzzDomain::MatrixMarket ? ".mtx"
                                                          : ".txt");
    std::filesystem::path path =
            std::filesystem::path(repro_dir) / name.str();
    std::ofstream out(path);
    require(out.good(),
            "fuzz: cannot open repro file " + path.string());
    // Verbatim: a .mtx repro must reparse byte-for-byte (no metadata
    // header — the banner has to stay on line 1). Domain, iteration,
    // and seed live in the file name and the report.
    out << violation.input;
    require(bool(out.flush()),
            "fuzz: failed writing repro file " + path.string());
    return path.string();
}

} // namespace

const char *
fuzzDomainName(FuzzDomain domain)
{
    switch (domain) {
      case FuzzDomain::Spec: return "spec";
      case FuzzDomain::Transform: return "transform";
      case FuzzDomain::MatrixMarket: return "mtx";
      case FuzzDomain::Request: return "request";
      case FuzzDomain::Enumerate: return "enumerate";
      case FuzzDomain::Records: return "records";
    }
    return "unknown";
}

std::string
randomServeRequestText(Rng &rng, bool allow_shutdown)
{
    auto chooseInt = [&](std::initializer_list<std::int64_t> common,
                         std::initializer_list<std::int64_t> hostile) {
        const auto &list = rng.nextBool(0.2) ? hostile : common;
        auto it = list.begin();
        std::advance(it, std::ptrdiff_t(rng.nextBounded(list.size())));
        return *it;
    };
    auto numField = [&](const char *name, std::int64_t value) {
        return ",\"" + std::string(name) +
               "\":" + std::to_string(value);
    };

    // A structured request first: mostly valid, with hostile values
    // sprinkled in so the schema gauntlet sees realistic near-misses
    // (absurd dims, zero budgets, unknown and wrong-typed fields).
    std::string text;
    std::uint64_t command = rng.nextBounded(10);
    if (allow_shutdown && command == 9) {
        text = "{\"command\":\"shutdown\"}";
    } else if (command >= 7) {
        text = "{\"command\":\"stats\"";
        if (rng.nextBool(0.1))
            text += ",\"threads\":1"; // unknown for stats: must reject
        text += "}";
    } else if (command >= 3) {
        text = "{\"command\":\"dse\"";
        if (rng.nextBool(0.9))
            text += numField("dim",
                             chooseInt({2, 3, 4, 5}, {0, -2, 64, 100000}));
        if (rng.nextBool(0.6))
            text += numField("threads", chooseInt({1, 2, 4}, {0, 999}));
        if (rng.nextBool(0.5))
            text += numField("topk", chooseInt({1, 5, 10}, {0, 1000000}));
        if (rng.nextBool(0.3))
            text += numField("max_pes", chooseInt({0, 64, 4096}, {-5}));
        if (rng.nextBool(0.3))
            text += numField("analytic_top_k",
                             chooseInt({0, 16}, {-1, 1000000}));
        if (rng.nextBool(0.5))
            text += numField("step_budget",
                             chooseInt({0, 200000},
                                       {1, -7, 1000000000000000LL,
                                        9223372036854775807LL,
                                        -9223372036854775807LL - 1}));
        if (rng.nextBool(0.4))
            text += numField("time_budget_ms",
                             chooseInt({0, 1000}, {1, -3}));
        if (rng.nextBool(0.25))
            text += ",\"retry_wall_clock\":true";
        if (rng.nextBool(0.2))
            text += ",\"fail_fast\":true";
        if (rng.nextBool(0.2))
            text += ",\"timings\":false";
        if (rng.nextBool(0.08))
            text += ",\"bogus\":1";
        if (rng.nextBool(0.06))
            text += ",\"dim\":\"eight\"";
        text += "}";
    } else {
        text = "{\"command\":\"sim\"";
        if (rng.nextBool(0.9)) {
            static const char *kWorkloads[] = {"scnn", "scnn",
                                               "outerspace", "bogus", ""};
            text += ",\"workload\":\"" +
                    std::string(kWorkloads[rng.nextBounded(
                            std::size(kWorkloads))]) +
                    "\"";
        }
        if (rng.nextBool(0.6))
            text += numField("threads", chooseInt({1, 2, 4}, {0, 999}));
        if (rng.nextBool(0.5))
            text += numField("step_budget",
                             chooseInt({0, 200000}, {1, -7}));
        if (rng.nextBool(0.4))
            text += numField("time_budget_ms",
                             chooseInt({0, 1000}, {1, -3}));
        if (rng.nextBool(0.08))
            text += ",\"dim\":4"; // a dse-only field: must reject
        text += "}";
    }
    if (!rng.nextBool(0.4))
        return text;

    // The rest are textual attacks on the wire format itself.
    switch (rng.nextBounded(7)) {
      case 0: // flip one byte to anything
        if (!text.empty())
            text[rng.nextBounded(text.size())] =
                    char(rng.nextBounded(256));
        return text;
      case 1: // truncate mid-token
        return text.substr(0, rng.nextBounded(text.size() + 1));
      case 2: { // splice a hostile token at a random position
        static const char *kTokens[] = {
                "nan", "1e999", "0x10", "\"", "{", "}", "[", "]", ":",
                ",", "\\u0041", "999999999999999999999999",
                // int64 boundary: INT64_MAX strtod-rounds to exactly
                // 2^63, which the parser must reject, never convert.
                "9223372036854775807", "9223372036854775808",
                "-9223372036854775808", "-9223372036854775809",
        };
        std::size_t at = rng.nextBounded(text.size() + 1);
        return text.substr(0, at) + kTokens[rng.nextBounded(
                                            std::size(kTokens))] +
               text.substr(at);
      }
      case 3: { // raw garbage bytes (including NULs)
        std::string garbage(1 + rng.nextBounded(48), '\0');
        for (auto &c : garbage)
            c = char(rng.nextBounded(256));
        return garbage;
      }
      case 4: // deep nesting (the parser's depth cap)
        return std::string(std::size_t(rng.nextRange(8, 300)), '[');
      case 5: // oversize padding (the wire / parse byte caps)
        return text + std::string(128 << 10, ' ');
      default: // empty or whitespace-only
        return rng.nextBool(0.5)
                       ? std::string()
                       : std::string(1 + rng.nextBounded(8), ' ');
    }
}

std::string
FuzzReport::toString() const
{
    std::ostringstream os;
    os << "fuzz: " << iterations << " iterations, " << succeeded << " ok";
    for (std::size_t k = 0; k < kFailureKindCount; k++)
        os << ", " << outcomes[k] << " "
           << failureKindName(FailureKind(k));
    os << ", " << violations.size()
       << (violations.size() == 1 ? " violation" : " violations");
    return os.str();
}

std::string
minimizeLines(const std::string &input,
              const std::function<bool(const std::string &)> &still_fails)
{
    std::vector<std::string> lines = splitLines(input);
    // Greedy ddmin over line chunks with a hard oracle-call cap, so a
    // pathological oracle can never wedge the harness.
    std::size_t calls_left = 512;
    std::size_t chunk = std::max<std::size_t>(1, lines.size() / 2);
    while (calls_left > 0) {
        bool removed = false;
        for (std::size_t start = 0;
             start < lines.size() && calls_left > 0;) {
            std::size_t len = std::min(chunk, lines.size() - start);
            std::vector<std::string> candidate;
            candidate.reserve(lines.size() - len);
            candidate.insert(candidate.end(), lines.begin(),
                             lines.begin() + std::ptrdiff_t(start));
            candidate.insert(candidate.end(),
                             lines.begin() + std::ptrdiff_t(start + len),
                             lines.end());
            calls_left--;
            if (still_fails(joinLines(candidate))) {
                lines = std::move(candidate);
                removed = true;
            } else {
                start += len;
            }
        }
        if (chunk > 1)
            chunk /= 2;
        else if (!removed)
            break;
    }
    return joinLines(lines);
}

FuzzReport
runFuzz(const FuzzOptions &options)
{
    FuzzOptions opt = options;
    if (opt.domains.empty())
        opt.domains = {FuzzDomain::Spec,      FuzzDomain::Transform,
                       FuzzDomain::MatrixMarket, FuzzDomain::Request,
                       FuzzDomain::Enumerate, FuzzDomain::Records};
    // The Request domain's target: one private in-process server shared
    // across the run (so a state-poisoning request surfaces in later
    // iterations), created lazily on first use.
    std::unique_ptr<serve::Server> server;
    FuzzReport report;
    report.iterations = opt.iterations;
    for (std::size_t i = 0; i < opt.iterations; i++) {
        FuzzDomain domain = opt.domains[i % opt.domains.size()];
        std::uint64_t iter_seed = mixSeed(opt.seed, i);
        Rng rng(iter_seed);
        std::string input;
        EvalOutcome outcome;
        try {
            switch (domain) {
              case FuzzDomain::Spec:
                outcome = evaluateSpecInput(rng, opt, input);
                break;
              case FuzzDomain::Transform:
                outcome = evaluateTransformInput(rng, opt, input);
                break;
              case FuzzDomain::MatrixMarket:
                input = mutateMatrixMarketText(
                        rng, randomMatrixMarketText(rng));
                evaluateMtxText(opt, input);
                break;
              case FuzzDomain::Request:
                if (!server)
                    server = std::make_unique<serve::Server>(
                            fuzzServeOptions(opt));
                outcome = evaluateRequestInput(*server, opt, rng, input);
                break;
              case FuzzDomain::Enumerate:
                outcome = evaluateEnumerateInput(rng, opt, input);
                break;
              case FuzzDomain::Records:
                outcome = evaluateRecordsInput(rng, opt, input);
                break;
            }
        } catch (...) {
            outcome.ok = false;
            outcome.failure = classifyException(
                    std::current_exception(),
                    std::string("fuzz.") + fuzzDomainName(domain),
                    "iter#" + std::to_string(i));
        }
        if (outcome.ok) {
            report.succeeded++;
            continue;
        }
        report.outcomes[std::size_t(outcome.failure.kind)]++;
        if (outcome.failure.kind != FailureKind::Unknown)
            continue; // classified: an acceptable outcome by contract
        FuzzViolation violation;
        violation.domain = domain;
        violation.iteration = i;
        violation.seed = iter_seed;
        violation.failure = outcome.failure;
        violation.input = input;
        if (domain == FuzzDomain::MatrixMarket && opt.minimize &&
            !input.empty())
            violation.input = minimizeLines(
                    input, [&](const std::string &candidate) {
                        return mtxStillUnknown(opt, candidate);
                    });
        if (!opt.reproDir.empty())
            violation.reproPath = dumpRepro(opt.reproDir, violation);
        report.violations.push_back(std::move(violation));
    }
    return report;
}

} // namespace stellar::fuzz
