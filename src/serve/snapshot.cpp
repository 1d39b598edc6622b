#include "serve/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/memo.hpp"

namespace stellar::serve
{

namespace
{

namespace json = util::json;

[[noreturn]] void
fail(const std::string &what)
{
    throw FatalError("design-memo snapshot: " + what);
}

std::string
checksumHex(const std::string &payload)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)util::fnv1a(payload));
    return buffer;
}

std::string
serializeEntries(const accel::DesignPointMemo &memo)
{
    std::string out = "[";
    bool first = true;
    memo.forEach([&](const std::string &key,
                     const accel::DseCandidate &candidate) {
        if (!first)
            out += ",";
        first = false;
        const IntMatrix &m = candidate.transform.matrix();
        out += "{\"key\":" + json::quote(key);
        out += ",\"candidate\":{\"name\":" +
               json::quote(candidate.transform.name());
        out += ",\"rows\":" + std::to_string(m.rows());
        out += ",\"cols\":" + std::to_string(m.cols());
        out += ",\"matrix\":[";
        for (int r = 0; r < m.rows(); r++)
            for (int c = 0; c < m.cols(); c++) {
                if (r != 0 || c != 0)
                    out += ",";
                out += std::to_string(m.at(r, c));
            }
        out += "]";
        out += ",\"enum_index\":" + std::to_string(candidate.enumIndex);
        out += ",\"pes\":" + std::to_string(candidate.pes);
        out += ",\"wires\":" + std::to_string(candidate.wires);
        out += ",\"wire_length\":" + std::to_string(candidate.wireLength);
        out += ",\"schedule_length\":" +
               std::to_string(candidate.scheduleLength);
        out += ",\"fmax_mhz\":" + json::serializeDouble(candidate.fmaxMhz);
        out += ",\"area_um2\":" + json::serializeDouble(candidate.areaUm2);
        out += ",\"score\":" + json::serializeDouble(candidate.score);
        out += "}}";
    });
    out += "]";
    return out;
}

const json::Value &
member(const json::Value &object, const std::string &key)
{
    const json::Value *value = object.find(key);
    if (value == nullptr)
        fail("missing field '" + key + "'");
    return *value;
}

std::int64_t
intMember(const json::Value &object, const std::string &key)
{
    return json::toInt64(member(object, key), "design-memo snapshot: ",
                         key);
}

double
numberMember(const json::Value &object, const std::string &key)
{
    const json::Value &value = member(object, key);
    if (!value.isNumber())
        fail("'" + key + "' must be a number");
    return value.number;
}

} // namespace

std::string
serializeSnapshot(const accel::DesignPointMemo &memo)
{
    std::string entries = serializeEntries(memo);
    std::string out = "{\"version\":" + std::to_string(kSnapshotVersion);
    out += ",\"kind\":\"stellar-design-memo\"";
    out += ",\"checksum\":" + json::quote(checksumHex(entries));
    out += ",\"entries\":" + entries;
    out += "}";
    return out;
}

std::size_t
loadSnapshot(accel::DesignPointMemo &memo, const std::string &text)
{
    json::Value root = json::parse(text, "design-memo snapshot");
    if (!root.isObject())
        fail("snapshot must be an object");
    const json::Value *kind = root.find("kind");
    if (kind == nullptr || !kind->isString() ||
        kind->string != "stellar-design-memo")
        fail("not a stellar-design-memo file");
    std::int64_t version = intMember(root, "version");
    if (version != kSnapshotVersion)
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(kSnapshotVersion) + ")");

    // Re-serialize the parsed entries and compare checksums: any byte
    // that changed a value anywhere in the payload is caught here,
    // before a single entry is admitted to the memo.
    const json::Value &entries = member(root, "entries");
    if (!entries.isArray())
        fail("'entries' must be an array");
    std::string canonical = json::serialize(entries);
    const json::Value &checksum = member(root, "checksum");
    if (!checksum.isString() ||
        checksum.string != checksumHex(canonical))
        fail("checksum mismatch (file damaged or hand-edited)");

    // Validate every entry fully before inserting any, so a bad entry
    // can never leave the memo half-loaded.
    std::vector<std::pair<std::string, accel::DseCandidate>> loaded;
    loaded.reserve(entries.array.size());
    for (const json::Value &entry : entries.array) {
        if (!entry.isObject())
            fail("entry must be an object");
        const json::Value &key = member(entry, "key");
        if (!key.isString() || key.string.empty())
            fail("entry key must be a nonempty string");
        const json::Value &body = member(entry, "candidate");
        if (!body.isObject())
            fail("'candidate' must be an object");
        int rows = int(intMember(body, "rows"));
        int cols = int(intMember(body, "cols"));
        if (rows <= 0 || cols <= 0 || rows > 16 || cols > 16)
            fail("implausible matrix shape " + std::to_string(rows) +
                 "x" + std::to_string(cols));
        const json::Value &cells = member(body, "matrix");
        if (!cells.isArray() ||
            cells.array.size() != std::size_t(rows) * std::size_t(cols))
            fail("matrix must carry rows*cols cells");
        IntMatrix matrix(rows, cols);
        std::size_t at = 0;
        for (int r = 0; r < rows; r++)
            for (int c = 0; c < cols; c++)
                matrix.at(r, c) = json::toInt64(
                        cells.array[at++],
                        "design-memo snapshot: matrix cell");
        const json::Value &name = member(body, "name");
        if (!name.isString())
            fail("'name' must be a string");
        // The transform constructor re-validates invertibility; a
        // corrupted matrix dies here as a classified error.
        accel::DseCandidate candidate;
        candidate.transform = dataflow::SpaceTimeTransform(
                std::move(matrix), name.string);
        candidate.enumIndex =
                std::size_t(intMember(body, "enum_index"));
        candidate.pes = intMember(body, "pes");
        candidate.wires = intMember(body, "wires");
        candidate.wireLength = intMember(body, "wire_length");
        candidate.scheduleLength = intMember(body, "schedule_length");
        candidate.fmaxMhz = numberMember(body, "fmax_mhz");
        candidate.areaUm2 = numberMember(body, "area_um2");
        candidate.score = numberMember(body, "score");
        loaded.emplace_back(key.string, std::move(candidate));
    }
    for (auto &[entry_key, candidate] : loaded)
        memo.insert(entry_key, std::move(candidate));
    return loaded.size();
}

void
saveSnapshotFile(const accel::DesignPointMemo &memo,
                 const std::string &path)
{
    std::string text = serializeSnapshot(memo);
    std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            fail("cannot write " + temp);
        out << text;
        if (!out.flush())
            fail("short write to " + temp);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        fail("cannot rename " + temp + " to " + path);
}

std::size_t
loadSnapshotFile(accel::DesignPointMemo &memo, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0; // no snapshot yet: a normal cold start
    std::ostringstream text;
    text << in.rdbuf();
    return loadSnapshot(memo, text.str());
}

std::string
corruptSnapshot(std::string text, SnapshotCorruption mode)
{
    switch (mode) {
      case SnapshotCorruption::TruncateTail:
        text.resize(text.size() / 2);
        return text;
      case SnapshotCorruption::FlipByte: {
        // Flip a digit inside the entries payload so the document
        // still parses but the checksum no longer matches.
        std::size_t at = text.find("\"entries\":");
        for (at = at == std::string::npos ? 0 : at; at < text.size();
             at++) {
            if (text[at] >= '0' && text[at] <= '8') {
                text[at] = char(text[at] + 1);
                return text;
            }
        }
        return text;
      }
      case SnapshotCorruption::VersionBump: {
        std::size_t at = text.find("\"version\":");
        if (at != std::string::npos)
            text.replace(at, 10, "\"version\":9");
        return text;
      }
      case SnapshotCorruption::ChecksumClobber: {
        std::size_t at = text.find("\"checksum\":\"");
        if (at != std::string::npos)
            text[at + 12] = text[at + 12] == '0' ? '1' : '0';
        return text;
      }
      case SnapshotCorruption::GarbageHeader:
        return "\x7f" "ELF not json at all" + text;
    }
    return text;
}

} // namespace stellar::serve
