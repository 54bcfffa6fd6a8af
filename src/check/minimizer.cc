#include "check/minimizer.hh"

#include <charconv>
#include <sstream>
#include <string_view>

namespace protozoa::check {

namespace {

const char *
protocolEnumName(ProtocolKind p)
{
    switch (p) {
      case ProtocolKind::MESI: return "ProtocolKind::MESI";
      case ProtocolKind::ProtozoaSW: return "ProtocolKind::ProtozoaSW";
      case ProtocolKind::ProtozoaSWMR:
        return "ProtocolKind::ProtozoaSWMR";
      case ProtocolKind::ProtozoaMW: return "ProtocolKind::ProtozoaMW";
    }
    return "ProtocolKind::MESI";
}

const char *
predictorEnumName(PredictorKind p)
{
    switch (p) {
      case PredictorKind::FullRegion:
        return "PredictorKind::FullRegion";
      case PredictorKind::Fixed: return "PredictorKind::Fixed";
      case PredictorKind::PcSpatial: return "PredictorKind::PcSpatial";
      case PredictorKind::WordOnly: return "PredictorKind::WordOnly";
    }
    return "PredictorKind::WordOnly";
}

} // namespace

std::string
buildRepro(const Scenario &s, ProtocolKind proto, const Violation &v)
{
    std::ostringstream os;
    os << "// protocheck counterexample: " << s.name << " under "
       << protocolName(proto) << "\n";
    os << "// violation [" << v.kind << "]: " << v.detail << "\n";
    os << "// delivery schedule (choice at each quiescent point):\n";
    for (std::size_t i = 0; i < v.steps.size(); ++i)
        os << "//   [" << i << "] choice " << v.schedule[i] << ": "
           << v.steps[i].desc << "\n";
    os << "// The drain() below runs the default delivery order; to\n"
       << "// replay this exact interleaving, pass the schedule to\n"
       << "// check::replaySchedule(scenario, proto, {";
    for (std::size_t i = 0; i < v.schedule.size(); ++i)
        os << (i ? ", " : "") << v.schedule[i];
    os << "}).\n";

    const SystemConfig cfg = s.toConfig(proto);
    os << "SystemConfig cfg;\n";
    os << "cfg.protocol = " << protocolEnumName(proto) << ";\n";
    os << "cfg.predictor = " << predictorEnumName(cfg.predictor) << ";\n";
    if (cfg.predictor == PredictorKind::Fixed)
        os << "cfg.fixedFetchWords = " << cfg.fixedFetchWords << ";\n";
    os << "cfg.numCores = " << cfg.numCores << ";\n";
    os << "cfg.l2Tiles = " << cfg.l2Tiles << ";\n";
    os << "cfg.meshCols = " << cfg.meshCols << ";\n";
    os << "cfg.meshRows = " << cfg.meshRows << ";\n";
    os << "cfg.regionBytes = " << cfg.regionBytes << ";\n";
    os << "cfg.l1Sets = " << cfg.l1Sets << ";\n";
    os << "cfg.l1BytesPerSet = " << cfg.l1BytesPerSet << ";\n";
    os << "cfg.l2BytesPerTile = " << cfg.l2BytesPerTile << ";\n";
    os << "cfg.l2Assoc = " << cfg.l2Assoc << ";\n";
    if (cfg.threeHop)
        os << "cfg.threeHop = true;\n";
    if (cfg.directory == DirectoryKind::TaglessBloom) {
        os << "cfg.directory = DirectoryKind::TaglessBloom;\n";
        os << "cfg.bloomBuckets = " << cfg.bloomBuckets << ";\n";
        os << "cfg.bloomHashes = " << cfg.bloomHashes << ";\n";
    }
    if (cfg.sliceHash == SliceHashKind::Spread)
        os << "cfg.sliceHash = SliceHashKind::Spread;\n";
    if (cfg.debugLostStoreBug)
        os << "cfg.debugLostStoreBug = true;\n";
    // Every other field the explored machine moves off a default
    // SystemConfig, so the repro rebuilds it field for field; only the
    // schedule oracle stays off, since drain() runs the timed order.
    // toConfig pins checkValues, the fault and jitter switches, the
    // watchdog and the seed at their defaults.
    const SystemConfig base;
    const auto moved = [&](const char *name, auto SystemConfig::*field) {
        if (cfg.*field == base.*field)
            return;
        // Shortest text that reads back as the same value.
        char buf[32];
        const char *end =
            std::to_chars(buf, buf + sizeof buf, cfg.*field).ptr;
        os << "cfg." << name << " = " << std::string_view(buf, end - buf)
           << ";\n";
    };
    if (cfg.predictor != PredictorKind::Fixed)
        moved("fixedFetchWords", &SystemConfig::fixedFetchWords);
    if (cfg.directory != DirectoryKind::TaglessBloom) {
        moved("bloomBuckets", &SystemConfig::bloomBuckets);
        moved("bloomHashes", &SystemConfig::bloomHashes);
    }
    moved("l1Latency", &SystemConfig::l1Latency);
    moved("l1GatherPerBlock", &SystemConfig::l1GatherPerBlock);
    moved("l2Latency", &SystemConfig::l2Latency);
    moved("flitBytes", &SystemConfig::flitBytes);
    moved("hopLatency", &SystemConfig::hopLatency);
    moved("flitSerialization", &SystemConfig::flitSerialization);
    moved("memLatency", &SystemConfig::memLatency);
    moved("controlBytes", &SystemConfig::controlBytes);
    moved("faultJitterMax", &SystemConfig::faultJitterMax);
    moved("faultReorderProb", &SystemConfig::faultReorderProb);
    moved("occupancyJitterMax", &SystemConfig::occupancyJitterMax);
    os << "ProtocolDriver d(cfg);\n";
    for (const auto &a : s.accesses) {
        os << "d.issue(" << unsigned(a.core) << ", 0x" << std::hex
           << a.addr << std::dec << ", "
           << (a.isWrite ? "true" : "false");
        if (a.isWrite)
            os << ", 0x" << std::hex << a.value << std::dec;
        os << ");\n";
    }
    os << "d.drain();\n";
    return os.str();
}

std::optional<MinimizeResult>
minimize(const Scenario &s, ProtocolKind proto, const ExploreLimits &lim)
{
    ExploreResult base = explore(s, proto, lim);
    std::uint64_t states = base.statesVisited;
    if (!base.violation)
        return std::nullopt;

    // Greedy single-access removal to a local fixpoint. Any violation
    // in the reduced scenario counts: the goal is the smallest failing
    // program, not necessarily the same failing schedule.
    Scenario cur = s;
    Violation best = *base.violation;
    bool improved = true;
    while (improved && cur.accesses.size() > 1) {
        improved = false;
        for (std::size_t i = 0; i < cur.accesses.size(); ++i) {
            Scenario cand = cur;
            cand.accesses.erase(cand.accesses.begin() +
                                static_cast<std::ptrdiff_t>(i));
            ExploreResult r = explore(cand, proto, lim);
            states += r.statesVisited;
            if (r.violation) {
                cur = std::move(cand);
                best = *r.violation;
                improved = true;
                break;
            }
        }
    }

    // Schedule shrink: the shortest prefix of the found schedule whose
    // canonical completion still fails. The full schedule reproduces
    // by construction, so the loop always terminates with a hit.
    std::vector<unsigned> found = best.schedule;
    std::vector<unsigned> sched = found;
    for (std::size_t len = 0; len <= found.size(); ++len) {
        std::vector<unsigned> prefix(
            found.begin(),
            found.begin() + static_cast<std::ptrdiff_t>(len));
        if (auto v = replaySchedule(cur, proto, prefix)) {
            best = *v;
            sched = prefix;
            break;
        }
    }

    MinimizeResult out;
    out.scenario = std::move(cur);
    out.schedule = std::move(sched);
    out.repro = buildRepro(out.scenario, proto, best);
    out.violation = std::move(best);
    out.statesExplored = states;
    return out;
}

} // namespace protozoa::check
