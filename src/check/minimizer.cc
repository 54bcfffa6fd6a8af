#include "check/minimizer.hh"

#include <sstream>

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

    os << "SystemConfig cfg;\n";
    os << "cfg.protocol = " << protocolEnumName(proto) << ";\n";
    os << "cfg.predictor = " << predictorEnumName(s.predictor) << ";\n";
    if (s.predictor == PredictorKind::Fixed)
        os << "cfg.fixedFetchWords = " << s.fixedFetchWords << ";\n";
    const SystemConfig full = s.toConfig(proto);
    os << "cfg.numCores = " << full.numCores << ";\n";
    os << "cfg.l2Tiles = " << full.l2Tiles << ";\n";
    os << "cfg.meshCols = " << full.meshCols << ";\n";
    os << "cfg.meshRows = " << full.meshRows << ";\n";
    os << "cfg.regionBytes = " << s.regionBytes << ";\n";
    os << "cfg.l1Sets = " << s.l1Sets << ";\n";
    os << "cfg.l1BytesPerSet = " << full.l1BytesPerSet << ";\n";
    os << "cfg.l2BytesPerTile = " << s.l2BytesPerTile << ";\n";
    os << "cfg.l2Assoc = " << s.l2Assoc << ";\n";
    if (s.threeHop)
        os << "cfg.threeHop = true;\n";
    if (s.directory == DirectoryKind::TaglessBloom) {
        os << "cfg.directory = DirectoryKind::TaglessBloom;\n";
        os << "cfg.bloomBuckets = " << s.bloomBuckets << ";\n";
        os << "cfg.bloomHashes = " << s.bloomHashes << ";\n";
    }
    if (s.debugLostStoreBug)
        os << "cfg.debugLostStoreBug = true;\n";
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
