#include "gen/workload_config.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace tstream
{

namespace
{

std::vector<std::string>
splitWhitespace(const std::string &line)
{
    std::vector<std::string> tok;
    std::istringstream in(line);
    std::string t;
    while (in >> t)
        tok.push_back(t);
    return tok;
}

/** Strip a trailing "# ..." comment (tokens are whitespace-split, so
 *  a '#' only opens a comment at the start of a token). */
void
dropComment(std::vector<std::string> &tok)
{
    for (std::size_t i = 0; i < tok.size(); ++i)
        if (tok[i][0] == '#') {
            tok.resize(i);
            return;
        }
}

/** A finite number spelling the whole token (an embedded NUL byte
 *  or "nan" is rejected: NaN passes every range check and never
 *  compares equal after a round trip). */
bool
parseDouble(const std::string &text, double &out)
{
    const char *s = text.c_str();
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end == s + text.size() && end != s && std::isfinite(out);
}

bool
parseCount(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return false;
    const char *s = text.c_str();
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return end == s + text.size() && end != s && errno != ERANGE;
}

/** Shortest decimal form of @p v that strtod()s back to exactly v. */
std::string
formatDouble(double v)
{
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

bool
parseWorkloadKindName(const std::string &name, WorkloadKind &out)
{
    if (name == "kv" || name == "kvstore")
        out = WorkloadKind::KvStore;
    else if (name == "broker" || name == "mq")
        out = WorkloadKind::Broker;
    else if (name == "phased-mix" || name == "phased")
        out = WorkloadKind::PhasedMix;
    else
        return false;
    return true;
}

const char *
configKindName(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::KvStore: return "kv";
      case WorkloadKind::Broker: return "broker";
      default: return "phased-mix";
    }
}

/**
 * Parse one phase record: tok[0] is the phase kind, the rest are
 * key=value parameters. @p timed selects phased-mix rules (duration
 * required) versus standalone-server rules (duration forbidden).
 * On failure @p err carries the diagnostic without a line prefix.
 */
bool
parsePhaseRecord(const std::vector<std::string> &tok, bool timed,
                 WorkloadPhase &out, std::string &err)
{
    if (tok.empty()) {
        err = "phase wants a kind (kv or broker)";
        return false;
    }
    WorkloadKind kind;
    if (!parseWorkloadKindName(tok[0], kind) ||
        kind == WorkloadKind::PhasedMix) {
        err = "unknown phase kind '" + tok[0] +
              "' (want kv or broker)";
        return false;
    }

    bool haveMix = false, haveDist = false, haveDuration = false;
    bool haveTheta = false, haveFrac = false, haveProb = false;
    double mix = 0, theta = 0, frac = 0, prob = 0;
    std::uint64_t duration = 0;
    KeyDistKind dist = KeyDistKind::Zipfian;

    for (std::size_t i = 1; i < tok.size(); ++i) {
        const std::string &t = tok[i];
        const std::size_t eq = t.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= t.size()) {
            err = "malformed parameter '" + t + "' (want key=value)";
            return false;
        }
        const std::string key = t.substr(0, eq);
        const std::string value = t.substr(eq + 1);
        auto once = [&](bool &have) {
            if (have) {
                err = "duplicate parameter '" + key + "'";
                return false;
            }
            have = true;
            return true;
        };
        if (key == "mix") {
            if (!once(haveMix))
                return false;
            if (!parseDouble(value, mix)) {
                err = "bad number '" + value + "' for 'mix'";
                return false;
            }
            if (mix < 0.0 || mix > 1.0) {
                err = "mix must be within [0, 1]";
                return false;
            }
        } else if (key == "dist") {
            if (!once(haveDist))
                return false;
            if (!parseKeyDistName(value, dist)) {
                err = "unknown distribution '" + value +
                      "' (want uniform, zipfian, hotspot or latest)";
                return false;
            }
        } else if (key == "theta") {
            if (!once(haveTheta))
                return false;
            if (!parseDouble(value, theta)) {
                err = "bad number '" + value + "' for 'theta'";
                return false;
            }
            if (theta <= 0.0 || theta >= 2.0) {
                err = "theta must be within (0, 2)";
                return false;
            }
        } else if (key == "frac") {
            if (!once(haveFrac))
                return false;
            if (!parseDouble(value, frac)) {
                err = "bad number '" + value + "' for 'frac'";
                return false;
            }
            if (frac <= 0.0 || frac >= 1.0) {
                err = "frac must be within (0, 1)";
                return false;
            }
        } else if (key == "prob") {
            if (!once(haveProb))
                return false;
            if (!parseDouble(value, prob)) {
                err = "bad number '" + value + "' for 'prob'";
                return false;
            }
            if (prob <= 0.0 || prob >= 1.0) {
                err = "prob must be within (0, 1)";
                return false;
            }
        } else if (key == "duration") {
            if (!once(haveDuration))
                return false;
            if (!parseCount(value, duration) || duration == 0) {
                err = "duration wants a positive instruction count, "
                      "got '" + value + "'";
                return false;
            }
        } else {
            err = "unknown phase parameter '" + key + "'";
            return false;
        }
    }

    if (!haveMix) {
        err = "phase is missing required parameter 'mix'";
        return false;
    }
    if (!haveDist) {
        err = "phase is missing required parameter 'dist'";
        return false;
    }
    const bool zipfLike = dist == KeyDistKind::Zipfian ||
                          dist == KeyDistKind::Latest;
    if (haveTheta && !zipfLike) {
        err = "'theta' applies only to zipfian/latest distributions";
        return false;
    }
    if ((haveFrac || haveProb) && dist != KeyDistKind::Hotspot) {
        err = "'frac'/'prob' apply only to the hotspot distribution";
        return false;
    }
    if (timed && !haveDuration) {
        err = "phased-mix phases want an explicit duration";
        return false;
    }
    if (!timed && haveDuration) {
        err = "'duration' applies only to phased-mix phases";
        return false;
    }

    out = WorkloadPhase{};
    out.kind = kind;
    out.mix = mix;
    out.duration = timed ? duration : 0;
    out.dist = KeyDistSpec{};
    out.dist.kind = dist;
    if (haveTheta)
        out.dist.theta = theta;
    if (haveFrac)
        out.dist.hotFrac = frac;
    if (haveProb)
        out.dist.hotProb = prob;
    return true;
}

std::string
atLine(std::size_t line, const std::string &msg)
{
    return "line " + std::to_string(line) + ": " + msg;
}

} // namespace

bool
WorkloadConfig::loadFromString(const std::string &text,
                               std::string &err)
{
    WorkloadConfig parsed;
    bool haveWorkload = false;

    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::vector<std::string> tok = splitWhitespace(line);
        dropComment(tok);
        if (tok.empty())
            continue;
        if (tok[0] == "workload") {
            if (haveWorkload) {
                err = atLine(lineno, "duplicate 'workload' line");
                return false;
            }
            if (tok.size() != 2) {
                err = atLine(lineno,
                             "'workload' wants exactly one argument");
                return false;
            }
            if (!parseWorkloadKindName(tok[1], parsed.kind)) {
                err = atLine(lineno,
                             "unknown workload kind '" + tok[1] +
                                 "' (want kv, broker or phased-mix)");
                return false;
            }
            haveWorkload = true;
        } else if (tok[0] == "phase") {
            if (!haveWorkload) {
                err = atLine(
                    lineno,
                    "expected a 'workload' line before any phase");
                return false;
            }
            const bool timed = parsed.kind == WorkloadKind::PhasedMix;
            if (!timed && !parsed.schedule.empty()) {
                err = atLine(
                    lineno,
                    std::string("a ") + configKindName(parsed.kind) +
                        " workload takes exactly one phase line");
                return false;
            }
            WorkloadPhase phase;
            std::string perr;
            const std::vector<std::string> rest(tok.begin() + 1,
                                                tok.end());
            if (!parsePhaseRecord(rest, timed, phase, perr)) {
                err = atLine(lineno, perr);
                return false;
            }
            if (!timed && phase.kind != parsed.kind) {
                err = atLine(
                    lineno,
                    std::string("phase kind '") +
                        configKindName(phase.kind) +
                        "' does not match 'workload " +
                        configKindName(parsed.kind) + "'");
                return false;
            }
            parsed.schedule.phases.push_back(phase);
        } else {
            err = atLine(lineno, "unknown directive '" + tok[0] +
                                     "' (want 'workload' or 'phase')");
            return false;
        }
    }

    if (!haveWorkload) {
        err = "config has no 'workload' line";
        return false;
    }
    if (parsed.schedule.empty()) {
        err = "config has no 'phase' lines";
        return false;
    }
    *this = parsed;
    return true;
}

bool
WorkloadConfig::loadFromFile(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = path + ": cannot open workload config";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!loadFromString(ss.str(), err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

std::string
WorkloadConfig::serialize() const
{
    std::string out = "workload ";
    out += configKindName(kind);
    out += "\n";
    for (const WorkloadPhase &p : schedule.phases) {
        out += "phase ";
        out += configKindName(p.kind);
        out += " mix=" + formatDouble(p.mix);
        out += " dist=";
        out += keyDistName(p.dist.kind);
        if (p.dist.kind == KeyDistKind::Zipfian ||
            p.dist.kind == KeyDistKind::Latest)
            out += " theta=" + formatDouble(p.dist.theta);
        if (p.dist.kind == KeyDistKind::Hotspot) {
            out += " frac=" + formatDouble(p.dist.hotFrac);
            out += " prob=" + formatDouble(p.dist.hotProb);
        }
        if (kind == WorkloadKind::PhasedMix)
            out += " duration=" + std::to_string(p.duration);
        out += "\n";
    }
    return out;
}

bool
parsePhasesSpec(const std::string &spec, PhaseSchedule &out,
                std::string &err)
{
    PhaseSchedule parsed;
    std::size_t start = 0, recno = 0;
    for (;;) {
        std::size_t end = spec.find(';', start);
        if (end == std::string::npos)
            end = spec.size();
        ++recno;
        const std::vector<std::string> tok =
            splitWhitespace(spec.substr(start, end - start));
        if (tok.empty()) {
            err = "phase record " + std::to_string(recno) +
                  " is empty (records are separated by ';')";
            return false;
        }
        WorkloadPhase phase;
        std::string perr;
        if (!parsePhaseRecord(tok, /*timed=*/true, phase, perr)) {
            err = "phase record " + std::to_string(recno) + ": " +
                  perr;
            return false;
        }
        parsed.phases.push_back(phase);
        if (end == spec.size())
            break;
        start = end + 1;
    }
    out = parsed;
    return true;
}

} // namespace tstream
