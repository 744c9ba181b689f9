/// The paper driver: prints each figure's tables and its ledger claims
/// (paper value, measured value, band, status) to stdout and writes every
/// printed claim to BENCH_paper.json.
///
///   bench_paper                  all figures
///   bench_paper --figure fig14   one figure (--figure all: every one)
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "paper/ledger.hpp"

namespace {

using namespace spatten;
using namespace spatten::paper;

int
usage(const char* bad)
{
    std::fprintf(stderr,
                 "bench_paper: bad argument or figure '%s'\n"
                 "usage: bench_paper [--figure NAME]; NAME is one of: all",
                 bad);
    for (const Figure& f : figures())
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
}

/** Print one figure; append its claims (with their measurements). */
void
runFigure(const Figure& f, std::vector<std::pair<const Claim*, double>>& out)
{
    bench::banner(f.experiment, f.description);
    if (f.print != nullptr)
        f.print();
    bool header = false;
    for (const Claim& c : claims()) {
        if (c.figure() != f.name)
            continue;
        if (!header) {
            std::printf("\n%-38s %10s %10s %21s  %s\n", "claim", "measured",
                        "paper", "band", "status");
            bench::rule();
            header = true;
        }
        const double v = c.fn();
        out.emplace_back(&c, v);
        std::printf("%-38s %10.4g %10.4g   [%7.4g, %7.4g]  %s\n", c.id, v,
                    c.paper, c.lo(), c.hi(), statusName(c.status));
        if (*c.reason != '\0')
            std::printf("    %s: %s\n", c.where, c.reason);
    }
}

void
writeJson(const std::vector<std::pair<const Claim*, double>>& rows)
{
    std::FILE* f = std::fopen("BENCH_paper.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warn: cannot write BENCH_paper.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"paper\",\n  \"claims\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Claim& c = *rows[i].first;
        std::fprintf(
            f,
            "    {\"id\": \"%s\", \"where\": \"%s\", \"paper\": %.17g, "
            "\"measured\": %.17g, \"committed\": %.17g, \"lo\": %.17g, "
            "\"hi\": %.17g, \"status\": \"%s\", \"in_band\": %s}%s\n",
            c.id, bench::jsonEscape(c.where).c_str(), c.paper,
            rows[i].second, c.measured, c.lo(), c.hi(),
            statusName(c.status), c.inBand(rows[i].second) ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote BENCH_paper.json (%zu claims)\n",
                 rows.size());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string want = "all";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--figure") == 0 && i + 1 < argc)
            want = argv[++i];
        else
            return usage(argv[i]);
    }
    std::vector<std::pair<const Claim*, double>> rows;
    bool found = false;
    for (const Figure& f : figures()) {
        if (want == "all" || want == f.name) {
            runFigure(f, rows);
            found = true;
        }
    }
    if (!found)
        return usage(want.c_str());
    writeJson(rows);
    return 0;
}
