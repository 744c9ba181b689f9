/**
 * @file
 * The paper-claims ledger: the one place the reproduction states the
 * SpAtten paper's numbers. Each row pairs a paper value with the value
 * this repository measures for it, a tolerance band and a status, plus
 * the function that recomputes the measurement through the library.
 * `bench_paper` prints the rows figure by figure; the `golden` ledger
 * test recomputes every row and checks it against the committed value.
 */
#ifndef SPATTEN_BENCH_PAPER_LEDGER_HPP
#define SPATTEN_BENCH_PAPER_LEDGER_HPP

#include <string>
#include <vector>

namespace spatten {
namespace paper {

/** How a measured value relates to the paper's. */
enum class Status
{
    Match,     ///< Inside the band.
    Explained, ///< Outside the band for a known, documented reason.
    Open,      ///< Outside the band; not yet triaged to a cause.
};

const char* statusName(Status s);

/** One paper claim. */
struct Claim
{
    const char* id;     ///< "<figure>.<name>"; the prefix is its figure.
    const char* where;  ///< Paper location (figure, table or section).
    double paper;       ///< The paper's value, in the units it prints.
    double measured;    ///< Committed measurement; the test recomputes it.
    double tol;         ///< Band: paper * (1 +- tol).
    Status status;
    const char* reason; ///< One line for anything but Match.
    double (*fn)();     ///< Recomputes the measurement.

    double lo() const { return paper * (1.0 - tol); }
    double hi() const { return paper * (1.0 + tol); }
    bool inBand(double v) const { return v >= lo() && v <= hi(); }
    std::string figure() const
    {
        const std::string s(id);
        return s.substr(0, s.find('.'));
    }
};

/** Every claim, grouped by figure. */
const std::vector<Claim>& claims();

/** The claim called @p id; fatal when missing. */
const Claim& claim(const char* id);

/** One `bench_paper --figure` mode. */
struct Figure
{
    const char* name;        ///< `--figure` argument.
    const char* experiment;  ///< Banner heading.
    const char* description; ///< Banner subheading.
    void (*print)();         ///< Its tables beyond its claims, or null.
};

/** Every figure in print order (analytic and trained-model ones). */
const std::vector<Figure>& figures();

/** The figures whose output comes from trained tiny models. */
std::vector<Figure> trainedModelFigures();

} // namespace paper
} // namespace spatten

#endif // SPATTEN_BENCH_PAPER_LEDGER_HPP
