/**
 * @file
 * The paper's 30-benchmark evaluation suite (§V-A): nine GLUE tasks plus
 * SQuAD v1.1/v2.0 on BERT-Base and BERT-Large (22 discriminative
 * benchmarks), and language modeling on Wikitext-2, Wikitext-103, Penn
 * Tree Bank and One-Billion-Word with GPT-2-Small and GPT-2-Medium
 * (8 generative benchmarks).
 *
 * We cannot ship the datasets; each benchmark is represented by its
 * tensor shapes (model config, average dev-set sequence length — the
 * quantity the paper uses to set input length) and the pruning policy
 * the paper's methodology implies (longer inputs -> larger ratios;
 * BERT uses static quantization, GPT-2 progressive).
 */
#ifndef SPATTEN_WORKLOAD_BENCHMARKS_HPP
#define SPATTEN_WORKLOAD_BENCHMARKS_HPP

#include <string>
#include <vector>

#include "core/model_spec.hpp"

namespace spatten {

/** One evaluation benchmark: workload shapes + SpAtten policy. */
struct BenchmarkSpec
{
    WorkloadSpec workload;
    PruningPolicy policy;
    bool generative = false;
};

/** The 22 BERT benchmarks (GLUE x9 + SQuAD x2, Base and Large). */
std::vector<BenchmarkSpec> bertBenchmarks();

/** The 8 GPT-2 benchmarks (4 LM datasets, Small and Medium). The four
 *  datasets of each model share one shape (992-token context, 32
 *  generated tokens, the same policy), so the 8 rows are 2 distinct
 *  results under 8 names, and a GPT-2 average counts each one 4 times. */
std::vector<BenchmarkSpec> gptBenchmarks();

/** All 30 benchmarks in the paper's Fig. 14 order. */
std::vector<BenchmarkSpec> paperBenchmarks();

/** Find a benchmark by name; fatal() when missing. */
const BenchmarkSpec& findBenchmark(const std::vector<BenchmarkSpec>& list,
                                   const std::string& name);

} // namespace spatten

#endif // SPATTEN_WORKLOAD_BENCHMARKS_HPP
