/**
 * @file
 * siopmp_fuzz: differential fuzzer driving random MMIO programming
 * and DMA check streams through SIopmp and the first-principles
 * reference oracle (src/check) in lockstep.
 *
 *   siopmp_fuzz [--cases N] [--wide-cases N] [--ops N] [--seed S]
 *               [--checker linear|tree|pipe-linear|pipe-tree|all]
 *               [--stages N] [--entries N] [--sids N] [--mds N]
 *               [--accel off|plans|default]
 *               [--profile default|churn] [--jobs N]
 *               [--replay CASE] [--inject lock-bypass|block-hole|unbind-drop]
 *               [--trace-out FILE] [--stats-json FILE|-] [--verbose]
 *
 * Default campaign: for every checker kind and stage count (linear,
 * tree, pipe-linear x{2,4}, pipe-tree x{2,4}) run --cases seeded
 * cases on a small dense configuration and --wide-cases on a 128-SID
 * configuration (which exercises multi-word SID blocking). Any
 * divergence is minimized to the shortest op trace that still
 * reproduces, printed with its replay coordinates, and exits 1.
 *
 * --jobs N shards the campaign legs over N worker threads. Every leg
 * is a pure function of (seed, config), so the sharding changes
 * nothing about which cases run — results and exit code are identical
 * to the single-threaded default; only wall-clock differs. Output is
 * buffered per leg and printed in deterministic leg order after the
 * workers join. Tracing (--trace-out) forces --jobs 1: the trace sink
 * serializes one event stream.
 *
 * --accel forces the DUT's check-path acceleration mode (compiled
 * match plans or the checker's own walk — see docs/PERFORMANCE.md)
 * for every case; "default" defers to
 * CheckAccel::defaultMode() (SIOPMP_ACCEL_MODE).
 *
 * --profile churn switches the op mix to continuous high-rate table
 * mutation interleaved with checks — the workload the accelerator's
 * per-MD incremental invalidation is built for. Every replay also
 * audits the TableListener dirty-set contract (see check/fuzzer.hh).
 *
 *   --replay K  regenerate case K of the selected checker/sizing,
 *               print every op, and replay it (with trace emission if
 *               --trace-out is given)
 *   --inject X  deliberately re-introduce a historical bug in the DUT
 *               write path to prove the harness catches it (expects
 *               to exit 1 with a minimized trace)
 *
 * See docs/FUZZING.md for the op grammar and workflow.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzzer.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace siopmp;

namespace {

/** Tiny flag parser: --name value / --name (boolean). */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            tokens_.emplace_back(argv[i]);
    }

    bool
    flag(const char *name) const
    {
        for (const auto &token : tokens_) {
            if (token == name)
                return true;
        }
        return false;
    }

    std::string
    value(const char *name, const std::string &fallback) const
    {
        for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
            if (tokens_[i] == name)
                return tokens_[i + 1];
        }
        return fallback;
    }

    long long
    number(const char *name, long long fallback) const
    {
        const std::string v = value(name, "");
        return v.empty() ? fallback : std::atoll(v.c_str());
    }

  private:
    std::vector<std::string> tokens_;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: siopmp_fuzz [--cases N] [--wide-cases N] [--ops N]\n"
        "                   [--seed S] [--checker linear|tree|"
        "pipe-linear|pipe-tree|all]\n"
        "                   [--stages N] [--entries N] [--sids N] "
        "[--mds N]\n"
        "                   [--accel off|plans|default]\n"
        "                   [--profile default|churn] [--jobs N]\n"
        "                   [--replay CASE] [--inject "
        "lock-bypass|block-hole|unbind-drop]\n"
        "                   [--trace-out FILE] [--stats-json FILE|-] "
        "[--verbose]\n");
}

/** One (kind, stages) pair of the campaign. */
struct Combo {
    iopmp::CheckerKind kind;
    unsigned stages;
};

std::vector<Combo>
campaignCombos(const std::string &checker, unsigned stages)
{
    using iopmp::CheckerKind;
    if (checker == "linear")
        return {{CheckerKind::Linear, 1}};
    if (checker == "tree")
        return {{CheckerKind::Tree, 1}};
    if (checker == "pipe-linear")
        return {{CheckerKind::PipelineLinear, stages ? stages : 2}};
    if (checker == "pipe-tree")
        return {{CheckerKind::PipelineTree, stages ? stages : 2}};
    if (checker == "all") {
        return {
            {CheckerKind::Linear, 1},
            {CheckerKind::Tree, 1},
            {CheckerKind::PipelineLinear, 2},
            {CheckerKind::PipelineLinear, 4},
            {CheckerKind::PipelineTree, 2},
            {CheckerKind::PipelineTree, 4},
        };
    }
    std::fprintf(stderr, "unknown checker '%s'\n", checker.c_str());
    std::exit(2);
}

void
installInjection(check::DifferentialFuzzer &fuzzer,
                 const std::string &inject)
{
    if (inject.empty())
        return;
    check::FaultInjection injection;
    if (inject == "lock-bypass") {
        injection = check::makeLockBypassInjection();
    } else if (inject == "block-hole") {
        injection = check::makeBlockHoleInjection();
    } else if (inject == "unbind-drop") {
        injection = check::makeUnbindDropInjection();
    } else {
        std::fprintf(stderr, "unknown injection '%s'\n", inject.c_str());
        std::exit(2);
    }
    fuzzer.setDutWriteHook(injection.hook, injection.reset);
}

void
printFailure(const check::FuzzCaseConfig &cfg,
             const check::FuzzReport &report)
{
    std::printf("DIVERGENCE: %s\n", report.detail.c_str());
    std::printf("  checker=%s stages=%u entries=%u sids=%u mds=%u\n",
                iopmp::checkerKindName(cfg.kind), cfg.stages,
                cfg.num_entries, cfg.num_sids, cfg.num_mds);
    std::printf("  replay: --seed %llu --replay %u --checker %s "
                "--stages %u --entries %u --sids %u --mds %u --ops %u"
                "%s%s%s\n",
                static_cast<unsigned long long>(report.seed),
                report.case_index, iopmp::checkerKindName(cfg.kind),
                cfg.stages, cfg.num_entries, cfg.num_sids, cfg.num_mds,
                cfg.ops_per_case,
                cfg.profile == check::FuzzProfile::Churn
                    ? " --profile churn"
                    : "",
                cfg.accel ? " --accel " : "",
                cfg.accel ? iopmp::accelModeName(*cfg.accel) : "");
    std::printf("  minimized to %zu ops:\n", report.trace.size());
    for (std::size_t i = 0; i < report.trace.size(); ++i)
        std::printf("    [%2zu] %s\n", i, report.trace[i].toString().c_str());
}

/** One campaign leg: a fully specified (config, seed, cases) triple.
 * Legs are independent and deterministic, which is what makes the
 * --jobs sharding trivially sound. */
struct Leg {
    check::FuzzCaseConfig cfg;
    std::uint64_t seed = 0;
    unsigned cases = 0;
};

/**
 * Run the legs with @p jobs worker threads (1 = inline on the caller).
 * Workers claim legs off a shared atomic cursor; a divergence stops
 * further claims but in-flight legs finish. Nothing is printed from
 * workers — reports land in the returned vector, indexed like @p legs,
 * so the caller renders them in deterministic order. Legs never run
 * (claimed after a stop) report cases_run == 0.
 */
std::vector<check::FuzzReport>
runLegs(const std::vector<Leg> &legs, unsigned jobs,
        const std::string &inject)
{
    std::vector<check::FuzzReport> reports(legs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};

    auto worker = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= legs.size())
                return;
            const Leg &leg = legs[i];
            check::DifferentialFuzzer fuzzer(leg.cfg, leg.seed);
            installInjection(fuzzer, inject);
            reports[i] = fuzzer.run(leg.cases);
            if (reports[i].diverged)
                stop.store(true, std::memory_order_relaxed);
        }
    };

    if (jobs <= 1 || legs.size() <= 1) {
        worker();
        return reports;
    }

    // Workers warn concurrently through the process-wide Logger;
    // silence it for the parallel phase (replay() does the same for
    // the rejected-programming chatter anyway).
    const bool was_quiet = Logger::quiet();
    Logger::setQuiet(true);
    std::vector<std::thread> pool;
    const unsigned nworkers =
        std::min<std::size_t>(jobs, legs.size());
    pool.reserve(nworkers);
    for (unsigned t = 0; t < nworkers; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();
    Logger::setQuiet(was_quiet);
    return reports;
}

int
cmdReplay(const Args &args, const check::FuzzCaseConfig &cfg,
          std::uint64_t seed, const std::string &inject)
{
    check::DifferentialFuzzer fuzzer(cfg, seed);
    installInjection(fuzzer, inject);
    const unsigned case_index =
        static_cast<unsigned>(args.number("--replay", 0));
    const std::vector<check::FuzzOp> ops = fuzzer.generateCase(case_index);
    std::printf("case %u (%s, %u stages, seed %llu): %zu ops\n",
                case_index, iopmp::checkerKindName(cfg.kind), cfg.stages,
                static_cast<unsigned long long>(seed), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        std::printf("  [%3zu] %s\n", i, ops[i].toString().c_str());
    if (const auto div = fuzzer.replay(ops, /*emit_trace=*/true)) {
        std::printf("DIVERGENCE at op %zu: %s\n", div->op_index,
                    div->detail.c_str());
        return 1;
    }
    std::printf("replay clean\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    if (args.flag("--help") || args.flag("-h")) {
        usage();
        return 2;
    }

    const auto seed = static_cast<std::uint64_t>(args.number("--seed", 1));
    const auto cases = static_cast<unsigned>(args.number("--cases", 10000));
    const auto wide_cases = static_cast<unsigned>(
        args.number("--wide-cases", cases / 5));
    const std::string checker = args.value("--checker", "all");
    const auto stages = static_cast<unsigned>(args.number("--stages", 0));
    const std::string inject = args.value("--inject", "");
    if (!inject.empty() && inject != "lock-bypass" &&
        inject != "block-hole" && inject != "unbind-drop") {
        std::fprintf(stderr, "unknown injection '%s'\n", inject.c_str());
        return 2;
    }
    const bool verbose = args.flag("--verbose");
    auto jobs = static_cast<unsigned>(
        std::max<long long>(1, args.number("--jobs", 1)));

    check::FuzzCaseConfig base;
    base.num_entries = static_cast<unsigned>(args.number("--entries", 24));
    base.num_sids = static_cast<unsigned>(args.number("--sids", 16));
    base.num_mds = static_cast<unsigned>(args.number("--mds", 8));
    base.ops_per_case = static_cast<unsigned>(args.number("--ops", 96));

    const std::string accel = args.value("--accel", "");
    if (!accel.empty() && accel != "default") {
        iopmp::AccelMode mode;
        if (!iopmp::parseAccelMode(accel, &mode)) {
            std::fprintf(stderr, "unknown accel mode '%s'\n",
                         accel.c_str());
            return 2;
        }
        base.accel = mode;
    }

    const std::string profile = args.value("--profile", "default");
    if (profile == "churn") {
        base.profile = check::FuzzProfile::Churn;
    } else if (profile != "default") {
        std::fprintf(stderr, "unknown profile '%s'\n", profile.c_str());
        return 2;
    }

    // Observability plumbing (same conventions as siopmp-cli).
    const std::string trace_path = args.value("--trace-out", "");
    const std::string stats_path = args.value("--stats-json", "");
    std::ofstream trace_file;
    std::unique_ptr<trace::ChromeTraceSink> trace_sink;
    if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
            return 2;
        }
        trace_sink = std::make_unique<trace::ChromeTraceSink>(trace_file);
        trace::tracer().setSink(trace_sink.get());
    }
    if (!stats_path.empty())
        stats::Registry::global().setRetainRetired(true);

    int rc = 0;
    if (!args.value("--replay", "").empty()) {
        check::FuzzCaseConfig cfg = base;
        const std::vector<Combo> combos = campaignCombos(
            checker == "all" ? "linear" : checker, stages);
        cfg.kind = combos[0].kind;
        cfg.stages = combos[0].stages;
        rc = cmdReplay(args, cfg, seed, inject);
    } else {
        // Wide profile: multi-word SID blocking, paper-scale SID count.
        check::FuzzCaseConfig wide = base;
        wide.num_sids = 128;
        wide.num_entries = base.num_entries * 2;

        std::vector<Leg> legs;
        for (const Combo &combo : campaignCombos(checker, stages)) {
            check::FuzzCaseConfig cfg = base;
            cfg.kind = combo.kind;
            cfg.stages = combo.stages;
            legs.push_back({cfg, seed, cases});
            if (wide_cases > 0) {
                wide.kind = combo.kind;
                wide.stages = combo.stages;
                legs.push_back({wide, seed ^ 0x57ede, wide_cases});
            }
        }

        if (trace_sink && jobs > 1) {
            std::fprintf(stderr,
                         "note: --trace-out serializes one event "
                         "stream; forcing --jobs 1\n");
            jobs = 1;
        }

        const std::vector<check::FuzzReport> reports =
            runLegs(legs, jobs, inject);

        // Render in leg order: the first (lowest-index) divergence is
        // reported, matching the single-threaded walk.
        std::uint64_t total_cases = 0, total_ops = 0, total_checks = 0;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const check::FuzzReport &report = reports[i];
            total_cases += report.cases_run;
            total_ops += report.ops_run;
            total_checks += report.checks_run;
            if (report.diverged) {
                printFailure(legs[i].cfg, report);
                rc = 1;
                break;
            }
            if (verbose && report.cases_run > 0) {
                std::printf(
                    "  ok: checker=%s stages=%u sids=%u: %llu cases, "
                    "%llu ops, %llu checks\n",
                    iopmp::checkerKindName(legs[i].cfg.kind),
                    legs[i].cfg.stages, legs[i].cfg.num_sids,
                    static_cast<unsigned long long>(report.cases_run),
                    static_cast<unsigned long long>(report.ops_run),
                    static_cast<unsigned long long>(report.checks_run));
            }
        }
        if (rc == 0) {
            std::printf("fuzz: clean — %llu cases (%llu ops, %llu "
                        "checks) across %zu legs, seed %llu, jobs %u\n",
                        static_cast<unsigned long long>(total_cases),
                        static_cast<unsigned long long>(total_ops),
                        static_cast<unsigned long long>(total_checks),
                        legs.size(),
                        static_cast<unsigned long long>(seed), jobs);
        }
    }

    if (trace_sink) {
        trace::tracer().setSink(nullptr);
        trace_sink->flush();
        std::fprintf(stderr, "trace: %llu events -> %s\n",
                     static_cast<unsigned long long>(
                         trace_sink->eventsWritten()),
                     trace_path.c_str());
    }
    if (!stats_path.empty()) {
        std::ofstream file;
        std::ostream *os = &std::cout;
        if (stats_path != "-") {
            file.open(stats_path);
            if (!file) {
                std::fprintf(stderr, "cannot open %s\n",
                             stats_path.c_str());
                return rc ? rc : 2;
            }
            os = &file;
        }
        stats::JsonStatsWriter writer(*os);
        stats::Registry::global().accept(writer);
        writer.finish();
    }
    return rc;
}
