#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the syzdepth command line.

    python3 bench/run.py --workload certify|verify|sdepth --seed N \
        --seconds 30 --trace 0|1
    python3 bench/run.py --self-test

One process, one thread, one client in a closed loop: each operation is one
in-process call of syzdepth.cli.main(argv) on input and output JSON files
written during set-up, and the next call starts when the previous one has
returned.  A run makes whole passes over a seeded corpus, never "as many
operations as fit", so every run has the same mix of operations.  Each
operation is called a fixed number of times and its time is the median.

Times are in reference seconds (ref_s): a fixed stdlib-only kernel is timed
between consecutive calls, and each call's time is multiplied by
KERNEL_NOMINAL_S over the mean of the kernel times on either side of it.
This removes the drift of the machine's speed over tens of seconds.

The last line of standard output is the result object; the line before it
carries the same figures in raw seconds and the run's details.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import checks
import corpora
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("certify", "verify", "sdepth")

# The reference kernel and its nominal duration.  One call is defined to take
# KERNEL_NOMINAL_S reference seconds; the constant is the median kernel time
# measured on the 2-core machine the benchmark was written on, so that
# reference seconds read close to seconds there when it is quiet.
KERNEL_ITERATIONS = 500
KERNEL_NOMINAL_S = 0.00200

# A pass over a corpus is sized to take roughly PASS_SECONDS; a run makes
# max(1, round(seconds / PASS_SECONDS)) passes.
PASS_SECONDS = 30
SETUP_REPEATS = 9
TAIL_BEYOND = 10

# Corpus scale per workload: blocks of pool instances (certify, sdepth),
# trials per (n, m) cell and theorem (verify).
SCALE = {"certify": 1, "verify": 3, "sdepth": 3}


def reference_kernel() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(KERNEL_ITERATIONS):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 17 + 1, i % 19 + 1)
    return acc.numerator % 97 + len(table)


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Set-up


def import_syzdepth():
    """Import syzdepth afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "syzdepth" or m.startswith("syzdepth.")]:
        del sys.modules[name]
    cli = importlib.import_module("syzdepth.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"syzdepth was imported from {cli.__file__}, not from {SRC}")
    return cli


def build_corpus(workload, seed, selftest):
    if workload == "certify":
        return corpora.certify_selftest(seed) if selftest else \
            corpora.certify_corpus(seed, SCALE["certify"])
    if workload == "sdepth":
        return corpora.sdepth_selftest(seed) if selftest else \
            corpora.sdepth_corpus(seed, SCALE["sdepth"])
    return corpora.verify_corpus(seed, 1 if selftest else SCALE["verify"], selftest)


def write_inputs(ops, workdir):
    """One input file per distinct ideal; argv gets --input and --output."""
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    files = {}
    for k, op in enumerate(ops):
        argv = list(op["args"])
        if op["ideal"] is not None:
            text = json.dumps(op["ideal"], sort_keys=True)
            path = files.get(text)
            if path is None:
                path = os.path.join(workdir, "in", f"{len(files):04d}.json")
                with open(path, "w") as fh:
                    fh.write(text + "\n")
                files[text] = path
            argv += ["--input", path]
        op["output"] = os.path.join(workdir, "out", f"{k:05d}.json")
        op["argv"] = argv + ["--output", op["output"]]


def setup(workload, seed, selftest, workdir):
    cli = import_syzdepth()
    ops = build_corpus(workload, seed, selftest)
    write_inputs(ops, workdir)
    return cli, ops


def freeze_heap():
    """Move everything set-up made out of the collector's reach, so that the
    collection before each call only scans what earlier calls left behind."""
    gc.collect()
    gc.freeze()


def measured_setup(workload, seed, selftest, workdir):
    """Set up SETUP_REPEATS times; median rescaled and raw durations.  The
    fixed instance pools are drawn once beforehand: they are the benchmark's
    own tables, not set-up work of the program."""
    build_corpus(workload, seed, selftest)
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        k0 = time_kernel()
        start = time.perf_counter()
        cli, ops = setup(workload, seed, selftest, workdir)
        elapsed = time.perf_counter() - start
        k1 = time_kernel()
        raw.append(elapsed)
        ref.append(elapsed * KERNEL_NOMINAL_S * 2 / (k0 + k1))
    return statistics.median(ref), statistics.median(raw), cli, ops


# ---------------------------------------------------------------------------
# Passes


def clear_caches():
    """Empty every cache syzdepth keeps between calls.

    Anything module-level whose name mentions a cache and that can be
    cleared is cleared, and so is every functools cache, so this keeps
    working when a cache is renamed, bounded or removed.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "syzdepth" or name.startswith("syzdepth.")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif "cache" in attr.lower() and callable(getattr(value, "clear", None)) \
                    and not isinstance(value, type):
                value.clear()


def run_op(cli, argv):
    """Return code of one CLI call; an escaping exception counts as a failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop must go on; the failure is counted and shown
        traceback.print_exc(file=sys.stderr)
        return "exception"


def run_pass(cli, ops, repeat=False, tracer=None):
    """Call every operation once or, with repeat, its corpora.CALLS number of
    times.  The calls go round the corpus, so that the calls of one operation
    spread over the whole pass and meet the machine in different states.
    Returns per-op lists of (raw s, ref s, rc), one entry per call, and, when
    traced, the rescaled time the spans cover."""
    counts = [corpora.CALLS.get(op["kind"], corpora.DEFAULT_CALLS) if repeat else 1
              for op in ops]
    results = [[] for _ in ops]
    covered = 0.0
    k_prev = time_kernel()
    for rnd in range(max(counts)):
        for op, count, calls in zip(ops, counts, results):
            if rnd >= count:
                continue
            clear_caches()
            gc.collect()
            if tracer is not None:
                tracer.start_op()
            start = time.perf_counter()
            rc = run_op(cli, op["argv"])
            elapsed = time.perf_counter() - start
            k_next = time_kernel()
            scale = KERNEL_NOMINAL_S * 2 / (k_prev + k_next)
            k_prev = k_next
            if tracer is not None:
                covered += tracer.finish_op(scale)
            calls.append((elapsed, elapsed * scale, rc))
    return results, covered


def check_outputs(ops, rcs):
    """Independent checks of every output whose call succeeded."""
    failures = []
    for op, rc in zip(ops, rcs):
        if rc != 0:
            continue
        try:
            with open(op["output"]) as fh:
                text = fh.read()
            out = json.loads(text.splitlines()[0] if op["kind"] == "verify" else text)
        except (OSError, ValueError, IndexError) as exc:
            failures.append(f"{op['name']}: unreadable output ({exc})")
            continue
        reason = checks.check(op, out)
        if reason is not None:
            failures.append(f"{op['name']}: {reason}")
    return failures


# ---------------------------------------------------------------------------
# Metrics


def tail_index(count):
    """Index of the highest percentile with TAIL_BEYOND operations beyond it."""
    return count - TAIL_BEYOND - 1


def summarize(times):
    ordered = sorted(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_s_p50": statistics.median(ordered),
            "op_s_tail": ordered[tail_index(len(ordered))]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SELF = "self_s"
LAYER_METRICS = {
    "certify": [
        ("complexes.check_exactness_on_box", SELF), ("complexes.check_exactness_on_box", "calls"),
        ("complexes.check_exactness_on_box", "degrees"),
        ("linalg.rank_mod_p", SELF), ("linalg.rank_mod_p", "calls"),
        ("linalg.exact_rank", "calls"),
        ("groebner.hilbert_slice_check", SELF), ("groebner.hilbert_slice_check", "calls"),
        ("freemod.graded_piece", SELF), ("freemod.graded_piece", "calls"),
        ("linalg.rref", SELF), ("linalg.rref", "calls"),
        ("groebner.buchberger", SELF), ("groebner.buchberger", "calls"),
        ("groebner.buchberger", "per_initial"),
        ("groebner.normal_form", "calls"), ("groebner.normal_form", "nonzero_ratio"),
        ("complexes.taylor_complex", SELF), ("complexes.minimize", SELF),
        ("complexes.eliahou_kervaire", SELF), ("complexes.lift_through", SELF),
        ("complexes.lift_through", "calls"), ("complexes.mapping_cone", SELF),
        ("syzygy.verify_boundary_gb", SELF),
        ("cli.io", SELF),
    ],
    "verify": [
        ("groebner.buchberger", SELF), ("groebner.buchberger", "calls"),
        ("groebner.buchberger", "per_initial"),
        ("groebner.normal_form", "calls"), ("groebner.normal_form", "nonzero_ratio"),
        ("complexes.taylor_complex", SELF), ("complexes.minimize", SELF),
        ("complexes.eliahou_kervaire", SELF), ("complexes.lift_through", SELF),
        ("complexes.lift_through", "calls"), ("complexes.mapping_cone", SELF),
        ("syzygy.verify_theorem_main", SELF), ("syzygy.verify_boundary_gb", SELF),
        ("syzygy.compose_cone_gb", SELF),
        ("stanley.exact_sdepth", SELF), ("stanley.exact_sdepth", "calls"),
        ("stanley.interval_points", "calls"), ("stanley.char_poset", "points"),
        ("stanley.validate_partition", SELF),
        ("stanley.ideal_sdepth", "calls"), ("stanley.ideal_sdepth", "search_ratio"),
    ],
    "sdepth": [
        ("stanley.exact_sdepth", SELF), ("stanley.exact_sdepth", "calls"),
        ("stanley.interval_points", "calls"), ("stanley.char_poset", "points"),
        ("stanley.validate_partition", SELF),
        ("stanley.ideal_sdepth", "calls"), ("stanley.ideal_sdepth", "search_ratio"),
        ("blocks.squarefree_partition", SELF), ("blocks.lifted_f", "calls"),
        ("groebner.buchberger", SELF), ("groebner.buchberger", "calls"),
        ("complexes.taylor_complex", SELF),
        ("cli.io", SELF),
    ],
}
# (unit, better) of each statistic.  Fewer calls, degrees and points mean
# less work; nonzero_ratio counts useful remainders per reduction attempted.
STATS = {SELF: ("ref_s", "lower"), "calls": ("count", "lower"),
         "degrees": ("count", "lower"), "points": ("count", "lower"),
         "per_initial": ("ratio", "lower"), "nonzero_ratio": ("ratio", "higher"),
         "search_ratio": ("ratio", "lower"), "coverage": ("ratio", "higher"),
         "overhead": ("ratio", "lower")}


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for workload in WORKLOADS:
        for layer, stat in LAYER_METRICS[workload] + [("trace", "coverage"),
                                                      ("trace", "overhead")]:
            out.append((f"{workload}.{layer}.{stat}", *STATS[stat]))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(tracer, layer, stat):
    if stat == SELF:
        return tracer.self_s(layer)
    if stat == "calls":
        return tracer.calls(layer)
    if stat == "per_initial":
        return _ratio(tracer.count("groebner.buchberger.in_initial"),
                      tracer.calls("groebner.initial_module"))
    if stat == "nonzero_ratio":
        return _ratio(tracer.count("groebner.normal_form.nonzero"),
                      tracer.calls("groebner.normal_form"))
    if stat == "search_ratio":
        return _ratio(tracer.count("stanley.ideal_sdepth.searched"),
                      tracer.calls("stanley.ideal_sdepth"))
    return tracer.count(f"{layer}.{stat}")


# ---------------------------------------------------------------------------
# Runs


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def passes_for(seconds):
    return max(1, round(seconds / PASS_SECONDS))


def _median_per_op(results, field):
    return [statistics.median(call[field] for call in calls) for calls in results]


def _failed_calls(results):
    return sum(1 for calls in results for call in calls if call[2] != 0)


def _last_rcs(results):
    return [calls[-1][2] for calls in results]


def end_to_end_run(workload, seed, seconds, workdir, selftest=False):
    setup_ref, setup_raw, cli, ops = measured_setup(workload, seed, selftest, workdir)
    freeze_heap()
    raw, ref = [], []
    attempted = failed = 0
    for _ in range(passes_for(seconds)):
        results, _ = run_pass(cli, ops, repeat=True)
        raw += _median_per_op(results, 0)
        ref += _median_per_op(results, 1)
        attempted += sum(len(calls) for calls in results)
        failed += _failed_calls(results)
    rss = peak_rss_mb()
    rcs = _last_rcs(results)
    failures = check_outputs(ops, rcs)
    rescaled, seconds_raw = summarize(ref), summarize(raw)
    detail = {"workload": workload, "seed": seed, "operations": len(ref),
              "passes": passes_for(seconds),
              "tail_percentile": round(100.0 * (tail_index(len(ref)) + 1) / len(ref), 2),
              "raw_seconds": {"setup_s": setup_raw, **seconds_raw},
              "kernel_nominal_s": KERNEL_NOMINAL_S,
              "failed_operations": [op["name"] for op, rc in zip(ops, rcs) if rc != 0][:5],
              "check_failures": failures[:5]}
    metrics = {"setup_s": (setup_ref, "s"),
               "ops_per_s": (rescaled["ops_per_s"], "1/ref_s"),
               "op_s_p50": (rescaled["op_s_p50"], "ref_s"),
               "op_s_tail": (rescaled["op_s_tail"], "ref_s"),
               "peak_rss_mb": (rss, "MB")}
    return not failures, attempted, failed, metrics, detail


def trace_run(seed, seconds, workdir, selftest=False):
    """Every workload, each operation called once untraced and once traced,
    for the per-layer metrics and the tracing overhead."""
    metrics, detail = {}, {"seed": seed, "workloads": {}}
    attempted = failed = 0
    all_failures = []
    for workload in WORKLOADS:
        cli, ops = setup(workload, seed, selftest, os.path.join(workdir, workload))
        freeze_heap()
        plain_total = traced_total = covered = 0.0
        tracer = tracing.Tracer()
        rcs = []
        for _ in range(passes_for(seconds)):
            for k, op in enumerate(ops):
                # Alternate which call comes first, so that whatever the first
                # call leaves warm does not favour one side.
                if k % 2:
                    plain, _ = run_pass(cli, [op])
                tracer.install()
                try:
                    traced, cov = run_pass(cli, [op], tracer=tracer)
                finally:
                    tracer.uninstall()
                if k % 2 == 0:
                    plain, _ = run_pass(cli, [op])
                plain_total += plain[0][0][1]
                traced_total += traced[0][0][1]
                covered += cov
                attempted += 2
                failed += _failed_calls(plain) + _failed_calls(traced)
                rcs.append(traced[0][0][2])
        all_failures += check_outputs(ops, rcs[-len(ops):])
        for layer, stat in LAYER_METRICS[workload]:
            metrics[f"{workload}.{layer}.{stat}"] = (layer_value(tracer, layer, stat),
                                                    STATS[stat][0])
        metrics[f"{workload}.trace.coverage"] = (covered / traced_total, "ratio")
        metrics[f"{workload}.trace.overhead"] = (traced_total / plain_total - 1.0, "ratio")
        detail["workloads"][workload] = {
            "operations": len(ops), "traced_ref_s": traced_total,
            "untraced_ref_s": plain_total,
            "self_s": {name: round(v[0], 6) for name, v in sorted(tracer.totals.items())},
            "calls": {name: v[1] for name, v in sorted(tracer.totals.items())},
            "counts": dict(sorted(tracer.counts.items()))}
    detail["check_failures"] = all_failures[:5]
    return not all_failures, attempted, failed, metrics, detail


# ---------------------------------------------------------------------------
# Self-test


def _mutations():
    """Corruptions each check must reject, one per kind of operation."""
    def resolve(out):
        cx = out["complex"]
        top = len(cx["differentials"])
        cx["ranks"][top] -= 1
        cx["degrees"][top].pop()
        for row in cx["differentials"][top - 1]:
            row.pop()

    def initial(out):
        comps = out.get("components", out)
        comps = comps["components"] if isinstance(comps, dict) else comps
        for comp in comps:
            if comp:
                comp.pop()
                return

    def intervals(out):
        out["intervals"].pop()
        if "subsets" in out:
            out["subsets"].pop()

    def verify(out):
        out["instance"]["generators"][0] = [9] * out["instance"]["n"]

    return {"resolve": resolve, "initial": initial, "filtration": initial,
            "exact": intervals, "construct": intervals, "verify": verify}


def self_test(workdir) -> int:
    """Tiny corpora, every check on, and every check shown to reject a
    corrupted output."""
    problems = []
    mutate = _mutations()
    for workload in WORKLOADS:
        ok, attempted, failed, metrics, detail = end_to_end_run(
            workload, 1, PASS_SECONDS, os.path.join(workdir, workload), selftest=True)
        if not ok or failed or attempted < 1:
            problems.append(f"{workload}: {detail['check_failures']} "
                            f"{detail['failed_operations']}")
        if set(metrics) != {"setup_s", "ops_per_s", "op_s_p50", "op_s_tail", "peak_rss_mb"}:
            problems.append(f"{workload}: metrics {sorted(metrics)}")
        ops = build_corpus(workload, 1, True)
        write_inputs(ops, os.path.join(workdir, workload))
        seen = set()
        for op in ops:
            if op["kind"] in seen:
                continue
            seen.add(op["kind"])
            with open(op["output"]) as fh:
                text = fh.read()
            out = json.loads(text.splitlines()[0] if op["kind"] == "verify" else text)
            mutate[op["kind"]](out)
            if checks.check(op, out) is None:
                problems.append(f"{op['name']}: a corrupted output passed the check")
        print(f"self-test {workload}: {attempted} calls, "
              f"{len(seen)} kinds of check shown to reject corrupted output")
    ok, attempted, failed, metrics, _ = trace_run(1, PASS_SECONDS, os.path.join(workdir, "trace"),
                                                  selftest=True)
    expected = {name for name, _, _ in per_layer_names()}
    if not ok or failed or set(metrics) != expected:
        problems.append(f"trace: ok={ok} failed={failed} "
                        f"metrics differ by {sorted(set(metrics) ^ expected)}")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "syzdepth", "cli.py")):
        print(f"error: syzdepth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        if args.self_test:
            return self_test(workdir)
        if args.trace:
            ok, attempted, failed, metrics, detail = trace_run(args.seed, args.seconds, workdir)
        else:
            ok, attempted, failed, metrics, detail = end_to_end_run(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for failure in detail.get("check_failures", []):
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(result_line(ok, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
