"""frachp benchmark: times the paper's studies end to end, or, with
``--trace 1``, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/frachp``).  Every
pass of the workload is checked for correctness; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb, ok_frac); with ``--trace 1`` they are the
per-layer ones, derived from the span file written to ``perfbench/out``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")

SETUP_PROBES = 5
MIN_PASSES = 3
# Never start a pass that would end past this, whatever MIN_PASSES asks.
HARD_LIMIT_S = 120.0


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("paper_sweep", "deep_solve", "s_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup_seconds():
    """Seconds from starting a fresh interpreter to its finished warm-up
    solve."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, PROBE], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready" or proc.wait(timeout=60) != 0:
            raise RuntimeError("set-up probe failed")
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def _loop(seconds, min_rounds, one_round):
    """Repeat one_round() while the next round is expected to end within
    `seconds`, and at least min_rounds times."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / rounds
        if next_end > HARD_LIMIT_S or (rounds >= min_rounds
                                       and next_end > seconds):
            return


def main(argv=None, scale="full", out_dir=None, probes=SETUP_PROBES):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "frachp", "__init__.py")):
        print(f"error: no frachp package under {SRC}", file=sys.stderr)
        sys.exit(2)
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import checks, spans, workloads
    from perfbench.setup_probe import warm_up

    warm_up()
    if args.workload == "deep_solve":
        workloads.settle_blas_buffers()
    out_dir = out_dir or os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = spans.Tracer(args.workload)
    ctx = workloads.Context(out_dir, checks.load_reference(),
                            workloads.SIZES[scale], tracer)
    run_pass = workloads.WORKLOADS[args.workload]
    walls = []

    def one_pass(traced):
        tracer.pass_index = len(walls)
        ctx.tracing = traced
        with spans.patched(tracer if traced else None, ctx.solve_hook):
            root_id = len(tracer.spans)
            with tracer.span("bench.pass", traced=traced):
                run_pass(ctx, tracer.pass_index, args.seed)
        root = tracer.spans[root_id]
        walls.append(root["end"] - root["start"])

    if args.trace == 0:
        setup = [_setup_seconds() for _ in range(probes)]
        _loop(args.seconds, MIN_PASSES, lambda: one_pass(False))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fail_frac = ctx.failed / max(ctx.attempted, 1)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
            "ok_frac": (1.0 - fail_frac, "fraction"),
        }
    else:
        _loop(args.seconds, 1, lambda: (one_pass(False), one_pass(True)))
        if args.workload == "deep_solve":
            workloads.thread_probes(tracer, ctx.sizes)
        trace_path = os.path.join(
            out_dir, f"trace_{args.workload}_seed{args.seed}.json")
        tracer.write(trace_path, seed=args.seed,
                     blas_threads=spans.blas_threads())
        with open(trace_path) as fh:
            metrics = spans.layer_metrics(json.load(fh))

    for message in ctx.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r} {unit}")
    if args.trace == 0:
        print(f"{'fail_frac':28s} {fail_frac!r} fraction  "
              f"({ctx.failed} of {ctx.attempted} operations)")
    result = {"correct": ctx.failed == 0 and ctx.attempted > 0,
              "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
