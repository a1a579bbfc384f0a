"""Benchmark of object onboarding, query-time pose estimation and the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload onboard|localize|cli --seed N --seconds S --trace 0|1

Generates every input from the workload seed, sets up three times (the
median is `setup_s`), then runs the workload's operations in repeated
interleaved passes for about S seconds, one at a time, and checks every
output. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1 (a
separate run that wraps the program's public functions; see spans.py).
The line before it, `{"info": ...}`, records the machine, a pure-Python
reference loop timed at the start and the end of the run, and figures
that are not metrics. See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
MIN_PASSES = 2
WORKLOADS = ("onboard", "localize", "cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS to one thread in this process; call before numpy is imported.

    The cli workload's child processes run with these variables unset.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def reference_loop_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: the host's speed, not the program's."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def machine_info() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except Exception as e:  # numpy builds without the dict form
        blas = {"error": repr(e)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "cli_child_blas_env": "unset",
    }


def percentile_tail(times_ms: list[float]):
    """Highest of p99/p90/p80 with at least ten samples beyond it (none below 40 samples)."""
    n = len(times_ms)
    if n < 40:
        return None
    qs = statistics.quantiles(times_ms, n=100)
    for pct in (99, 90, 80):
        if n * (100 - pct) / 100 >= 10:
            return {"pct": pct, "value": qs[pct - 1], "n": n}
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    pin_blas()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "semidense" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'semidense'}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import spans
    import workloads

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    info["machine"] = machine_info()
    ref_start = reference_loop_ms()

    if args.workload == "cli":
        wl = workloads.Cli(ROOT, OUT, BLAS_VARS, in_process=bool(args.trace))
    else:
        wl = {"onboard": workloads.Onboard, "localize": workloads.Localize}[args.workload]()

    tracer = spans.Tracer() if args.trace else None
    problems: list[str] = []
    setup_times = []
    if tracer:
        tracer.install()
        t0 = time.perf_counter()
        problems += tracer.call("setup", wl.setup, args.seed)
        setup_times.append(time.perf_counter() - t0)
        tracer.phase = "op"
        run = lambda x: tracer.call("op", wl.run, x)  # noqa: E731
    else:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            problems += wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        run = wl.run

    times_ms: list[float] = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    pass_s: list[float] = []
    while True:
        t_pass = time.perf_counter()
        for x in wl.inputs():
            attempted += 1
            try:
                t0 = time.perf_counter()
                out = run(x)
                dt = time.perf_counter() - t0
                op_problems = wl.check(x, out)
            except Exception as e:  # an operation that raises counts as failed
                failed += 1
                problems.append(f"{x!r}: {type(e).__name__}: {e}")
                continue
            times_ms.append(1e3 * dt)
            if tracer:
                tracer.counts["op"]["formats.bytes_written"] += getattr(wl, "bytes_written", 0)
            if op_problems:
                failed += 1
                problems += op_problems
        passes += 1
        pass_s.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest to the requested duration
        if passes >= MIN_PASSES and elapsed + statistics.mean(pass_s) / 2 >= args.seconds:
            break
    measured_s = time.perf_counter() - start

    acc, proj, extras, run_problems = wl.finish()
    problems += run_problems
    ref_end = reference_loop_ms()

    values = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(times_ms) if times_ms else float("nan"),
        "peak_rss_mb": wl.peak_rss_mb(),
        "recon_acc_0.1pct": acc,
    }
    info.update(
        ref_loop_ms={"start": ref_start, "end": ref_end},
        measured_s=measured_s,
        passes=passes,
        ops=len(times_ms),
        setup_s_each=setup_times,
        op_ms_tail=percentile_tail(times_ms),
        op_ms_each=[round(t, 1) for t in times_ms],
        pose_proj2d_px_p50=proj,
        **extras,
    )
    if tracer:
        tracer.uninstall()
        op = tracer.summary("op", "op")
        layer = spans.layer_metrics(op, len(times_ms))
        if args.workload == "cli":
            layer["cli.startup_ms"] = wl.startup_ms()
        values.update(layer)
        n_spans = sum(1 for span in tracer.spans if span[4] == "op") / max(len(times_ms), 1)
        span_us = tracer.span_cost_us()
        info.update(
            traced_op_ms_p50=values["op_ms_p50"],
            spans_per_op=n_spans,
            span_cost_us=span_us,
            span_overhead_ms_per_op=n_spans * span_us / 1e3,
            layer_coverage=sum(layer[f"{name}.time_share"] for name in spans.LAYERS),
            per_layer=layer,
            setup_layers=spans.layer_metrics(tracer.summary("setup", "setup"), 1),
        )
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    info["problems"] = problems[:20]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not problems and bool(times_ms) and all(
        np.isfinite(v["value"]) for v in metrics.values()
    )
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
