"""Benchmark of the sig4 package: one workload per run.

    python3 sig4bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; sig4 is imported from ``src/`` there.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the provenance (and, traced, the ROADMAP baseline
comparison).  Results and trace spans are also written under
``.sig4bench/`` in the checkout.  See sig4bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".sig4bench"
SETUP_REPEATS = 7


def load_program():
    """Import sig4 from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import sig4
    except ImportError as exc:
        sys.exit(f"error: cannot import sig4 from {SRC}: {exc}")
    if Path(sig4.__file__).resolve().parent != SRC / "sig4":
        sys.exit(f"error: imported sig4 from {sig4.__file__}, not from {SRC}")
    return sig4


def setup_seconds(args) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters.

    Each child times its own import of sig4, the workload's contexts and
    one warm-up call per function; interpreter start-up is left out.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    times = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile over operations of (seconds per operation, operations) samples."""
    samples = sorted(samples)
    target = q * sum(count for _, count in samples)
    seen = 0
    for value, count in samples:
        seen += count
        if seen >= target:
            return value
    return samples[-1][0]


def metric(value, unit):
    return {"value": value, "unit": unit}


def check(records):
    """Run the oracle over the check sample: (attempted, failed, canary verdict, seconds)."""
    import oracle  # here, so that the set-up children never import mpmath

    start = time.perf_counter()
    checker = oracle.Checker()
    failed = oracle.count_failed(records, checker)
    rejected = oracle.canary(records, checker)
    return len(records), failed, rejected, time.perf_counter() - start


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sig4").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, passes, attempted, failed, rejected, check_s) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "click": metadata.version("click"),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "ops_timed": sum(p.ops for p in passes),
        "ops_raised": sum(p.raised for p in passes),
        "check_attempted": attempted,
        "check_failed": failed,
        "fail_share": failed / attempted,
        "canary_rejected": rejected,
        "check_s": check_s,
    }


def end_to_end(args, passes, attempted, failed) -> dict:
    samples = [s for p in passes for s in p.samples] or [(p.seconds / p.ops, p.ops) for p in passes]
    ok_share = 1.0 - failed / attempted
    return {
        "setup_s": metric(setup_seconds(args), "s"),
        "ok_share": metric(ok_share, "share"),
        "ops_per_s": metric(ok_share * statistics.median(p.ops / p.seconds for p in passes), "1/s"),
        "op_us_p50": metric(quantile(samples, 0.5) * 1e6, "us"),
        "op_us_p90": metric(quantile(samples, 0.9) * 1e6, "us"),
        "pass_s": metric(statistics.median(p.seconds for p in passes), "s"),
    }


def traced_run(args, sig4, workload):
    """Untraced then traced passes of the same size: per-layer metrics and tracing overhead."""
    from tracing import Tracer

    count = 1 if args.quick else workload.trace_passes
    untraced = [workload.run_pass(i) for i in range(count)]
    tracer = Tracer()
    tracer.install()
    try:
        # a second instance built under the tracer, so the callables it holds are wrapped
        fresh = WORKLOADS[args.workload](sig4, args.seed, args.quick)
        fresh.setup()
        tracer.reset()
        traced = [fresh.run_pass(count + i) for i in range(count)]
    finally:
        tracer.uninstall()
    overhead = sum(p.seconds for p in traced) / sum(p.seconds for p in untraced) - 1.0
    return untraced, tracer, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sig4 = load_program()
    workload = WORKLOADS[args.workload](sig4, args.seed, args.quick)
    workload.setup()
    if args.setup_only:
        print(time.perf_counter() - start)
        return 0

    if args.trace:
        passes, tracer, overhead = traced_run(args, sig4, workload)
    else:
        passes, deadline = [], time.perf_counter() + args.seconds
        while len(passes) < workload.min_passes or time.perf_counter() < deadline:
            passes.append(workload.run_pass(len(passes)))
    attempted, failed, rejected, check_s = check(
        [op for p in passes if p.records is not None for op in p.records])

    if args.trace:
        metrics = tracer.layer_metrics(overhead)
    else:
        metrics = end_to_end(args, passes, attempted, failed)
    prov = provenance(args, passes, attempted, failed, rejected, check_s)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        extra["baseline"] = tracer.baseline_rows()
        tracer.dump(OUT / f"{stem}-spans.json")
        for row in extra["baseline"]:
            print("baseline {function}: traced {traced:.4g} {unit}/call over {calls} calls; "
                  "ROADMAP {roadmap} {unit} ({roadmap_inputs}); ratio {ratio:.3g}".format(**row))
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, "metrics": metrics, **extra}, handle, indent=1)
    print("provenance " + json.dumps(prov))
    result = {
        "correct": rejected is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
