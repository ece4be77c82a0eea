"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with spans and prints the per-layer metrics (names and units as
in ``BENCHMARK.json``).  Every answer is checked; a wrong one exits 1
before any metric is printed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Spans,
provenance and the full result go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("paper-mix", "verified-unsat", "serve-closed", "portfolio-race")

E2E_UNITS = {
    "setup_s": "s",
    "answer_s_p50": "s",
    "answer_s_p90": "s",
    "answer_s_geomean": "s",
    "answers_per_s": "1/s",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: What "ready to serve" means for each in-process workload's set-up
#: probe: a fresh interpreter imports the package and answers one call.
SETUP_PROBES = {
    "paper-mix": "import repro; repro.solve([[1, 2], [-1, 2]]); print('ready', flush=True)",
    "portfolio-race": (
        "import os, repro; repro.PortfolioSolver(jobs=len(os.sched_getaffinity(0)))"
        ".solve([[1, 2], [-1, 2]]); print('ready', flush=True)"
    ),
}
SETUP_PROBES["verified-unsat"] = SETUP_PROBES["paper-mix"]
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="a few small instances and one set-up probe (the benchmark's tests)",
    )
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Import the checkout's sources and keep temporary files inside it."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The arena kernel's build cache and any worker temp files follow TMPDIR.
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run(args) -> dict:
    """Run the workload; return the full result (metrics with sample counts)."""
    from perfbench import measure, serving, workloads

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
    prov = measure.provenance(args.workload, args.seed, args.trace)
    started = time.perf_counter()
    repeats = 1 if args.tiny else SETUP_REPEATS
    if args.workload == "serve-closed":
        e2e, layers, extra, setups = serving.run_serve(
            args.seed, args.seconds, tracer, args.tiny, repeats
        )
        setup = (measure.median(setups), len(setups))
    else:
        setup = measure.setup_seconds(SETUP_PROBES[args.workload], repeats)
        if args.workload == "portfolio-race":
            e2e, layers, extra = workloads.run_portfolio_race(
                args.seed, args.seconds, tracer, args.tiny
            )
        else:
            e2e, layers, extra = workloads.run_solve_workload(
                args.workload, args.seed, args.seconds, tracer, args.tiny
            )
    e2e["setup_s"] = setup
    e2e["peak_rss_mb"] = (measure.peak_rss_mb(), 1)
    prov["run_seconds"] = round(time.perf_counter() - started, 3)
    prov.update(extra)
    if args.trace:
        metrics = {name: (layers[name], unit) for name, unit in workloads.LAYER_UNITS.items()}
    else:
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    prov["samples"] = {name: samples for name, ((_, samples), _) in metrics.items()}
    result = {
        "attempted": prov.pop("attempted"),
        "failed": prov.pop("failed"),
        "metrics": metrics,
        "provenance": prov,
    }
    if tracer is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        prov["spans"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench.check import WrongAnswer

    try:
        result = run(args)
    except WrongAnswer as error:
        print(f"perfbench: WRONG ANSWER: {error}", file=sys.stderr)
        return 1
    prov = result["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, ((value, samples), unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=2, sort_keys=True)
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, ((value, _samples), unit) in result["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
