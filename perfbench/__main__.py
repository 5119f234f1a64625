"""Command line: ``python -m perfbench run`` and ``... compare``.

``run --workload NAME --seed N --seconds S --trace 0|1`` is the form
the acceptance driver calls (the command in ``BENCHMARK.json``): one
workload, one mode, and as the last line of stdout one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``run`` without ``--workload`` is the form people call: every workload
untraced, then a shorter traced run of each, every metric printed by
name and unit, the correctness checks listed, and one JSON result file
written for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from perfbench import ROOT
from perfbench.stats import median


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="one workload (driver form); "
                     "default: all of BENCHMARK.json")
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--seconds", type=float,
                     help="measured seconds per run "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="with --workload: 0 end-to-end, 1 per-layer")
    run.add_argument("--txns", type=int,
                     help="bound runs by transaction count, not time "
                          "(exact counts then repeat for a seed)")
    run.add_argument("--smoke", action="store_true",
                     help="every workload at ~1/20 length")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced runs per workload (medians, quartiles)")
    run.add_argument("--out", help="result file "
                     "(default .perfbench_work/result-seed<seed>.json)")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("other")
    return parser.parse_args(argv)


def merge_repeats(reports: List[dict]) -> dict:
    """K untraced runs of one workload as one report: medians as the
    values, the K per-run values as the samples."""
    if len(reports) == 1:
        return reports[0]
    names = list(reports[0]["values"])
    samples = {name: [r["values"][name] for r in reports] for name in names}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "values": {name: median(samples[name]) for name in names},
        "samples": samples,
        "checks": [check for r in reports for check in r["checks"]],
    }


def named_metrics(report: dict, declared: List[dict]) -> Dict[str, dict]:
    """Exactly the metrics BENCHMARK.json declares, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in report["values"]]
    extra = sorted(set(report["values"]) - {m["name"] for m in declared})
    if missing or extra:
        raise SystemExit(f"perfbench and BENCHMARK.json disagree: "
                         f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": report["values"][m["name"]],
                        "unit": m["unit"]} for m in declared}


def print_report(title: str, report: dict, declared: List[dict]) -> None:
    print(f"== {title}: attempted {report['attempted']}, "
          f"failed {report['failed']}, "
          f"{'correct' if report['correct'] else 'INCORRECT'}")
    for name, metric in named_metrics(report, declared).items():
        print(f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']} — {check['detail']}")


def command_run(options: argparse.Namespace) -> int:
    from perfbench.workloads import (BenchError, Plan, WORK_DIR,
                                     benchmark_spec, environment,
                                     run_workload)
    spec = benchmark_spec()
    seconds = options.seconds or float(spec["run_seconds"])
    plan = Plan(seconds, txns=options.txns)
    if options.smoke:
        plan = Plan(seconds / 20.0, setup_samples=1, txns=options.txns)
    try:
        if options.workload:
            report = run_workload(options.workload, options.seed, plan,
                                  bool(options.trace))
            declared = spec["per_layer" if options.trace else "end_to_end"]
            print_report(options.workload, report, declared)
            if options.out:
                write_result(options.out, options, plan, environment(), {
                    options.workload: {
                        "per_layer" if options.trace else "end_to_end":
                        report}})
            print(json.dumps({
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": named_metrics(report, declared)}))
            return 0 if report["correct"] else 1

        workloads = {}
        traced_plan = Plan(plan.seconds / 2.0, plan.setup_samples, plan.txns)
        for name in (w["name"] for w in spec["workloads"]):
            untraced = merge_repeats([
                run_workload(name, options.seed, plan, False)
                for _ in range(options.repeat)])
            print_report(f"{name} (untraced)", untraced, spec["end_to_end"])
            traced = run_workload(name, options.seed, traced_plan, True)
            print_report(f"{name} (traced)", traced, spec["per_layer"])
            workloads[name] = {"end_to_end": untraced, "per_layer": traced}
    except BenchError as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 2
    out = options.out or str(WORK_DIR / f"result-seed{options.seed}.json")
    write_result(out, options, plan, environment(), workloads)
    correct = all(side["correct"] for workload in workloads.values()
                  for side in workload.values())
    print(f"result written to {out}; "
          f"{'all checks passed' if correct else 'CHECKS FAILED'}")
    return 0 if correct else 1


def write_result(path: str, options: argparse.Namespace, plan,
                 env: dict, workloads: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"schema": 1, "seed": options.seed,
                   "seconds": plan.seconds, "txns": plan.txns,
                   "repeat": options.repeat, "environment": env,
                   "workloads": workloads}, handle, indent=1)
        handle.write("\n")


def main(argv: List[str]) -> int:
    options = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if options.command == "compare":
        from perfbench import compare
        from perfbench.workloads import benchmark_spec
        return compare.main(options.base, options.other, benchmark_spec())
    return command_run(options)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
