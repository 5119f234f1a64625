"""CPU per committed transaction, by layer, for perfbench's workloads.

Runs ``sim_pa_steady`` and ``live_pa_closed`` (or any perfbench
workload named with ``--workload``) exactly as ``python -m perfbench
run`` does — the same driver, the same host functions, the same
seeded inputs — except that each host process runs its measured
window under :class:`repro.obs.sampler.LayerSampler`.  The window opens
at the host's ``READY`` and closes at the live host's ``SNAP`` (the
end of the load) or when the workload returns.

    python benchmarks/bench_layers.py                     # both, 10 s each
    python benchmarks/bench_layers.py --workload sim_pa_steady \\
        --seconds 15 --json layers.json

Prints CPU ms per committed transaction per layer (the window's CPU
time split by the layers' sample shares), each layer's share, and
perfbench's own ``cpu_ms_per_txn`` for the same run (sampling costs a
few percent, and a live window also holds the drain after the load).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import host, workloads            # noqa: E402
from repro.obs.sampler import LayerSampler      # noqa: E402

#: Where a host writes its sample counts.
OUT_ENV = "BENCH_LAYERS_OUT"


def host_main(argv) -> None:
    """One perfbench host, sampled over its measured window."""
    args = {**host.DEFAULT_ARGS, **json.loads(argv[0])}
    sampler = LayerSampler()
    sampling = []
    emit = host.emit

    def close_window() -> None:
        if sampling:
            sampler.stop()
            sampling.clear()

    def sampled_emit(tag: str, payload: dict) -> None:
        if tag == "SNAP":
            close_window()
        emit(tag, payload)

    def ready(**extra) -> bool:
        emit("READY", {**host.usage(), **extra})
        sampler.start()
        sampling.append(True)
        return not args["setup_only"]

    host.emit = sampled_emit
    result = host.WORKLOADS[args["host"]](args, None, ready)
    close_window()
    with open(os.environ[OUT_ENV], "w") as handle:
        json.dump({"ms": sampler.cpu_ms(), "samples": sampler.counts},
                  handle)
    if result:
        emit("RESULT", result)


class SampledHost(workloads.Host):
    """perfbench's host process, started through :func:`host_main`."""

    async def __aenter__(self) -> "SampledHost":
        self.spawned_at = perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, __file__, "--host", json.dumps(self.args),
            cwd=str(ROOT), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, limit=1 << 24)
        return self


def measure(name: str, seed: int, seconds: float) -> dict:
    """One sampled run of workload ``name``: ms/txn per layer."""
    workloads.Host = SampledHost
    fd, out = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    os.environ[OUT_ENV] = out
    plan = workloads.Plan(seconds)
    run = (workloads.live_host_run if name in workloads.LIVE_WORKLOADS
           else workloads.sim_host_run)
    try:
        result, _setup = asyncio.run(run(name, seed, plan))
        with open(out) as handle:
            sampled = json.load(handle)
    finally:
        os.unlink(out)
    txns = max(result["committed"], 1)
    total = sum(sampled["ms"].values())
    layers = {layer: {"ms_per_txn": ms / txns,
                      "share": ms / total if total else 0.0}
              for layer, ms in sampled["ms"].items()}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "committed": result["committed"],
            "samples": sum(sampled["samples"].values()),
            "sampled_ms_per_txn": total / txns,
            "cpu_ms_per_txn": result["cpu_s"] * 1000.0 / txns,
            "layers": layers}


def render(report: dict) -> str:
    lines = [f"{report['workload']}: {report['committed']} txns, "
             f"{report['samples']} samples; window "
             f"{report['sampled_ms_per_txn']:.3f} ms/txn, perfbench "
             f"cpu_ms_per_txn {report['cpu_ms_per_txn']:.3f}",
             "| layer | ms/txn | share |", "|---|---|---|"]
    for layer, row in report["layers"].items():
        lines.append(f"| {layer} | {row['ms_per_txn']:.4f} | "
                     f"{row['share']:.1%} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", help="write the reports here")
    opts = parser.parse_args(argv)
    reports = [measure(name, opts.seed, opts.seconds)
               for name in opts.workload or ("sim_pa_steady",
                                             "live_pa_closed")]
    for report in reports:
        print(render(report))
        print()
    if opts.json:
        with open(opts.json, "w") as handle:
            json.dump(reports, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--host"]:
        host_main(sys.argv[2:])
        sys.exit(0)
    sys.exit(main())
