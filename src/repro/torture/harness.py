"""Deterministic crash-point torture matrix.

For every cell (presumption config x optimization variant) the harness
runs the cell's fixed workload twice over:

* **Phase 1** — a clean run with a :class:`SiteRecorder` attached,
  collecting every crash site (forced log write, message send, message
  delivery, per node).
* **Phase 2** — one replay of the same seed per (site, pre/post) pair
  with an :class:`ArmedCrash` injected exactly there.  The crashed
  node restarts after a fixed delay, restart recovery runs to
  quiescence, and the run gets the campaign's one verdict
  (:func:`repro.faults.campaign.judge`).

The grid, runner, verdict, sweep and artifacts are
:mod:`repro.faults.campaign`'s; this module is torture's fault source.
Failing sites emit replayable JSON artifacts consumed by
``repro-2pc torture --replay FILE``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import Cluster
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.faults.campaign import (
    VARIANTS,
    Cell,
    Report,
    Run,
    Trial,
    cell_config,
    cell_seed,
    judge,
    save_artifact,
    sweep,
)
from repro.faults.injector import CrashSite
from repro.lrm.operations import read_op, write_op
from repro.net.latency import UniformLatency
from repro.torture.sites import SiteRecorder, arm_crash

RESTART_DELAY = 20.0


# ----------------------------------------------------------------------
# Cell construction
# ----------------------------------------------------------------------
def cell_spec(config_name: str, variant: str) -> TransactionSpec:
    """The cell's fixed three-node workload (explicit txn id: the
    global transaction counter must not leak into worker processes)."""
    participants = [
        ParticipantSpec(node="n0", ops=[write_op("a", 1)]),
        ParticipantSpec(node="n1", parent="n0", ops=[write_op("b", 2)]),
        ParticipantSpec(node="n2", parent="n0", ops=[write_op("c", 3)]),
    ]
    if variant == "read-only":
        participants[2].ops = [read_op("shared")]
    elif variant == "last-agent":
        participants[2].last_agent = True
    elif variant == "missing-rm":
        participants[1].ops = []
        participants[1].rm_ops = {"aux": [write_op("b", 2)]}
    return TransactionSpec(participants=participants,
                           txn_id=f"torture-{config_name}-{variant}")


def _build_cell(config_name: str, variant: str,
                seed: int) -> Tuple[Cluster, TransactionSpec]:
    config = cell_config(config_name, variant)
    spec = cell_spec(config_name, variant)
    cluster = Cluster(config, nodes=[p.node for p in spec.participants],
                      seed=cell_seed(seed, f"{config_name}/{variant}"),
                      latency=UniformLatency(0.5, 2.0))
    if variant == "missing-rm":
        cluster.nodes["n1"].add_detached_rm("aux")
    return cluster, spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_site(config_name: str, variant: str, seed: int, site: CrashSite,
             when: str, instrument=None) -> Run:
    """Replay one cell with a crash armed at one site."""
    trial = Trial(*_build_cell(config_name, variant, seed),
                  instrument=instrument)
    cluster = trial.cluster

    def on_crash() -> None:
        if variant == "missing-rm" and site.node == "n1":
            # The detached RM does not re-register after the restart:
            # recovery must surface the unlockable in-doubt keys.
            cluster.nodes["n1"].detached_rms.pop("aux", None)

    armed = arm_crash(cluster, site, when=when,
                      restart_after=RESTART_DELAY, on_crash=on_crash,
                      on_restart=partial(trial.restarted, site.node))
    trial.run()
    return trial.result(f"{site.describe()} [{when}]",
                        {"site": site.to_dict(), "when": when},
                        fired=armed.fired)


def record_sites(config_name: str, variant: str,
                 seed: int) -> Tuple[List[CrashSite], List[str],
                                     Optional[str]]:
    """Phase 1: clean run; returns (sites, violations, outcome)."""
    trial = Trial(*_build_cell(config_name, variant, seed))
    recorder = SiteRecorder().attach(trial.cluster)
    trial.run()
    return recorder.sites, judge(trial)[1], trial.outcome


def run_cell(config_name: str, variant: str, seed: int,
             max_sites: Optional[int] = None,
             whens: Sequence[str] = ("pre", "post")) -> Cell:
    """Run one cell: record sites, then replay a crash at each."""
    sites, clean_violations, clean_outcome = record_sites(
        config_name, variant, seed)
    cell = Cell(config_name, variant, seed, sites=sites,
                clean_violations=clean_violations,
                clean_outcome=clean_outcome)
    # A broken baseline is not replayed: replays would only repeat it.
    if not clean_violations:
        if max_sites is not None and len(sites) > max_sites:
            cell.sites_truncated = len(sites) - max_sites
            cell.sites = sites[:max_sites]
        cell.runs = [run_site(config_name, variant, seed, site, when)
                     for site in cell.sites for when in whens]
    truncated = (f", {cell.sites_truncated} sites skipped (cap)"
                 if cell.sites_truncated else "")
    cell.summary = (f"{len(cell.sites)} sites, {len(cell.runs)} "
                    f"replays{truncated}")
    return cell


def torture_sweep(configs: Optional[Sequence[str]] = None,
                  variants: Optional[Sequence[str]] = None,
                  seed: int = 0, workers: Optional[int] = None,
                  max_sites: Optional[int] = None,
                  whens: Sequence[str] = ("pre", "post"),
                  artifact_dir: Optional[str] = None) -> Report:
    """Run the full matrix, cells sharded over the process pool.

    ``workers=1`` and ``workers=N`` sweeps are bit-identical.  With
    ``artifact_dir``, each failing site writes a replayable JSON
    artifact there.
    """
    cells = sweep("torture", run_cell, configs, variants, VARIANTS, seed,
                  workers, max_sites, tuple(whens))
    report = Report(
        seed, cells,
        header=(f"torture matrix: {len(cells)} cells, "
                f"{sum(len(cell.sites) for cell in cells)} sites, "
                f"{sum(len(cell.runs) for cell in cells)} crash replays "
                f"(seed {seed})"),
        units=("sites", "site replays"))
    if artifact_dir is not None:
        for cell, run in report.failures():
            save_artifact(artifact_dir, "torture", cell.config_name,
                          cell.variant, seed, run.fault, run.verdict,
                          run.violations,
                          spec=cell_spec(cell.config_name, cell.variant))
    return report


def replay_artifact(data: Dict, instrument=None) -> Run:
    """Re-run the exact site a failure artifact describes."""
    site = CrashSite.from_dict(data["site"])
    return run_site(data["config"], data["variant"], int(data["seed"]),
                    site, data["when"], instrument=instrument)
