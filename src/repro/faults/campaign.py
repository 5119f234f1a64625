"""One fault campaign: torture, chaos and fuzz, on two substrates.

The three simulator fault harnesses differ only in their fault source:
crash sites (:mod:`repro.torture`), adversary schedules
(:mod:`repro.chaos`) and random crash/partition draws
(:mod:`repro.fuzz`).  Everything else lives here: the presumption x
variant cell grid and its seeds, the runner (:class:`Trial`), the one
verdict (:func:`judge`), the :class:`Run`/:class:`Cell`/:class:`Report`
shapes, the process-pool sweep and the replayable artifact envelope.

Every run gets every check, whatever injected its faults:

* :class:`~repro.verify.ProtocolChecker` rules R1-R7 (R6: atomicity);
* rule RL on a restarted node right after its restart recovery, and on
  every node at the end of the run;
* the non-heuristic durable outcomes of all participants agree;
* RI: no node's stable log holds two COMMITTED (or two ABORTED)
  records for the transaction — decision application is idempotent;
* the run quiesces within the event budget;
* the root's commit operation completes, unless the root crashed.

Cells build their whole world from their arguments, so serial and
parallel sweeps are bit-identical.  Live torture
(:mod:`repro.transport.torture`) is the same crash-site campaign on
real sockets and WAL restarts; it reports through the same
:class:`Run`/:class:`Cell`/:class:`Report` and judges every
transaction with the same :func:`judge`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
    ProtocolConfig,
)
from repro.core.spec import TransactionSpec
from repro.log.group_commit import GroupCommitPolicy
from repro.log.records import LogRecordType
from repro.parallel.pool import RunSpec, run_specs
from repro.sim.kernel import SimulationError
from repro.verify import ProtocolChecker

CONFIGS: Dict[str, ProtocolConfig] = {
    "BASIC": BASIC_2PC,
    "PA": PRESUMED_ABORT,
    "PN": PRESUMED_NOTHING,
    "PC": PRESUMED_COMMIT,
}
CONFIG_NAMES: Tuple[str, ...] = tuple(CONFIGS)

#: Optimization variants layered on each presumption.  ``missing-rm``
#: is the recovery-degradation scenario: the crashed node's detached
#: resource manager does not come back after the restart, so in-doubt
#: relocking must surface a ``relock-missing-rm`` anomaly (rule RL
#: fails the run if the loss is silent).
VARIANTS: Tuple[str, ...] = ("baseline", "read-only", "last-agent",
                             "group-commit", "missing-rm")

#: Failure-handling timeouts short enough that recovery retries and
#: inquiries resolve well inside the horizon.
TIMEOUTS = dict(ack_timeout=15.0, retry_interval=15.0, vote_timeout=25.0,
                inquiry_timeout=25.0, work_timeout=40.0)

HORIZON = 600.0
MAX_EVENTS = 200_000

#: Artifact ``kind`` per harness; artifacts carry version 1.
ARTIFACT_KINDS = {"torture": "torture-site-failure",
                  "chaos": "chaos-schedule-failure"}
ARTIFACT_VERSION = 1


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def cell_seed(seed: int, tag: str) -> int:
    """Deterministic seed for one cell (or run), independent of order."""
    return (seed * 1_000_003 + zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF


def cell_config(config_name: str, variant: str) -> ProtocolConfig:
    config = CONFIGS[config_name].with_options(**TIMEOUTS)
    if variant == "baseline" or variant == "missing-rm":
        return config.with_options(read_only=False)
    if variant == "read-only":
        return config.with_options(read_only=True)
    if variant == "last-agent":
        return config.with_options(last_agent=True)
    if variant == "group-commit":
        return config.with_options(
            group_commit=GroupCommitPolicy(group_size=2, timeout=2.0))
    raise ValueError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Run:
    """One judged run: what its fault source did, and the verdict."""

    label: str
    #: The fault source's serialised description of the run.
    fault: Dict
    verdict: str                 # "ok" | "violations" | "no-quiescence"
                                 # | "not-fired" | "unresolved"
    violations: List[str] = field(default_factory=list)
    outcome: Optional[str] = None
    #: Lines a harness adds after the sweep (chaos: the shrunk schedule).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def describe(self) -> str:
        text = f"{self.label}: {self.verdict}"
        if self.outcome is not None:
            text += f" (outcome={self.outcome})"
        return text

    def to_dict(self) -> Dict:
        return {**self.fault, "verdict": self.verdict,
                "violations": list(self.violations),
                "outcome": self.outcome}


@dataclass
class Cell:
    """All runs of one (config, variant) cell."""

    config_name: str
    variant: str
    seed: int
    runs: List[Run] = field(default_factory=list)
    #: The harness's one-line account of the cell, before its status.
    summary: str = ""
    #: A site-recording harness's clean run: the crash sites it
    #: exposed (None for harnesses that record none), how many a cap
    #: skipped, its failures and its outcome.
    sites: Optional[list] = None
    sites_truncated: int = 0
    clean_violations: List[str] = field(default_factory=list)
    clean_outcome: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.config_name}/{self.variant}"

    @property
    def failures(self) -> List[Run]:
        return [run for run in self.runs if not run.ok]

    @property
    def clean(self) -> bool:
        return not self.clean_violations and not self.failures

    def to_dict(self) -> Dict:
        data = {"config": self.config_name, "variant": self.variant,
                "seed": self.seed,
                "runs": [run.to_dict() for run in self.runs]}
        if self.sites is not None:
            data.update(clean_outcome=self.clean_outcome,
                        clean_violations=list(self.clean_violations),
                        sites=[site.to_dict() for site in self.sites],
                        sites_truncated=self.sites_truncated)
        return data


@dataclass
class Report:
    """A whole sweep: one :class:`Cell` per (config, variant)."""

    seed: int
    cells: List[Cell]
    header: str
    #: What failing runs are called: in a status, and in the count.
    units: Tuple[str, str]
    #: Minimal faults of failing runs, keyed by (cell name, run index).
    shrunk: Dict[Tuple[str, int], List[Dict]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(cell.clean for cell in self.cells)

    @property
    def total_runs(self) -> int:
        return sum(len(cell.runs) for cell in self.cells)

    def failures(self) -> List[Tuple[Cell, Run]]:
        return [(cell, run) for cell in self.cells
                for run in cell.failures]

    def to_dict(self) -> Dict:
        return {"seed": self.seed,
                "cells": [cell.to_dict() for cell in self.cells]}

    def describe(self) -> str:
        lines = [self.header]
        for cell in self.cells:
            status = "ok"
            if cell.clean_violations:
                status = f"CLEAN-RUN VIOLATIONS ({len(cell.clean_violations)})"
            elif cell.failures:
                status = (f"{len(cell.failures)} FAILING "
                          f"{self.units[0].upper()}")
            lines.append(f"  {cell.name}: {cell.summary} — {status}")
            for violation in cell.clean_violations:
                lines.append(f"    clean run: {violation}")
            for run in cell.failures:
                lines.append(f"    {run.describe()}")
                lines.extend(f"      {line}"
                             for line in run.notes + run.violations)
        lines.append(f"no failing {self.units[0]}" if self.clean
                     else f"{len(self.failures())} failing {self.units[1]}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner and the verdict
# ----------------------------------------------------------------------
class Trial:
    """One run of a workload on a cluster, checked from start to end.

    Build it, arm the fault source on :attr:`cluster`, then :meth:`run`
    and take the :meth:`result`.  ``instrument``, when given, is called
    with the cluster before anything attaches — the hook the
    flight-recorder journal uses to record artifact replays.
    """

    def __init__(self, cluster: Cluster, spec: TransactionSpec,
                 instrument: Optional[Callable[[Cluster], object]] = None
                 ) -> None:
        if instrument is not None:
            instrument(cluster)
        self.cluster = cluster
        self.spec = spec
        self.checker = ProtocolChecker().attach(cluster)
        self.quiesced = False
        self._handles: list = []

    def restarted(self, node_name: str) -> None:
        """Rule RL, right after ``node_name``'s restart recovery."""
        self.checker.check_recovery_locks(node_name)

    def run(self) -> None:
        """Start the workload inside the kernel and run to the horizon.

        The start rides ``call_soon`` so armed crash sites can
        interrupt enrollment sends, and a site recording and its
        replays see the same event sequence — the same site ordinals.
        """
        cluster = self.cluster
        cluster.simulator.call_soon(
            lambda: self._handles.append(
                cluster.start_transaction(self.spec)),
            name="campaign-start")
        try:
            cluster.run_until(HORIZON, max_events=MAX_EVENTS)
        except SimulationError:
            return
        self.quiesced = True

    @property
    def outcome(self) -> Optional[str]:
        handle = self._handles[0] if self._handles else None
        return handle.outcome if handle is not None and handle.done else None

    @property
    def stall(self) -> List[str]:
        """Why the run did not quiesce (read only when it did not)."""
        return [f"run did not quiesce within {MAX_EVENTS} events"]

    def result(self, label: str, fault: Dict, fired: bool = True) -> Run:
        verdict, violations = judge(self, fired)
        return Run(label, fault, verdict, violations, self.outcome)


def judge(trial: Trial, fired: bool = True) -> Tuple[str, List[str]]:
    """The verdict on a finished run: (verdict, violations).

    ``trial`` is a :class:`Trial` or anything that reads like one for a
    single transaction — ``cluster``, ``checker``, ``spec``,
    ``outcome``, ``quiesced`` and ``stall`` (the live substrate's is in
    :mod:`repro.transport.torture`).  ``fired`` says whether the run's
    armed fault happened at all.  ``ok`` comes with no violations, and
    every other verdict with at least one.
    """
    cluster, checker = trial.cluster, trial.checker
    txn_id = trial.spec.txn_id
    checker.check_atomicity(txn_id)
    for name in cluster.nodes:
        checker.check_recovery_locks(name)
    violations = [str(v) for v in checker.violations]
    violations += _durable_agreement(cluster, txn_id)
    violations += _durable_idempotence(cluster, txn_id)
    if not trial.quiesced:
        return "no-quiescence", violations + trial.stall
    if not fired:
        return "not-fired", violations + ["the armed fault never fired"]
    if violations:
        return "violations", violations
    root = cluster.nodes[trial.spec.root.node]
    if trial.outcome is None and not root.crash_count:
        return "unresolved", ["root commit operation never completed"]
    return "ok", []


def _durable_agreement(cluster: Cluster, txn_id: str) -> List[str]:
    outcomes = {}
    for name in cluster.nodes:
        durable = cluster.durable_outcome(name, txn_id)
        if durable is not None and not durable.startswith("heuristic"):
            outcomes[name] = durable
    if len(set(outcomes.values())) > 1:
        return [f"durable outcomes disagree: {outcomes}"]
    return []


def _durable_idempotence(cluster: Cluster, txn_id: str) -> List[str]:
    """RI: a decision reaches each stable log at most once."""
    violations = []
    for name, node in cluster.nodes.items():
        for record_type in (LogRecordType.COMMITTED,
                            LogRecordType.ABORTED):
            count = sum(1 for r in node.log.stable.records_for(txn_id)
                        if r.record_type is record_type)
            if count > 1:
                violations.append(
                    f"[RI] txn {txn_id}: {name} logged "
                    f"{record_type.value} {count} times (decision "
                    f"application is not idempotent)")
    return violations


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def sweep(harness: str, run_cell: Callable[..., Cell],
          configs: Optional[Sequence[str]],
          variants: Optional[Sequence[str]], allowed: Sequence[str],
          seed: int, workers: Optional[int], *args) -> List[Cell]:
    """``run_cell(config, variant, seed, *args)`` over the grid.

    Cells are sharded over :mod:`repro.parallel.pool` and come back in
    grid order; ``run_cell`` must be a module-level function.
    """
    config_names = list(configs) if configs else list(CONFIG_NAMES)
    variant_names = list(variants) if variants else list(allowed)
    for name in config_names:
        if name not in CONFIGS:
            raise ValueError(f"unknown config {name!r}; "
                             f"choose from {CONFIG_NAMES}")
    for name in variant_names:
        if name not in allowed:
            raise ValueError(f"unknown {harness} variant {name!r}; "
                             f"choose from {tuple(allowed)}")
    return run_specs([
        RunSpec(fn=run_cell, args=(config_name, variant, seed, *args),
                label=f"{harness}:{config_name}/{variant}")
        for config_name in config_names
        for variant in variant_names
    ], workers=workers)


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def save_artifact(directory: str, harness: str, config_name: str,
                  variant: str, seed: int, fault: Dict, verdict: str,
                  violations: List[str],
                  spec: Optional[TransactionSpec] = None) -> str:
    """Write one replayable failure artifact; returns its path.

    The cell coordinates and ``fault`` are what a replay needs; the
    verdict, violations and workload spec are for the reader.
    """
    from repro.transport.wire import spec_to_wire
    data: Dict = {"version": ARTIFACT_VERSION,
                  "kind": ARTIFACT_KINDS[harness],
                  "config": config_name, "variant": variant, "seed": seed,
                  **fault, "verdict": verdict,
                  "violations": list(violations)}
    if spec is not None:
        data["spec"] = spec_to_wire(spec)
    digest = zlib.crc32(json.dumps(fault, sort_keys=True).encode("utf-8"))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{harness}-{config_name}-{variant}-"
                                   f"s{seed}-{digest:08x}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str, harness: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") != ARTIFACT_KINDS[harness]:
        raise ValueError(f"{path} is not a {harness} artifact "
                         f"(kind={data.get('kind')!r})")
    if data.get("version") != ARTIFACT_VERSION:
        raise ValueError(f"{path} has unsupported artifact version "
                         f"{data.get('version')!r}")
    return data
