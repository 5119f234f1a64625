"""The attach contract every cluster observer shares.

An observer watches a cluster by putting callables on its hook lists
(``network.on_send``, ``node.on_transition``, ``log.on_write``, the
lock managers' ``on_grant``, ...) and on the simulator's event hook.
:class:`Observer` owns the contract; a subclass only names its hooks,
one :meth:`Observer.hook` call each, in :meth:`Observer._install`:

* ``attach(cluster)`` installs them and returns the observer.
  Re-attaching to the same cluster is a no-op; attaching to another
  cluster while attached raises ``RuntimeError`` — ``detach()`` first;
* ``detach()`` removes exactly what was installed, keeps hooks anyone
  else put on the same lists, and is idempotent;
* ``cluster`` is the attached cluster (``None`` when detached) and
  ``attached`` says whether there is one.

The hook lists call the installed callables directly — bound methods
or ``functools.partial`` objects over them — so the contract costs
nothing per event.  This module imports nothing from ``repro``, so
every package can build on it.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple


class Observer:
    """Base of everything that installs callables on a cluster's hooks."""

    #: The attached cluster, or ``None``.
    cluster = None
    #: (remove, hook) per installed callable, in install order (a list
    #: from the first attach on).
    _installed: Sequence[Tuple[Callable, Callable]] = ()

    def attach(self, cluster):
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError(f"{type(self).__name__} is already attached "
                               "to a different cluster; detach() first")
        self.cluster = cluster
        self._installed = []
        try:
            self._install(cluster)
        except BaseException:
            self.detach()
            raise
        return self

    def _install(self, cluster) -> None:
        """Name the hooks: one :meth:`hook` call per installed callable."""
        raise NotImplementedError

    def hook(self, hook_list: list, hook: Callable,
             front: bool = False) -> None:
        """Install ``hook`` on ``hook_list``; ``front`` puts it ahead of
        the callables already there (a crash site must fire before any
        observer records an action that, crashed, never happened)."""
        if front:
            hook_list.insert(0, hook)
        else:
            hook_list.append(hook)
        self._installed.append((hook_list.remove, hook))

    def event_hook(self, simulator, hook: Callable) -> None:
        """Install ``hook`` to run before every simulator event."""
        simulator.add_event_hook(hook)
        self._installed.append((simulator.remove_event_hook, hook))

    def detach(self) -> None:
        """Remove every installed hook; keeps what was observed."""
        for remove, hook in self._installed:
            try:
                remove(hook)
            except ValueError:
                pass  # the hook list was cleared from outside
        self._installed = []
        self.cluster = None

    @property
    def attached(self) -> bool:
        return self.cluster is not None

    @property
    def _now(self) -> float:
        cluster = self.cluster
        return cluster.simulator.now if cluster is not None else 0.0
