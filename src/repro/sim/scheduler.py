"""CFS-like OS scheduler for the simulated machine.

Implements the behaviours the paper's experiments depend on:

* **Fairness** — runnable threads are dispatched by lowest virtual runtime,
  so over-subscribed nodes time-share and ``%CPU`` drops below 100 %
  (process11 in Fig. 1 shows 43.7 %).
* **Core spreading** — like Linux, an idle physical core is preferred over
  the SMT sibling of a busy one, so up to N jobs on an N-core machine each
  get a core to themselves (Figs. 10, 11a).
* **Affinity** — ``taskset``-style pinning restricts a process to chosen
  PUs; §3.4 uses this to force two mcf copies onto one physical core
  (Fig. 11d).
* **Placement stickiness** — a thread prefers its previous PU, minimising
  migrations; migrations and preemptions are counted as context switches.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.sim.cpu_topology import Topology
from repro.sim.process import SimThread

#: vruntime weight per nice level, approximating Linux's 1.25x per step.
NICE_WEIGHT_STEP = 1.25


class Scheduler:
    """Tick-based dispatcher over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._last_assignment: dict[int, SimThread] = {}

    def _eligible_pus(self, thread: SimThread) -> list[int]:
        affinity = thread.process.affinity
        if affinity is None:
            return [p.pu_id for p in self.topology.pus]
        return [p.pu_id for p in self.topology.pus if p.pu_id in affinity]

    def dispatch_columns(
        self,
        threads: list[SimThread],
        tids: np.ndarray,
        vruntimes: np.ndarray,
        candidate_slots: np.ndarray,
        dt: float,
    ) -> dict[int, SimThread]:
        """Assign candidate threads to PUs for one tick of length ``dt``;
        the ``{pu: thread}`` assignment.

        ``candidate_slots`` indexes the parallel ``threads``/``tids``/
        ``vruntimes`` columns (runnable and duty-gated already). Threads
        are considered in vruntime order (fairness), from one
        ``np.lexsort`` over the columns — bitwise the same order as
        ``sorted(key=(vruntime, tid))``, since tids are unique — and
        placed by :meth:`_place`, which the scalar reference dispatch in
        :mod:`repro.verify.reference` shares. Only the walked prefix of the
        order ever materialises thread objects (placement stops when the
        PUs run out).
        """
        order: Iterable[SimThread]
        if len(candidate_slots):
            ranked = candidate_slots[
                np.lexsort((tids[candidate_slots], vruntimes[candidate_slots]))
            ]
            order = (threads[slot] for slot in ranked)
        else:
            order = ()
        return self._place(order, dt)

    def _place(self, order: Iterable[SimThread], dt: float) -> dict[int, SimThread]:
        """Walk threads in fairness order and place them on free PUs;
        return the ``{pu: thread}`` assignment.

        Each thread picks, in preference order: its previous PU if free
        and eligible; a free PU on a fully idle core; any free eligible
        PU. Unplaced threads wait. All scheduler side effects (vruntime,
        ``last_pu``, context switches, placement memory) happen here,
        identically for the kernel and the reference.
        """
        free_pus = {p.pu_id for p in self.topology.pus}
        core_busy: dict[int, int] = {}
        assignment: dict[int, SimThread] = {}

        for thread in order:
            if not free_pus:
                break
            eligible = [pu for pu in self._eligible_pus(thread) if pu in free_pus]
            if not eligible:
                continue
            chosen = self._pick_pu(thread, eligible, core_busy)
            free_pus.discard(chosen)
            core = self.topology.pu(chosen).core_id
            core_busy[core] = core_busy.get(core, 0) + 1
            assignment[chosen] = thread

        previous = self._last_assignment
        for pu, thread in assignment.items():
            if previous.get(pu) is not thread:
                thread.context_switches += 1
            weight = NICE_WEIGHT_STEP ** thread.process.nice
            thread.vruntime += dt * weight
            thread.last_pu = pu
        self._last_assignment = dict(assignment)
        return assignment

    def _pick_pu(
        self, thread: SimThread, eligible: list[int], core_busy: dict[int, int]
    ) -> int:
        def core_of(pu: int) -> int:
            return self.topology.pu(pu).core_id

        idle_core = [pu for pu in eligible if core_busy.get(core_of(pu), 0) == 0]
        pool = idle_core or eligible
        if thread.last_pu in pool:
            return thread.last_pu
        return min(pool)

    def forget(self, thread: SimThread) -> None:
        """Drop a dead thread from placement memory."""
        for pu, t in list(self._last_assignment.items()):
            if t is thread:
                del self._last_assignment[pu]
