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

from collections.abc import Iterable, Iterator

import numpy as np

from repro.sim.cpu_topology import Topology
from repro.sim.process import SimProcess, SimThread

#: vruntime weight per nice level, approximating Linux's 1.25x per step.
NICE_WEIGHT_STEP = 1.25


class Scheduler:
    """Tick-based dispatcher over a :class:`Topology`, whose PU ids (in
    ascending order) and PU-to-core map it builds once, at construction."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._pus = [p.pu_id for p in topology.pus]
        self._core_of = topology.pu_to_core()
        self._last_assignment: dict[int, SimThread] = {}
        #: Live processes with a thread placed since the machine's last
        #: listing took the set (:meth:`SimMachine.listing`). A thread's
        #: CPU time and processor change only on a tick that placed it.
        self.placed: set[SimProcess] = set()

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
        PUs run out), and its slots of ``vruntimes`` are written back
        from the threads, which keeps the column current.
        """
        ranked = candidate_slots[
            np.lexsort((tids[candidate_slots], vruntimes[candidate_slots]))
        ]
        walked = []

        def order() -> Iterator[SimThread]:
            for slot in ranked:
                walked.append(slot)
                yield threads[slot]

        assignment = self._place(order(), dt)
        for slot in walked:
            vruntimes[slot] = threads[slot].vruntime
        return assignment

    def _place(self, order: Iterable[SimThread], dt: float) -> dict[int, SimThread]:
        """Walk threads in fairness order and place them on free PUs;
        return the ``{pu: thread}`` assignment.

        Each thread picks, in preference order: its previous PU if free
        and eligible; the lowest free eligible PU on a fully idle core;
        the lowest free eligible PU. Unplaced threads wait. ``free`` stays
        in PU order, so a pool's lowest PU is its first. All scheduler
        side effects (vruntime, ``last_pu``, context switches, placement
        memory, :attr:`placed`) happen here, identically for the kernel
        and the reference.
        """
        free = self._pus.copy()
        core_of = self._core_of
        busy_cores: list[int] = []
        assignment: dict[int, SimThread] = {}

        for thread in order:
            if not free:
                break
            affinity = thread.process.affinity
            eligible = (
                free if affinity is None else [pu for pu in free if pu in affinity]
            )
            idle = [pu for pu in eligible if core_of[pu] not in busy_cores]
            pool = idle or eligible
            if not pool:
                continue
            chosen = thread.last_pu
            if chosen not in pool:
                chosen = pool[0]
            free.remove(chosen)
            busy_cores.append(core_of[chosen])
            assignment[chosen] = thread

        previous = self._last_assignment
        placed = self.placed
        for pu, thread in assignment.items():
            if previous.get(pu) is not thread:
                thread.context_switches += 1
            weight = NICE_WEIGHT_STEP ** thread.process.nice
            thread.vruntime += dt * weight
            thread.last_pu = pu
            placed.add(thread.process)
        self._last_assignment = dict(assignment)
        return assignment

    def forget(self, thread: SimThread) -> None:
        """Drop a dead thread from placement memory."""
        for pu, t in list(self._last_assignment.items()):
            if t is thread:
                del self._last_assignment[pu]
