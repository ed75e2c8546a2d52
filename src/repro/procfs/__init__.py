"""The /proc substrate: process identity and CPU accounting.

Tiptop pulls "%CPU, processor on which a task is running, etc." from the
/proc filesystem (§2.3). :mod:`repro.procfs.reader` parses the real /proc;
:mod:`repro.procfs.simproc` provides the identical view over a simulated
machine; both list as one columnar :class:`repro.procfs.model.ProcessTable`
whose rows are :class:`repro.procfs.model.ProcessInfo`.
"""

from repro.procfs.model import ProcessInfo, ProcessTable, TaskProvider
from repro.procfs.reader import ProcReader
from repro.procfs.simproc import SimProcReader

__all__ = [
    "ProcReader", "ProcessInfo", "ProcessTable", "SimProcReader", "TaskProvider",
]
