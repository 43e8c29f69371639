"""Machine-speed probes that put timings on a reference-speed scale.

On a shared host the same run can take twice as long from one minute to
the next, because other tenants' load changes how fast the CPU runs.
The benchmark therefore interleaves a fixed unit of work with the
workload and scales every timing by how long that unit took during the
same run.  The units use only the standard library, none of the
program's code, so a change to the program cannot move them.

Run as a script, this prints one :func:`import_probe` time; the
benchmark runs it in fresh interpreters on either side of each timed
import of the program.
"""

from __future__ import annotations

import importlib
import time
from typing import Sequence

#: Mean probe time that defines reference speed: a timing scaled to
#: reference seconds reads as if each probe had taken exactly this long.
PROBE_REF_S = 250e-6


def speed_probe() -> float:
    """Seconds one fixed unit of interpreter work takes right now.

    Dict, list and float work, like the simulator's interpreter-bound
    code; about 0.3 ms on a 2-vCPU Xeon container.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    seen = []
    for i in range(1500):
        table[i & 255] = i * 0.5
        acc += table.get((i * 7) & 255, 0.0)
        seen.append(acc)
    seen.sort()
    return time.perf_counter() - t0


def to_reference(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured while ``probes`` were taken, at reference speed."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


#: Standard-library modules a fresh interpreter has not loaded: finding,
#: unmarshalling and running them, C extensions included, is import work
#: like the program's own.  On a shared 2-vCPU host, the program's import
#: time spread by 0.20 (quartiles over median, 16 imports) raw, 0.27
#: scaled by :func:`speed_probe`, and 0.07 scaled by this probe.
IMPORT_PROBE_MODULES = (
    "xml.dom.minidom", "email.mime.multipart", "xmlrpc.client", "mailbox",
    "sqlite3", "decimal", "ftplib", "smtplib", "imaplib", "difflib", "pydoc",
    "tarfile", "csv", "plistlib", "configparser", "argparse", "unittest",
)

#: Import probe time that defines reference speed for import timings.
IMPORT_REF_S = 0.05


def import_probe() -> float:
    """Seconds to import :data:`IMPORT_PROBE_MODULES`, in a fresh interpreter."""
    t0 = time.perf_counter()
    for module in IMPORT_PROBE_MODULES:
        importlib.import_module(module)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(import_probe())
