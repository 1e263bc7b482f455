"""Process-global set-up of one workload: import, first state, lazy tables.

Run as a script it is the ``setup_s`` probe: a fresh interpreter that
imports ``shadowstream`` from the checkout's ``src/``, builds and
validates the workload's first state (whose first ``eigvalsh`` call pays
LAPACK's start-up) and fills the chain-trace tables the estimators read::

    python3 perfbench/warm.py <n_qubits> <t> <orders, e.g. 2,3>

The benchmark calls :func:`warm` in its own process before any timed
request, so that this cost lands in ``setup_s`` and not in a request.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import ``shadowstream`` from this checkout's ``src/`` only."""
    if not (SRC / "shadowstream" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shadowstream package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm(n_qubits: int, t: float, orders) -> None:
    from shadowstream.kernel import CHAIN_TABLE_MAX, chain_trace_table
    from shadowstream.states import werner_state

    werner_state(n_qubits, t).assert_physical()
    for m in orders:
        if m <= CHAIN_TABLE_MAX:
            chain_trace_table(m)


if __name__ == "__main__":
    use_checkout_source()
    import shadowstream  # noqa: F401  (the import is part of what is timed)

    warm(int(sys.argv[1]), float(sys.argv[2]), [int(m) for m in sys.argv[3].split(",")])
