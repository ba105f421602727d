"""Expected figure output from the bytes oracle.

The expected stdout of ``repro bench FIG --trip-count T`` is what the
bytes vector engine and the bytes scalar reference print for it: the
engines every faster tier must match byte for byte.  Files are kept
per figure and trip under ``perfbench/expected`` and generated on
demand (outside every timed window) when a seed asks for a trip that
has none.

Pre-generate the stored set with ``python3 perfbench/oracle.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import BENCH_DIR, RunDir, child_env, repro_argv, run_child

EXPECTED_DIR = BENCH_DIR / "expected"
FIGURES = ("fig11", "fig12")
DEFAULT_TRIP = 509
#: Trips the cold workload draws from; each run uses distinct ones.
TRIP_POOL = tuple(range(497, 522))


def expected_path(figure: str, trip: int) -> Path:
    return EXPECTED_DIR / f"{figure}-t{trip}.txt"


def expected_output(figure: str, trip: int, run: RunDir) -> bytes:
    """The oracle stdout for one figure command, generating it if needed."""
    path = expected_path(figure, trip)
    if not path.is_file():
        args = ["bench", figure, "--trip-count", str(trip), "--backend",
                "bytes", "--scalar-backend", "bytes", "--cache-dir", ""]
        result = run_child(repro_argv(args), child_env(run, None))
        if result.returncode != 0:
            raise RuntimeError(f"oracle {figure} trip {trip} failed: "
                               f"{result.stderr.decode(errors='replace')}")
        EXPECTED_DIR.mkdir(exist_ok=True)
        path.write_bytes(result.stdout)
    return path.read_bytes()


def main() -> int:
    with RunDir("oracle") as run:
        for trip in sorted(set(TRIP_POOL) | {DEFAULT_TRIP}):
            for figure in FIGURES:
                expected_output(figure, trip, run)
                print(expected_path(figure, trip).name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
