"""The sweep runners' name for the native tier's campaign entry.

Kernel acquisition — the memory cache, the disk cache, and one batched
``cc`` for every miss — lives in :mod:`repro.machine.native`.  This
module only re-exports :func:`~repro.machine.native.precompile` under
the name the sweep runner, ``benchmarks/bench_speed.py`` and the
benchmark's traced launcher call.
"""

from repro.machine.native import precompile

__all__ = ["precompile"]
