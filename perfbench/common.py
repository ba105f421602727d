"""Shared plumbing for the end-to-end benchmark: paths, hermetic child
processes, percentiles and the host record.

Everything here drives ``repro`` from outside: children run
``python -m repro …`` (or the traced launcher) from the checkout root
with ``PYTHONPATH=src``, a private cache dir and a private ``TMPDIR``,
and with every inherited ``REPRO_*`` knob removed, so a run sees only
the inputs the benchmark generated for it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
LAUNCHER = BENCH_DIR / "launcher.py"

#: Wall-clock budget for one CLI child; a hung child fails its unit.
CHILD_TIMEOUT_S = 150.0


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")


class RunDir:
    """A private scratch directory under ``perfbench/out``, removed on close.

    Cache dirs, ``TMPDIR`` and per-child trace files live here, so
    nothing a run writes outlives it except what it copies out.
    """

    def __init__(self, tag: str):
        OUT_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        self._serial = 0

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory (one per cache dir, never shared)."""
        self._serial += 1
        path = self.path / f"{name}-{self._serial}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def child_env(run: RunDir, cache_dir: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir) if cache_dir is not None else ""
    env["TMPDIR"] = str(run.tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_argv(args: list[str], trace_out: Path | None = None) -> list[str]:
    """``python -m repro ARGS``, or the traced launcher around ARGS."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), "--trace-out", str(trace_out),
            "--", *args]


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_mb: float
    spawned_at: float


def run_child(argv: list[str], env: dict[str, str],
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time and its own peak RSS.

    The child is reaped with ``wait4`` so its ``ru_maxrss`` is its own,
    not the maximum over every child this process has had.
    """
    stderr_file = tempfile.TemporaryFile(dir=env["TMPDIR"])
    spawned_at = time.time()
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=stderr_file)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_file.seek(0)
    err = stderr_file.read()
    stderr_file.close()
    return ChildResult(proc.returncode, out, err, seconds,
                       usage.ru_maxrss / 1024.0, spawned_at)


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * fraction
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def host_record(run: RunDir) -> dict:
    """Host facts printed with every result (probed in a child, untimed)."""
    probe = (
        "import json, numpy, repro.machine.native as n\n"
        "print(json.dumps({'numpy': numpy.__version__,\n"
        "    'cc_flags': list(n.compiler_flags()),\n"
        "    'emitter_mode': n.emitter_mode()}))\n"
    )
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "cc": _cc_identity(),
    }
    result = run_child([sys.executable, "-c", probe], child_env(run, None),
                       timeout=60.0)
    if result.returncode == 0:
        record.update(json.loads(result.stdout))
    else:
        record["probe_error"] = result.stderr.decode(errors="replace")[-200:]
    return record


def _cc_identity() -> str:
    """Path and ``--version`` banner of the compiler the native tier finds."""
    for name in ("gcc", "cc", "clang"):
        found = shutil.which(name)
        if found:
            proc = subprocess.run([found, "--version"], capture_output=True,
                                  text=True, timeout=30)
            banner = (proc.stdout or proc.stderr).splitlines()
            return f"{found}: {banner[0] if banner else ''}"
    return "none"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
