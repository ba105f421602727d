"""Self-test of the benchmark's correctness checks.

Runs a short ``figs-cold-jit`` and a short ``serve-mixed`` twice each:
once as they are, and once with one byte of one expected figure output
flipped (figs) or one expected operation count off by one (serve).
Passes when ``ok_share`` is 1.0 on the clean runs and drops, with the
run marked incorrect, on the corrupted ones.  Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import figs
import serve_mixed
from common import RunDir, require_program


def _corrupt_first(fn, corrupt):
    """``fn`` with ``corrupt`` applied to the value of its first distinct
    argument tuple, and only to that one."""
    target = []

    def wrapper(*args):
        value = fn(*args)
        key = args[:2]
        if not target:
            target.append(key)
        return corrupt(value) if key == target[0] else value
    return wrapper


def _flip_byte(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


def _bump_count(fields: dict) -> dict:
    fields = dict(fields)
    fields.setdefault("scalar_ops", 0)
    fields["scalar_ops"] += 1
    return fields


def _figs(run: RunDir) -> tuple[float, bool]:
    out = figs.cold_jit(seed=1, seconds=1, run=run)
    return figs.end_to_end(out)["ok_share"][0], out.mismatched == 0


def _serve(run: RunDir) -> tuple[float, bool]:
    out = serve_mixed.serve_mixed(seed=1, seconds=2, run=run)
    return serve_mixed.end_to_end(out)["ok_share"][0], out.mismatched == 0


def main() -> int:
    require_program()
    results = []
    with RunDir("selftest") as run:
        for name, check, module, attr, corrupt in (
            ("figs", _figs, figs, "expected_output", _flip_byte),
            ("serve", _serve, serve_mixed, "oracle_fields", _bump_count),
        ):
            clean_share, clean_correct = check(run)
            original = getattr(module, attr)
            setattr(module, attr, _corrupt_first(original, corrupt))
            try:
                bad_share, bad_correct = check(run)
            finally:
                setattr(module, attr, original)
            passed = (clean_share == 1.0 and clean_correct
                      and bad_share < 1.0 and not bad_correct)
            results.append(passed)
            print(f"{name}: clean ok_share={clean_share:.4f} "
                  f"correct={clean_correct}; corrupted ok_share="
                  f"{bad_share:.4f} correct={bad_correct} -> "
                  f"{'PASS' if passed else 'FAIL'}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
