"""The shared steady-loop model (:mod:`repro.machine.steady`).

The window/collision check decides, per run, whether every batched tier
may execute the steady loop as one batch; the figure sweeps exercise
only its accepting branches, so each rule gets one hand-built table
here.  All tables use V = 16 and int32 elements (D = 4) at step 4, so
the stride is one vector and ``elem`` 4 is one iteration ahead.

The layering test pins one owner per concern: no module under
``src/repro`` reads another module's private names, so the shared
semantics (the interpreter's evaluators, this model) stay public and
the twins they replaced cannot come back.
"""

import ast
import types
from pathlib import Path

import pytest

import repro
from repro.ir.expr import ArrayDecl
from repro.ir.types import INT32
from repro.machine import numpy_available
from repro.machine.arrays import BoundArray
from repro.machine.memory import Memory

V, STEP, STRIDE, N = 16, 4, 16, 8
BASE = 64  # array "a" starts here, V-aligned
MEM_SIZE = 2048


def _space():
    return {"a": BoundArray(ArrayDecl("a", INT32, 256), BASE)}


def _check(keys, loads=(), stores=(), mem_size=MEM_SIZE):
    """``window_bases`` on a hand-built table over array ``a``."""
    from repro.machine import steady

    table = steady.SteadyTable(V, STEP, STRIDE, keys, loads, stores)
    return table.window_bases(_space(), mem_size, 0, N)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestWindowRules:
    def test_forward_load_store_collision_reads_snapshot(self):
        """The load's window is stored one iteration *later*: the load
        sees pre-loop memory, so the run batches off a snapshot."""
        from repro.machine import steady

        keys = (("a", 0), ("a", 4))
        table = steady.SteadyTable(V, STEP, STRIDE, keys,
                                   loads=((1, 0),), stores=((0, 0),))
        assert table.window_bases(_space(), MEM_SIZE, 0, N) == (
            [BASE, BASE + STRIDE], True)
        env = types.SimpleNamespace(space=_space(), mem=Memory(MEM_SIZE))
        _bases, mem_u8, read_u8 = steady.buffers(table, env, 0, N)
        assert read_u8 is not mem_u8
        assert read_u8.tobytes() == mem_u8.tobytes()

    def test_backward_load_store_collision_rejected(self):
        """The load reads a window an *earlier* iteration stored: a flow
        dependence the batch cannot honour."""
        from repro.machine import steady

        with pytest.raises(steady.Unbatchable):
            _check((("a", 0), ("a", -4)), loads=((1, 0),), stores=((0, 0),))

    def test_same_iteration_load_after_its_store_rejected(self):
        from repro.machine import steady

        with pytest.raises(steady.Unbatchable):
            _check((("a", 0),), loads=((0, 1),), stores=((0, 0),))

    def test_cross_iteration_store_store_collision_rejected(self):
        """Two statements storing one window in different iterations
        interleave in program order; a batch would not."""
        from repro.machine import steady

        with pytest.raises(steady.Unbatchable):
            _check((("a", 0), ("a", 4)), stores=((0, 0), (1, 1)))

    def test_identical_store_windows_accepted(self):
        """Elements 0 and 1 truncate to one window in every iteration:
        the later statement's batch wins, as it does per iteration."""
        assert _check((("a", 0), ("a", 1)), stores=((0, 0), (1, 1))) == (
            [BASE, BASE], False)

    def test_window_past_end_of_memory_rejected(self):
        from repro.machine import steady

        last_window_end = BASE + (N - 1) * STRIDE + V
        assert _check((("a", 0),), stores=((0, 0),),
                      mem_size=last_window_end) == ([BASE], False)
        with pytest.raises(steady.Unbatchable):
            _check((("a", 0),), stores=((0, 0),),
                   mem_size=last_window_end - 1)


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------

SRC = Path(repro.__file__).parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Modules whose private names no other module may read: all of them.
GUARDED = frozenset(_module_name(path) for path in SRC.rglob("*.py"))

#: The one standing exception: the benchmark's tracer wraps the
#: simdize memo under this name, so it moves into ``repro.simdize``
#: only together with the benchmark.
ALLOWED = {"repro.serve.app": ["repro.bench.runner._cached_simdize"] * 2}


def _dotted(node, aliases: dict) -> str | None:
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(path: Path) -> list[str]:
    """Every read of a guarded module's ``_name`` in one source file,
    by attribute access or by ``from … import``, as ``module._name``."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}  # local name -> guarded module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in GUARDED and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: drop level-1 trailing packages
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in GUARDED:
                    aliases[alias.asname or alias.name] = full
                elif (base in GUARDED and alias.name.startswith("_")
                        and not alias.name.startswith("__")):
                    found.append(full)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            owner = _dotted(node.value, aliases)
            if owner in GUARDED:
                found.append(f"{owner}.{node.attr}")
    return [ref for ref in found if not ref.startswith(name + ".")]


def test_no_module_reads_another_modules_privates():
    """Each concern has one owner: a module that reaches into another's
    private names re-creates a twin of its code or its state."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        refs = private_reads(path)
        if refs:
            offenders[_module_name(path)] = refs
    total = sum(len(refs) for refs in offenders.values())
    assert offenders == ALLOWED, \
        f"{total} private cross-module reads: {offenders}"
