"""Tests for the command-line interface."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.export import find_compiler

FIG1 = """
int a[128];
int b[128];
int c[128];
for (i = 0; i < 100; i++) {
    a[i + 3] = b[i + 1] + c[i + 2];
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "fig1.c"
    path.write_text(FIG1)
    return str(path)


class TestSimdizeCommand:
    def test_prints_altivec_code(self, source_file, capsys):
        assert main(["simdize", source_file]) == 0
        out = capsys.readouterr().out
        assert "vec_perm(" in out
        assert "policy: dominant" in out

    def test_generic_dialect_and_policy(self, source_file, capsys):
        assert main(["simdize", source_file, "--dialect", "generic",
                     "--policy", "zero"]) == 0
        out = capsys.readouterr().out
        assert "vshiftpair(" in out
        assert "policy: zero, stream shifts: 3" in out


class TestRunCommand:
    def test_reports_metrics(self, source_file, capsys):
        assert main(["run", source_file, "--unroll", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "speedup" in out

    def test_runtime_bindings(self, tmp_path, capsys):
        path = tmp_path / "rt.c"
        path.write_text("int a[300]; int b[300]; int n; int alpha;"
                        "for (i = 0; i < n; i++) { a[i] = b[i+1] * alpha; }")
        assert main(["run", str(path), "--trip", "200",
                     "--set", "alpha=3"]) == 0
        out = capsys.readouterr().out
        assert "trip 200" in out

    def test_fallback_note(self, tmp_path, capsys):
        path = tmp_path / "small.c"
        path.write_text("int a[300]; int b[300]; int n;"
                        "for (i = 0; i < n; i++) { a[i] = b[i+1]; }")
        assert main(["run", str(path), "--trip", "5"]) == 0
        assert "fallback" in capsys.readouterr().out


class TestExportCommand:
    def test_writes_file(self, source_file, tmp_path, capsys):
        out_path = tmp_path / "out.c"
        assert main(["export", source_file, "-o", str(out_path)]) == 0
        assert "_mm_load_si128" in out_path.read_text()

    def test_altivec_backend(self, source_file, capsys):
        assert main(["export", source_file, "--backend", "altivec"]) == 0
        assert "vec_ld(" in capsys.readouterr().out

    @pytest.mark.skipif(find_compiler() is None, reason="no C compiler")
    def test_validate_flag(self, source_file, capsys):
        assert main(["export", source_file, "--validate"]) == 0
        assert "SIMDAL_OK" in capsys.readouterr().out


class TestExplainCommand:
    def test_shows_alignments_and_policies(self, source_file, capsys):
        assert main(["explain", source_file]) == 0
        out = capsys.readouterr().out
        assert "b[i+1]" in out and "offset" in out
        assert "zero" in out and "dominant" in out
        assert "memory  |" in out

    def test_dependence_report_shown(self, tmp_path, capsys):
        path = tmp_path / "dep.c"
        path.write_text("int a[64];"
                        "for (i = 0; i < 40; i++) { a[i] = a[i] + 1; }")
        assert main(["explain", str(path)]) == 0
        assert "same-iteration" in capsys.readouterr().out


class TestBenchCommand:
    def test_fig11_small(self, capsys):
        assert main(["bench", "fig11", "--count", "2",
                     "--trip-count", "61"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out and "LAZY-pc" in out

    def test_coverage_small(self, capsys):
        assert main(["bench", "coverage", "--count", "1"]) == 0
        assert "verified" in capsys.readouterr().out


class TestErrors:
    def test_bad_source_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("this is not a loop")
        assert main(["simdize", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_set_binding(self, tmp_path, capsys):
        path = tmp_path / "rt.c"
        path.write_text("int a[300]; int n;"
                        "for (i = 0; i < n; i++) { a[i] = 1; }")
        assert main(["run", str(path), "--trip", "50", "--set", "oops"]) == 1


#: Prints the child's frozen-object count at interpreter exit, after
#: the entry's ``sys.exit``.
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(\n"
    "    f'freeze count {gc.get_freeze_count()}\\n'))\n"
)


class TestProcessEntry:
    """``python -m repro`` freezes the heap once ``main()`` returns;
    ``main()`` never does."""

    def _child(self, tmp_path, module, *args):
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "sitecustomize.py").write_text(_FREEZE_PROBE)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(probe), src]))
        result = subprocess.run([sys.executable, "-m", module, *args],
                                capture_output=True, text=True, env=env,
                                timeout=120)
        frozen = re.search(r"freeze count (\d+)", result.stderr)
        assert frozen, result.stderr
        return result, int(frozen.group(1))

    @pytest.mark.parametrize("module", ["repro", "repro.cli"])
    def test_entry_freezes_the_heap(self, tmp_path, source_file, module):
        result, frozen = self._child(tmp_path, module, "simdize", source_file)
        assert result.returncode == 0, result.stderr
        assert "vec_perm(" in result.stdout
        assert frozen > 0

    def test_entry_exits_with_the_command_code(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("this is not a loop")
        result, frozen = self._child(tmp_path, "repro", "simdize", str(path))
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert frozen > 0

    def test_main_keeps_the_default_collector(self, source_file, capsys):
        before = gc.get_freeze_count()
        assert main(["run", source_file, "--profile"]) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()


class TestProfileCollectorPauses:
    def test_profile_reports_gc_pauses(self, source_file, capsys,
                                       monkeypatch):
        import repro.cli as cli

        parse = cli.compile_source

        def collecting(*args, **kwargs):
            gc.collect()  # one full collection inside the profiled window
            return parse(*args, **kwargs)

        monkeypatch.setattr(cli, "compile_source", collecting)
        assert main(["run", source_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"gc pauses: \d+\.\d{3} s in \d+ collections? "
                         r"\([1-9]\d* full\)", out), out

    def test_no_pause_line_without_profile(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        assert "gc pauses" not in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["run", "{src}"],
        ["run", "{src}", "--profile"],
        ["run", "{bad}", "--profile"],
        ["bench", "fig11", "--count", "1", "--trip-count", "61",
         "--profile"],
    ], ids=["plain", "profile", "failing-profile", "bench-profile"])
    def test_gc_callbacks_unchanged_after_main(self, args, source_file,
                                               tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not a loop")
        argv = [arg.format(src=source_file, bad=bad) for arg in args]
        before = list(gc.callbacks)
        main(argv)
        assert gc.callbacks == before
