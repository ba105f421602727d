"""The disk cache tier: size budget, eviction order, and scan count.

:class:`~repro.cache.DiskCache` keeps a running byte tally so a write
scans the cache directory only when the tally is unknown, when the
write crosses ``max_bytes``, or after ``max_bytes // 16`` bytes written
since the last scan, and an eviction frees the cache down to 7/8 of
``max_bytes``.  Everything here pins that accounting and the eviction
order it drives.
"""

from __future__ import annotations

from repro.bench.runner import SweepConfig, measure_many
from repro.bench.synth import SynthParams
from repro.cache import DiskCache
from repro.ir.types import INT32
from repro.profiling import PhaseProfile
from repro.simdize import SimdOptions


def _ragged_class(trips, seed=3):
    """Runtime-trip sweep configs differing only in their trip count."""
    options = SimdOptions(policy="eager", reuse="sp")
    return [
        SweepConfig(
            SynthParams(loads=3, statements=1, trip=trip, bias=0.3,
                        reuse=0.3, dtype=INT32, runtime_trip=True),
            seed, options, 16, "test",
        )
        for trip in trips
    ]


class TestDiskCacheEviction:
    """The disk tier stays under REPRO_CACHE_MAX_BYTES."""

    def _fill(self, cache, keys, payload=2048):
        """Write entries with strictly increasing mtimes, evictions off."""
        import os
        import time

        budget, cache.max_bytes = cache.max_bytes, 0
        for i, key in enumerate(keys):
            cache.put(key, b"x" * payload)
            # Distinct mtimes make LRU order deterministic on coarse
            # filesystem timestamps.
            os.utime(cache._path(key), (time.time() + i, time.time() + i))
        cache.max_bytes = budget

    def test_eviction_keeps_size_under_budget(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=8192)
        self._fill(cache, [f"k{i}" for i in range(8)])
        cache.put("k8", b"x" * 2048)
        total = sum(p.stat().st_size
                    for p in (tmp_path / "cache").glob("??/*.pkl"))
        assert total <= 8192
        assert cache.evictions > 0
        assert cache.stats()["evictions"] == cache.evictions

    def test_oldest_evicted_newest_survives(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=6144)
        self._fill(cache, ["old", "mid", "new"])
        cache.put("push", b"x" * 2048)
        assert cache.get("old") is None
        assert cache.get("new") == b"x" * 2048

    def test_get_touch_refreshes_recency(self, tmp_path):
        import os
        import time

        cache = DiskCache(tmp_path / "cache", max_bytes=6144)
        self._fill(cache, ["a", "b", "c"])
        # Make "a" the most recently used despite being written first.
        assert cache.get("a") is not None
        now = time.time() + 100
        os.utime(cache._path("a"), (now, now))
        cache.put("push", b"x" * 2048)
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_zero_budget_means_unlimited(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=0)
        self._fill(cache, [f"k{i}" for i in range(20)])
        assert cache.evictions == 0
        assert all(cache.get(f"k{i}") is not None for i in range(20))

    def test_env_var_controls_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert DiskCache(tmp_path).max_bytes == 4096
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert DiskCache(tmp_path).max_bytes == 0
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        from repro.cache import DEFAULT_CACHE_MAX_BYTES

        assert DiskCache(tmp_path).max_bytes == DEFAULT_CACHE_MAX_BYTES
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert DiskCache(tmp_path).max_bytes == DEFAULT_CACHE_MAX_BYTES
        assert DiskCache(tmp_path, max_bytes=123).max_bytes == 123

    def test_evictions_surface_in_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tiny"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        from repro.cache import reset_cache_dir

        reset_cache_dir()
        try:
            profile = PhaseProfile()
            # A seed no other test uses: the in-process memos must miss
            # so the disk tier actually sees puts to evict.
            measure_many(_ragged_class((45, 61), seed=991),
                         profile=profile)
            assert profile.counts.get("disk_evictions", 0) > 0
            assert "evictions" in profile.format()
        finally:
            reset_cache_dir()

    @staticmethod
    def _disk_bytes(root):
        return sum(p.stat().st_size for p in root.glob("??/*")
                   if not p.name.endswith((".tmp", ".corrupt")))

    def test_puts_under_budget_scan_once(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=1 << 30)
        for i in range(256):
            cache.put(f"k{i}", b"x" * 64)
        assert cache.stats()["scans"] == 1
        assert cache.evictions == 0

    def test_crossing_put_scans_once_and_evicts_oldest(self, tmp_path):
        import os
        import time

        cache = DiskCache(tmp_path / "cache", max_bytes=8192)
        self._fill(cache, ["old", "mid", "new"])
        os.utime(cache._path("old"), (1, 1))
        # The first write scans and learns the tally; it stays under
        # budget and below the max_bytes // 16 rescan interval.
        cache.put("probe", b"")
        later = time.time() + 100
        os.utime(cache._path("probe"), (later, later))
        assert cache.stats()["scans"] == 1
        cache.put("push", b"x" * 2048)
        assert cache.stats()["scans"] == 2
        assert cache.evictions == 1
        assert cache.get("old") is None
        assert all(cache.get(k) is not None
                   for k in ("mid", "new", "probe", "push"))

    def test_eviction_leaves_headroom(self, tmp_path):
        """An eviction frees the cache down to 7/8 of its budget, so
        the next small put neither crosses the budget nor scans."""
        budget = 8192
        cache = DiskCache(tmp_path / "cache", max_bytes=budget)
        self._fill(cache, [f"k{i}" for i in range(30)], payload=256)
        assert self._disk_bytes(cache.root) > budget
        cache.put("push", b"x" * 256)
        assert cache.stats()["scans"] == 1
        evictions = cache.evictions
        assert evictions > 0
        assert self._disk_bytes(cache.root) <= budget * 7 // 8
        cache.put("next", b"x" * 300)
        assert cache.stats()["scans"] == 1
        assert cache.evictions == evictions

    def test_hits_never_list_a_directory(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = DiskCache(tmp_path / "cache")
        cache.put("k", {"meta": 1})

        def no_listing(self, *args, **kwargs):
            raise AssertionError(f"a cache hit listed {self}")

        with monkeypatch.context() as patched:
            patched.setattr(Path, "glob", no_listing)
            assert cache.get("k") == {"meta": 1}
        assert cache.stats()["hits"] == 1

    def test_zero_budget_stretch_forgets_the_tally(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=8192)
        cache.put("first", b"")
        assert cache.stats()["scans"] == 1
        self._fill(cache, [f"k{i}" for i in range(8)])
        # Too small to cross a stale tally or reach the rescan
        # interval: only a forgotten tally makes this put scan.
        cache.put("k8", b"")
        assert cache.stats()["scans"] == 2
        assert cache.evictions > 0
        assert self._disk_bytes(cache.root) <= 8192

    def test_concurrent_writers_overshoot_is_bounded(self, tmp_path):
        """Two instances sharing a directory, each blind to the other's
        writes between its own scans, overshoot by at most 2/16."""
        budget = 32 * 1024
        writers = [DiskCache(tmp_path / "cache", max_bytes=budget)
                   for _ in range(2)]
        worst = 0
        for i in range(200):
            writers[i % 2].put(f"k{i}", b"x" * 500)
            worst = max(worst, self._disk_bytes(tmp_path / "cache"))
        assert worst <= budget * (1 + 2 / 16)
        assert sum(w.evictions for w in writers) > 0

    def test_threads_racing_scans_never_raise(self, tmp_path):
        """Threads sharing one instance race each other's scans, which
        reset the tally mid-charge: every put still completes silently."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        cache = DiskCache(tmp_path / "cache", max_bytes=16 * 1024)

        def writer(t):
            for i in range(80):
                cache.put(f"t{t}-{i}", b"x" * 600)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(writer, t) for t in range(4)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert cache.stats()["errors"] == 0
        assert cache.evictions > 0

    def test_scans_surface_in_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "scanned"))
        from repro.cache import reset_cache_dir

        reset_cache_dir()
        try:
            profile = PhaseProfile()
            measure_many(_ragged_class((45, 61), seed=992),
                         profile=profile)
            assert profile.counts.get("disk_scans", 0) >= 1
            assert "scans" in profile.format()
        finally:
            reset_cache_dir()
