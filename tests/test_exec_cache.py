"""The shared result cache: key discipline and its one home."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.exec import RunRequest, SIM_VERSION, ResultCache, cache_key
from repro.exec.cache import default_cache_path


def test_key_stable_across_dict_orderings():
    a = RunRequest("epyc-1p", "bcast", 1024, 32,
                   component="xhc", config={"hierarchy": "numa",
                                            "chunk_size": 16384})
    b = RunRequest("epyc-1p", "bcast", 1024, 32,
                   component="xhc", config={"chunk_size": 16384,
                                            "hierarchy": "numa"})
    assert a.key() == b.key()


def test_key_stable_across_process_boundaries():
    # A fresh interpreter (different PYTHONHASHSEED, different dict
    # insertion history) must derive the identical digest — the persistent
    # cache is shared across runs and machines.
    req = RunRequest("epyc-1p", "bcast", 1024, 32,
                     component="xhc", config={"b": 2, "a": 1})
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("from repro.exec import RunRequest\n"
            "print(RunRequest('epyc-1p', 'bcast', 1024, 32,\n"
            "      component='xhc', config={'a': 1, 'b': 2}).key())")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == req.key()


def test_key_includes_sim_version(monkeypatch):
    req = RunRequest("epyc-1p", "bcast", 1024, 32)
    before = req.key()
    import repro.exec.cache as cache_mod
    monkeypatch.setattr(cache_mod, "SIM_VERSION", SIM_VERSION + 1)
    assert req.key() != before


def test_sim_version_bump_misses_cleanly(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.put(RunRequest("epyc-1p", "bcast", 1024, 32).payload(), 2e-6)
    cache.save()
    assert len(ResultCache(path)) == 1

    import repro.exec.cache as cache_mod
    monkeypatch.setattr(cache_mod, "SIM_VERSION", SIM_VERSION + 1)
    stale = ResultCache(path)
    assert len(stale) == 0
    assert stale.get(RunRequest("epyc-1p", "bcast", 1024, 32).payload()) \
        is None


def test_options_do_not_affect_the_key():
    from repro.options import RunOptions
    plain = RunRequest("epyc-1p", "bcast", 1024, 32)
    instrumented = RunRequest("epyc-1p", "bcast", 1024, 32,
                              options=RunOptions(data_movement=True,
                                                 observe="spans"))
    # Instrumentation never changes simulated time, so the payloads (and
    # keys) match; the instrumented request is simply not cacheable.
    assert plain.payload() == instrumented.payload()
    assert plain.cacheable and not instrumented.cacheable


def test_tune_has_no_cache_module():
    # The cache lives only in repro.exec; the tuner re-exports none of it.
    import repro.tune
    with pytest.raises(ModuleNotFoundError):
        import repro.tune.cache  # noqa: F401
    assert not hasattr(repro.tune, "ResultCache")


def test_default_cache_path_shape():
    # The default is the store *root* directory now (sharded layout).
    assert default_cache_path().endswith(os.path.join("results", "cache"))


def test_payload_is_json_safe():
    from repro.shmem.smsc import SmscConfig
    req = RunRequest("epyc-2p", "pingpong", 65536, 2,
                     component="tuned", mapping=(0, 8),
                     smsc=SmscConfig(mechanism="cma"))
    round_tripped = json.loads(json.dumps(req.payload()))
    assert cache_key(round_tripped) == req.key()


# -- corruption hardening (sharded store, via the cache API) -----------------


def test_corrupt_entry_is_a_miss_with_warning_not_a_crash(tmp_path):
    import pytest

    payload = RunRequest("epyc-1p", "bcast", 1024, 32).payload()
    cache = ResultCache(tmp_path)
    cache.put(payload, 2e-6)
    cache.save()
    # Truncate the on-disk entry mid-token (a killed writer pre-dating
    # atomic replace, a bad disk, a bad rsync).
    entry_path = cache.store.entry_path(SIM_VERSION, cache_key(payload))
    with open(entry_path, "w") as fh:
        fh.write('{"latency_s": 2e')

    fresh = ResultCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert fresh.get(payload) is None          # a miss, not a crash
    assert fresh.misses == 1
    # The bad file moved to quarantine and is never parsed again.
    assert os.listdir(fresh.store.quarantine_root)
    assert not os.path.exists(entry_path)
    # The slot is reusable: a re-run repopulates and serves normally.
    fresh.put(payload, 2e-6)
    fresh.save()
    assert ResultCache(tmp_path).get(payload) == 2e-6


def test_save_is_atomic_under_interruption(tmp_path, monkeypatch):
    # Kill the process (simulated) between the tmp write and the replace:
    # the store must contain either the old state or the new, never a
    # half-written entry.
    payload = RunRequest("epyc-1p", "bcast", 1024, 32).payload()
    cache = ResultCache(tmp_path)
    cache.put(payload, 2e-6)

    real_replace = os.replace
    calls = {"n": 0}

    def dying_replace(src, dst):
        calls["n"] += 1
        raise KeyboardInterrupt("simulated kill mid-save")

    monkeypatch.setattr(os, "replace", dying_replace)
    try:
        cache.save()
    except KeyboardInterrupt:
        pass
    monkeypatch.setattr(os, "replace", real_replace)
    assert calls["n"] == 1
    # Nothing landed, nothing is torn: a fresh cache simply misses.
    fresh = ResultCache(tmp_path)
    assert fresh.get(payload) is None
    leftovers = [name for _d, _s, names in os.walk(tmp_path)
                 for name in names if name.endswith(".tmp")]
    assert leftovers == []
