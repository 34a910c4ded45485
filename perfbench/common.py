"""Shared helpers: paths, statistics, memory, host fingerprint, records."""

from __future__ import annotations

import json
import os
import platform
import resource
import hashlib
import subprocess
import sys
import time

#: Everything a run leaves behind lives here, inside the checkout.
STATE_DIR = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))
#: Nominal time of one calibration loop on the build host. It only
#: fixes the unit of the reference seconds timings are reported in
#: (README.md, "Steadiness").
CAL_REFERENCE_S = 1.0e-3
_CAL_ITEMS = [None] * 20000


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _calibration_loop() -> None:
    # Pure interpreter dispatch: it allocates nothing (small ints are
    # shared), so the program's heap and caches cannot lengthen it; only
    # the host's speed can.
    x = 0
    for _ in _CAL_ITEMS:
        x = (x + 7) & 127
        if x > 100:
            x -= 50


def host_factor(n: int = 2) -> float:
    """How much slower than nominal the host runs right now: the fastest
    of ``n`` calibration loops over :data:`CAL_REFERENCE_S`. Host seconds
    divided by it are reference seconds."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best / CAL_REFERENCE_S


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set of a live child, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def fingerprint() -> dict:
    """Host and code identity recorded with every result."""
    from repro.exec import SIM_VERSION
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    # The checkout need not be a git repository; git must not look for
    # one above it.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sim_version": SIM_VERSION,
        "git_commit": commit,
        "src_digest": source_digest(),
        "platform": platform.platform(),
    }


def source_digest(*extra: str) -> str:
    """Digest of every ``.py`` file under ``src`` (and of ``extra``
    files): the program's identity where there is no git commit."""
    paths = list(extra)
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        paths += [os.path.join(root, name) for name in sorted(files)
                  if name.endswith(".py")]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def write_record(name: str, record: dict) -> str:
    """Persist one run's full record under the state directory."""
    out_dir = os.path.join(STATE_DIR, "records")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
