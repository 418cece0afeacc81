"""Child processes that cannot outlive the benchmark.

Every child starts in its own process group and with a parent-death
signal, so a benchmark killed outright still takes its servers with it;
``reap_all`` (run from ``finally``, ``atexit`` and the SIGTERM/SIGINT
handlers) signals each group and waits for it.  ``serve`` additionally
gets ``--parent-pid``.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_PR_SET_PDEATHSIG = 1

_live: list[subprocess.Popen] = []


def _die_with_parent() -> None:  # runs in the child between fork and exec
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def env() -> dict[str, str]:
    out = dict(os.environ)
    out["PYTHONPATH"] = str(SRC) + (os.pathsep + out["PYTHONPATH"] if out.get("PYTHONPATH") else "")
    return out


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env(),
        start_new_session=True,
        preexec_fn=_die_with_parent,
        **kwargs,
    )
    _live.append(proc)
    return proc


def _group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


def _wait_gone(pgid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not _group_gone(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def reap(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Stop a child's process group; SIGKILL whatever outlives ``grace``."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 5.0)):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, sig)
        try:
            proc.wait(timeout=wait)
        except subprocess.TimeoutExpired:
            continue
        if _wait_gone(proc.pid, wait):
            break
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    if proc in _live:
        _live.remove(proc)


def reap_all() -> None:
    while _live:
        reap(_live[-1], grace=5.0)


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def install_cleanup() -> None:
    atexit.register(reap_all)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def get_json(url: str, timeout: float = 5.0) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, {}


def start_http(args: list[str], banner: str, timeout: float = 60.0):
    """Spawn a listening CLI subcommand; return ``(proc, port, setup_s)``.

    Set-up time runs from spawn until ``/readyz`` first answers 200.
    """
    t0 = time.perf_counter()
    proc = spawn(["-m", "repro.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    if not line.startswith(banner):
        reap(proc)
        raise RuntimeError(f"{args[0]} did not start: {line!r}")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    deadline = t0 + timeout
    while True:
        try:
            status, _ = get_json(f"http://127.0.0.1:{port}/readyz", timeout=1.0)
        except OSError:
            status = 0
        if status == 200:
            return proc, port, time.perf_counter() - t0
        if time.perf_counter() > deadline or proc.poll() is not None:
            reap(proc)
            raise RuntimeError(f"{args[0]} never became ready")
        time.sleep(0.005)
