"""Run one op as a child process and account for it.

Each op is a fresh interpreter, started only after the previous op has
exited (a closed loop with one client).  Its stdout goes to a file in the
pass directory.  CPU time comes from that child's own rusage via os.wait4,
never from RUSAGE_CHILDREN, which accumulates every earlier child.  Peak
memory is the high-water mark the child records itself (see child.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

# An op that runs longer fails.  The run also caps every op at what is left
# of its hard limit, so that a hung program cannot keep a run past it.
OP_TIMEOUT_S = 90.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")


@dataclass
class Op:
    """One child process.  `kind` is "cli" (argv is an xclab verb and its
    arguments), "api" (argv goes to the API session) or "raw" (argv follows
    the interpreter and is never traced).  The op must exit with
    `expect_exit`; `check` takes its parsed stdout and returns an error
    string or None.  `metric` names the per-op timing it feeds."""

    name: str
    kind: str
    argv: list[str]
    expect_exit: int = 0
    check: Callable[[object], str | None] | None = None
    metric: str | None = None
    stdout: str | None = None

    @property
    def stdout_name(self) -> str:
        return self.stdout or f"{self.name}.out"


@dataclass
class OpResult:
    name: str
    metric: str | None
    seconds: float
    exit_code: int | None
    peak_rss_kb: int
    cpu_s: float
    output_bytes: int
    error: str | None = None
    output: object = None
    spans: list = field(default_factory=list)


def canonical_sha256(obj) -> str:
    """Digest of a result payload, independent of key order and spacing."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(root: str, cache_dir: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("XCLAB_CACHE_DIR", None)
    if cache_dir is not None:
        env["XCLAB_CACHE_DIR"] = cache_dir
    return env


def spawn(argv: list[str], env: dict, cwd: str, stdout_path: str, timeout: float):
    """Run argv to completion.  Returns (seconds, exit code or None on
    timeout, rusage)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, None if timed_out.is_set() else proc.returncode, usage


def run_op(
    op: Op, root: str, workdir: str, cache_dir: str | None, trace: bool,
    timeout: float = OP_TIMEOUT_S,
) -> OpResult:
    stdout_path = os.path.join(workdir, op.stdout_name)
    rss_path = os.path.join(workdir, f"{op.name}.rss")
    spans_path = os.path.join(workdir, f"{op.name}.spans.json")
    traced = trace and op.kind != "raw"
    if op.kind == "raw":
        argv = op.argv
    else:
        argv = [CHILD, op.kind, "--rss", rss_path]
        if traced:
            argv += ["--spans", spans_path, "--op", op.name]
        argv += ["--", *op.argv] if op.kind == "cli" else op.argv
    seconds, code, usage = spawn(
        [sys.executable, *argv], child_env(root, cache_dir), workdir, stdout_path, timeout
    )
    result = OpResult(
        name=op.name,
        metric=op.metric,
        seconds=seconds,
        exit_code=code,
        peak_rss_kb=_read_int(rss_path),
        cpu_s=usage.ru_utime + usage.ru_stime,
        output_bytes=os.path.getsize(stdout_path),
    )
    if code is None:
        result.error = f"timed out after {timeout:.0f} s"
    elif code != op.expect_exit:
        with open(stdout_path + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        result.error = f"exit {code}, expected {op.expect_exit}: {tail}"
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            result.spans = json.load(fh)
    return result


def _read_int(path: str) -> int:
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return 0


def check_op(op: Op, result: OpResult, workdir: str) -> None:
    """Parse the op's stdout and run its check; records the first error."""
    if result.error is not None or op.check is None:
        return
    path = os.path.join(workdir, op.stdout_name)
    try:
        with open(path, encoding="utf-8") as fh:
            result.output = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        result.error = f"unreadable output: {exc}"
        return
    try:
        result.error = op.check(result.output)
    except (KeyError, TypeError, ValueError) as exc:
        result.error = f"output lacks an expected field: {exc!r}"
