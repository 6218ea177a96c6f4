"""Runs `discrimattr` CLI processes one at a time and measures each with
`os.wait4`.

`os.wait4` returns the resource usage of that one child, so each phase's
peak RSS is its own; `resource.getrusage(RUSAGE_CHILDREN)` would report a
running maximum over every child reaped so far. A child's `ru_maxrss` also
starts from the memory high-water mark of the process that forked it, so
children are not forked from the benchmark (which holds the corpus and the
oracle) but from a small launcher process started before anything is
generated. The launcher speaks JSON lines over its stdin and stdout.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

TIMEOUT_S = 150
CLI = ("-m", "discrimattr.cli")


@dataclass
class Sample:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Owns the launcher process; use as a context manager."""

    def __init__(self, src_dir, work_dir):
        self.work_dir = work_dir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DISCRIMATTR_DATA_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(src_dir)
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def cli(self, args, entry=CLI) -> Sample:
        """`python *entry *args`, by default the `discrimattr` CLI, with the
        checkout's `src/` as the only PYTHONPATH entry."""
        out_path, err_path = self.work_dir / "proc.stdout", self.work_dir / "proc.stderr"
        request = {"argv": [sys.executable, *entry, *args], "env": self.env,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process exited")
        return Sample(
            **json.loads(reply),
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def _run(argv, env, stdout, stderr):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        killer = threading.Timer(TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": child.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}  # ru_maxrss is in KiB on Linux


def serve():
    """Launcher loop: one request line in, one reply line out, until EOF."""
    for line in sys.stdin:
        print(json.dumps(_run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    serve()
