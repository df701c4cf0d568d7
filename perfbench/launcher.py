"""Starts child processes for run.py and reports how each one ended.

Started by run.py as `python3 perfbench/launcher.py`. Each request is
one JSON line on stdin, a command as a list of strings; each reply is
one JSON line on stdout:

    {"seconds": wall time from start to exit, "status": exit status,
     "out": stdout, "err": stderr, "peak_rss_mib": the child's ru_maxrss}

Why a separate process: on Linux, a child started by vfork, as
subprocess does, takes the starting process's peak RSS into its own
ru_maxrss when it execs. Started from run.py, which holds numpy and
sympy, every child would report at least run.py's size. This process
stays small, and its children report their own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(cmd: list[str]) -> dict:
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"seconds": seconds, "status": proc.returncode,
            "out": out.decode(), "err": err[0].decode(),
            "peak_rss_mib": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
