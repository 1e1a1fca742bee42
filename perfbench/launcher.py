"""Starts orbitkit children for run.py, one at a time, and measures each.

run.py starts this process before it generates any input and sends it
one JSON request per line on stdin:

    {"argv": [...], "cwd": DIR, "stdout": FILE, "stderr": FILE, "timeout": SECONDS}

and reads back one JSON line per request:

    {"returncode": INT, "wall": SECONDS, "cpu": SECONDS, "rss_mb": MB}

Why a separate process: on Linux a child's max-RSS starts from the
memory high-water mark of the process that spawned it, so children of
run.py would report run.py's own peak (inputs, expected outputs) rather
than their own.  This process stays small.  It exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def launch(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                 stderr=err, cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": child.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
