"""End-to-end OPC benchmark: one workload through the service front door.

    python3 perfbench/run.py --workload via-mbopc --seed 1 --seconds 8 \\
        --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory, and nothing else: without it the run
exits non-zero before measuring.  Each run sets up ``SETUP_REPEATS``
times from an empty kernel-spectra store, measures one timed phase of
whole suite cycles lasting at least ``--seconds``, checks every result,
and prints the end-to-end metrics (``--trace 0``) or, after an untraced
and a traced phase, the per-layer metrics (``--trace 1``).  The last
line of standard output is one JSON object; the exit code is 0 only when
every clip was correct.  Records and span traces are written under
``.perfbench-out/``.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing.resource_tracker
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def import_program() -> None:
    """Put ``src/`` first on the path and import ``repro`` from there
    only; exit non-zero when it is missing."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program not found: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not {package}")


def child_pids() -> list[int]:
    """Every process whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone between the listing and the read
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended.  The pools join their workers on shutdown, but the
    multiprocessing resource tracker lives until its pipe closes and
    nobody waits for it, so it is stopped here; anything else still
    running (a pool whose shutdown was cut short) is terminated, then
    killed, and reaped."""
    gc.collect()  # finalize dropped queues first: the tracker unlinks
    # whatever is still registered when it stops
    try:
        multiprocessing.resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError, OSError):
        pass
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass  # already reaped


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        record = harness.measure_run(args, workdir, OUT)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(harness.report(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
