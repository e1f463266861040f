"""The repository benchmark: three workloads at production defaults.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload join_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):

* ``join_cold``    — cold CSV load + mine of a ~3·10^4-tuple chain
  database per request (the paper's data-complexity axis);
* ``enum_warm``    — persistent ``workers=2`` engines over small
  databases, mixed metaqueries and decision calls with writes beside
  reads (the combined-complexity axis);
* ``serve_stream`` — two HTTP clients replaying a warmed request pool
  from the in-process server, over ``/mine/stream`` and ``/mine``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from timing wrappers installed
around each layer's public functions for that run only.  Every request's
answers are checked against a reference engine after the timed region.

Standard output ends with two lines: the run's facts (host, versions,
configuration, sample counts, error rate) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  The run refuses to
start when an ablation or debug switch of the program is set in the
environment, so only the shipped configuration is ever measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment switches that select an ablation or debug mode.
REFUSED_ENV = ("REPRO_COLUMNAR", "REPRO_COLUMNAR_BACKEND", "REPRO_SANITIZE", "REPRO_LOOP_MONITOR")

WORKLOAD_NAMES = ("join_cold", "enum_warm", "serve_stream")


def _commit() -> str | None:
    """The checkout's git commit, when it is a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def _source_sha256() -> str:
    """sha256 over the program's sources, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _host_facts() -> dict[str, object]:
    from repro.relational import columnar

    try:
        import numpy
        numpy_version: str | None = numpy.__version__
    except ModuleNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": columnar.backend(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "hash_seed": os.environ["PYTHONHASHSEED"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: only the shipped "
              "configuration is measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # String hashing decides set iteration order, which some generators
    # consume random numbers in: pin it so a seed always gives the same
    # inputs.  exec replaces this process; no child is left behind.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run

    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    try:
        result, facts = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # missing, or another run is still using it
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_host_facts(),
        **facts,
    }
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
