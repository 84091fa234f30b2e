"""Benchmark of the gonosomal package.

    python3 benchmarks/run.py --workload {scan,orbit,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the
run fails without printing a result when ``src/gonosomal`` is missing.

One process runs one workload (see ``workloads.py``).  The seed fixes the
workload's list of inputs.  The run goes over the whole list in rounds,
one operation at a time (a closed loop with one client), until the next
round would end past ``--seconds`` (at least three rounds), and checks
every output.  Before and after each round it times a fixed reference
computation (:func:`reference_s`: numpy alone, no gonosomal code), and
it reports operation times in multiples of the mean of those two
reference times.  On a shared 2-CPU virtual machine (Intel Xeon, Python
3.11, numpy 2.4) other tenants' load made the same operation up to 2x
slower at random moments; in 30 s windows a few minutes apart its median
time moved by up to 47%, and its ratio to the reference by up to 10%.
An input's time is the median of its rounds.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: median over 9 fresh interpreters, one before each of the
  first rounds, of ``import gonosomal`` plus ``hemophilia_operator()``,
  process start to exit;
* ``wall_ref``: median over the inputs of one operation's time, in
  reference times (unit ``ref``);
* ``p99_ref``: nearest-rank 99th percentile over the inputs of the same
  (the slowest input when there are fewer than 100; only ``orbit`` has
  enough inputs for a tail, and on the one-input workloads it equals
  ``wall_ref``);
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: operations whose output passed its check / attempted;
* ``decided_frac``: share of outputs that are decided verdicts: states
  ``classify_limit`` does not leave Undecided on ``orbit``, the battery's
  decided classifier share on ``verify``, and 1 where no Undecided
  outcome exists.

``--trace 1`` times the wall-clock gates of ``tests/test_acceptance.py``
that the workload serves, runs the tracer self-test (``selftest.py``),
then runs two pairs of rounds, untraced then traced.  It reports the
per-layer metrics of ``layers.json`` per operation, plus
``tracing.overhead_s`` (traced minus untraced ``wall_s``), and writes
the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, prefixed ``#``, record the environment and the reported figures,
among them the same times in seconds (``wall_s``, ``p99_s``) and the
median reference time (``ref_s``).  A full record of the run goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
MIN_ROUNDS = 3
TRACE_PAIRS = 2
SETUP_CODE = (
    "import sys, gonosomal; gonosomal.hemophilia_operator(); "
    "sys.stdout.write(gonosomal.__file__)"
)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _single_blas_thread() -> None:
    # Every operation runs on one thread with at most 4x4 BLAS calls.  A
    # second BLAS thread only competes for the CPUs: on a 2-CPU machine it
    # made the set-up run 25% slower and twice as variable.  The set-up
    # interpreters inherit this environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": _nproc(),
        "cpu": cpu or platform.processor(),
        "commit": commit,
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the package and building
    the hemophilia operator, process start to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith(str(SRC)):
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return elapsed


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    tensor = rng.random((4, 4, 4))
    batch = rng.random((10_000, 4))
    return tensor / tensor.sum(axis=2, keepdims=True), batch / batch.sum(axis=1, keepdims=True)


def reference_s() -> float:
    """Wall time of the fixed reference computation.

    It does both kinds of work the workloads do, with numpy alone and in
    about equal time: 30 quadratic steps on a 10^4-row batch, then 36000
    steps on one 4-vector (about 0.3 s in all).  It must not change with
    the package, so that times divided by it move with the code under
    test and little with the machine's load.
    """
    import numpy as np

    tensor, x = _reference_inputs()
    start = time.perf_counter()
    for _ in range(30):
        y = np.einsum("ni,ijk,nj->nk", x, tensor, x)
        x = y / y.sum(axis=1, keepdims=True)
    v = x[0]
    for _ in range(36_000):
        v = v * 0.999 + 0.00025
        if np.abs(v).max() > 10.0:
            break
    return time.perf_counter() - start


class Tally:
    """Outcomes and per-input times of rounds over a workload's inputs."""

    def __init__(self, workload):
        self.workload = workload
        # 8 bytes a time, so that peak memory barely depends on the round count
        self.times = [array("d") for _ in workload.inputs]
        self.refs: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.decided = 0.0
        self.errors: list[str] = []

    def round(self, call=None) -> None:
        """Run every input once, between two timings of the reference;
        ``call(fn, x)`` wraps each operation."""
        if not self.refs:
            self.refs.append(reference_s())
        workload = self.workload
        for i, x in enumerate(workload.inputs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = call(workload.run, x) if call else workload.run(x)
            except Exception:  # an operation that raises counts as failed
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                continue
            finally:
                self.times[i].append(time.perf_counter() - start)
            ok, decided = workload.check(x, out)
            self.decided += decided
            if not ok:
                self.failed += 1
                self.errors.append(f"check failed on input {x!r}")
        self.refs.append(reference_s())
        self.rounds += 1

    def per_input(self, relative: bool = False) -> list[float]:
        """Each input's median time over the rounds, in s, or with
        ``relative`` in multiples of the reference time around its round."""
        if relative:
            scale = [(a + b) / 2 for a, b in zip(self.refs, self.refs[1:])]
            return [statistics.median(t / r for t, r in zip(ts, scale)) for ts in self.times]
        return [statistics.median(ts) for ts in self.times]

    @property
    def median(self) -> float:
        return statistics.median(self.per_input())


def p99(values) -> float:
    """Nearest-rank 99th percentile (the maximum below 100 values)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def end_to_end(workload, seconds: float, report: dict) -> tuple[Tally, dict]:
    tally = Tally(workload)
    setups: list[float] = []
    start = time.perf_counter()
    # One set-up before each round, so that set-up samples the same stretch
    # of machine load as the operations; stop before a round that would end
    # past the deadline.
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(time_setup())
        tally.round()
        now = time.perf_counter()
        if tally.rounds >= MIN_ROUNDS and now + (now - start) / tally.rounds > start + seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    relative = tally.per_input(relative=True)
    report["seconds_figures"] = {"wall_s": tally.median, "p99_s": p99(tally.per_input()),
                                 "ref_s": statistics.median(tally.refs)}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (statistics.median(relative), "ref"),
        "p99_ref": (p99(relative), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "decided_frac": (tally.decided / tally.attempted, "ratio"),
    }
    return tally, metrics


_UNITS = {"calls": "count", "rows": "count", "steps": "count", "seeds": "count",
          "self_s": "s", "ns_per_row": "ns/row", "converged_frac": "ratio", "out_bytes": "B"}


def traced(workload, report: dict) -> tuple[Tally, dict]:
    import selftest
    from tracing import Tracer

    gates = workload.gates()
    problems = selftest.problems()
    plain, spanned, tracer = Tally(workload), Tally(workload), Tracer()
    for _ in range(TRACE_PAIRS):
        plain.round()
        tracer.install()
        try:
            spanned.round(call=tracer.run_op)
        finally:
            unrestored = tracer.restore()
        if unrestored:
            problems.append(f"bindings not restored: {unrestored}")
    if tracer.self_time_defects():
        problems.append("span self times do not sum to the operation span")
    tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.csv.gz")

    metrics = {name: (value, _UNITS[name.rsplit(".", 1)[1]])
               for name, value in tracer.layer_metrics().items()}
    metrics["tracing.overhead_s"] = (spanned.median - plain.median, "s")
    report.update(
        untraced_wall_s=plain.median,
        traced_wall_s=spanned.median,
        spans=len(tracer.spans),
        trace_problems=problems,
    )
    report["gates"] = [{"test": test, "limit_s": limit, "elapsed_s": elapsed,
                        "margin_s": limit - elapsed, "margin_frac": (limit - elapsed) / limit}
                       for test, limit, elapsed in gates]
    tally = Tally(workload)
    tally.rounds = plain.rounds + spanned.rounds
    tally.attempted = plain.attempted + spanned.attempted
    tally.failed = plain.failed + spanned.failed
    tally.errors = plain.errors + spanned.errors + problems
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gonosomal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/gonosomal", file=sys.stderr)
        return 2
    _single_blas_thread()
    sys.path.insert(0, str(SRC))
    import gonosomal

    if not Path(gonosomal.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gonosomal from {gonosomal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    workloads.warm_up()
    reference_s()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        tally, metrics = traced(workload, report)
    else:
        tally, metrics = end_to_end(workload, args.seconds, report)
    report.update(rounds=tally.rounds, inputs=len(workload.inputs),
                  attempted=tally.attempted, failed=tally.failed, errors=tally.errors[:5],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for err in tally.errors[:5]:
        print(err, file=sys.stderr)
    print("# env " + json.dumps(env))
    if "seconds_figures" in report:
        print("# seconds " + json.dumps(report["seconds_figures"]))
    for gate in report.get("gates", []):
        print("# gate " + json.dumps(gate))
    if args.trace:
        print("# trace " + json.dumps({k: report[k] for k in (
            "untraced_wall_s", "traced_wall_s", "spans", "trace_problems")}))
    print(json.dumps({
        "correct": tally.failed == 0 and not report.get("trace_problems"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
