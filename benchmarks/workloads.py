"""The benchmark workloads of the gonosomal package.

A workload turns the benchmark seed into a fixed list of operation inputs
(:attr:`Workload.inputs`), runs one operation on an input through the
package's public functions (:meth:`Workload.run`) and checks the output
(:meth:`Workload.check`, which returns ``(ok, decided)``: whether the
output is correct, and the share of it that is a decided verdict).
Functions are looked up on their modules at call time, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import numpy as np

import gonosomal
import gonosomal.cli
from gonosomal import LimitKind, StopReason

RAW_ROOT = np.array([2.0, 0.0, 2.0, 0.0])


class Workload:
    name = ""
    n_inputs = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.inputs = self.make_inputs()

    def make_inputs(self) -> list:
        rng = np.random.default_rng(self.seed)
        return [int(v) for v in rng.integers(2**31, size=self.n_inputs)]

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> tuple[bool, float]:
        raise NotImplementedError

    def gates(self) -> list[tuple[str, float, float]]:
        """(acceptance test, limit in s, measured s) for each wall-clock gate
        of tests/test_acceptance.py that this workload's layers serve."""
        return []


def warm_up() -> None:
    """Touch every kernel once on a small input so lazy set-up is not timed."""
    op = gonosomal.hemophilia_operator()
    gonosomal.scan_global_convergence(samples=100, rng_seed=0, budget=5)
    gonosomal.find_fixed_points(op, "raw", n_seeds=20, rng_seed=0)
    gonosomal.find_fixed_points(op, "normalized", n_seeds=20, rng_seed=0)
    for s in ([1.0, 0.5, 1.0, 0.5], [3.0, 1.0, 3.0, 1.0], [-1.0, 0.5, 1.0, -0.5]):
        gonosomal.classify_limit(s)
        op.iterate(s, mode="raw")


class Scan(Workload):
    """scan_global_convergence at the CLI defaults (acceptance criterion 08)."""

    name = "scan"

    def run(self, x):
        return gonosomal.scan_global_convergence(
            samples=10_000, rng_seed=x, tol=1e-8, budget=500
        )

    def check(self, x, out):
        fail = out.failures
        ok = (
            out.samples == 10_000
            and out.converged + out.budget_exhausted == 10_000
            and len(fail) == out.budget_exhausted
            and (len(fail) == 0 or (
                np.abs(fail.sum(axis=1) - 1.0).max() <= 1e-12 and fail.min() >= 0.0
            ))
            and out.worst_final_distance <= 1e-2
        )
        return bool(ok), 1.0

    def gates(self):
        start = time.perf_counter()
        gonosomal.scan_global_convergence(samples=10_000, rng_seed=42, tol=1e-8, budget=500)
        return [("test_criterion_08_convergence_scan_reports_counterexample_candidates", 10.0,
                 time.perf_counter() - start)]


def _refill(rng, draw, accept, count):
    out = np.empty((0, 4))
    while len(out) < count:
        batch = draw(count)
        out = np.concatenate([out, batch[accept(batch)]])
    return out[:count]


def _orbit_families(rng, per):
    """Start states of each family, ``per`` of each, as a list of arrays."""
    sub = _refill(rng, lambda c: rng.uniform(0.0, 2.0, (c, 4)),
                  lambda b: (b[:, 0] + b[:, 1]) * (b[:, 2] + b[:, 3]) < 4.0, per)
    esc = _refill(
        rng, lambda c: rng.uniform(0.0, 6.0, (c, 4)),
        lambda b: (b.sum(axis=1) > 4.0) & (np.maximum(
            b[:, 0] * b[:, 2] / 4.0,
            np.maximum(b[:, 1] * b[:, 2] / 16.0, b[:, 1] * b[:, 3] / 9.0)) > 1.0),
        per)
    nonpos = -rng.uniform(0.0, 4.0, (per, 4))
    female_nonpos = rng.uniform(0.0, 4.0, (per, 4))
    female_nonpos[:, :2] *= -1.0
    male_nonpos = rng.uniform(0.0, 4.0, (per, 4))
    male_nonpos[:, 2:] *= -1.0
    carrier_free = np.zeros((per, 4))
    carrier_free[:, [0, 2]] = rng.uniform(-3.0, 3.0, (per, 2))
    # block sums (2, 2) with carriers present: the boundary probe decides these
    carriers = rng.uniform(0.0, 2.0, (per, 2))
    boundary = np.stack([2.0 - carriers[:, 0], carriers[:, 0],
                         2.0 - carriers[:, 1], carriers[:, 1]], axis=1)
    # a sign change inside a block: outside every characterised region
    mixed = _refill(
        rng, lambda c: rng.uniform(-3.0, 3.0, (c, 4)),
        lambda b: (b[:, :2].min(axis=1) < 0) & (b[:, :2].max(axis=1) > 0)
        | (b[:, 2:].min(axis=1) < 0) & (b[:, 2:].max(axis=1) > 0),
        per)
    return [sub, esc, nonpos, female_nonpos, male_nonpos, carrier_free, boundary, mixed]


class Orbit(Workload):
    """One state through classify_limit and raw iterate, as
    ``gonosomal classify --empirical`` runs it."""

    name = "orbit"
    n_inputs = 2000  # 250 per family: 20 states lie beyond the 99th percentile

    def make_inputs(self):
        families = _orbit_families(np.random.default_rng(self.seed), self.n_inputs // 8)
        return list(np.stack(families, axis=1).reshape(-1, 4))

    def run(self, x):
        verdict = gonosomal.classify_limit(x)
        record = gonosomal.hemophilia_operator().iterate(x, mode="raw", budget=10_000)
        return verdict, record

    def check(self, x, out):
        # the agreement rule of `gonosomal classify --empirical`
        verdict, record = out
        if verdict.kind is LimitKind.UNDECIDED:
            return True, 0.0
        final = record.iterates[-1]
        expected = StopReason.DIVERGED if verdict.kind is LimitKind.INFINITY else StopReason.CONVERGED
        ok = record.stop_reason is expected
        if ok and verdict.kind is LimitKind.ZERO:
            ok = bool(np.abs(final).max() <= 1e-6)
        if ok and verdict.kind is LimitKind.EQUILIBRIUM:
            ok = bool(np.abs(final - RAW_ROOT).max() <= 1e-6)
        return ok, 1.0


class Verify(Workload):
    """In-process `gonosomal verify --seed <seed> --out <file>` at default flags."""

    name = "verify"
    _UNDECIDED = re.compile(r"undecided rate ([0-9.]+)%")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.path = out_dir / f"verify-{seed}.txt"
        self.first: bytes | None = None

    def make_inputs(self):
        return [self.seed]

    def run(self, x):
        code = gonosomal.cli.main(["verify", "--seed", str(x), "--out", str(self.path)])
        text = self.path.read_bytes()
        self.path.unlink()
        return code, text

    def check(self, x, out):
        code, text = out
        if self.first is None:
            self.first = text
        lines = text.decode().splitlines()
        rate = self._UNDECIDED.search(text.decode())
        ok = (
            code == 0
            and "checks=19" in lines
            and "failed=0" in lines
            and text == self.first
            and rate is not None
        )
        return ok, 1.0 - float(rate.group(1)) / 100.0 if rate else 0.0

    def gates(self):
        # the battery runs the same 1000-seed raw search and estimate checks
        op = gonosomal.hemophilia_operator()
        start = time.perf_counter()
        gonosomal.find_fixed_points(op, mode="raw", n_seeds=1000, seed_box=(-5.0, 5.0))
        raw_search = time.perf_counter() - start
        states = gonosomal.sample_simplex(np.random.default_rng(42), 10_000)
        start = time.perf_counter()
        gonosomal.check_estimates(states)
        estimates = time.perf_counter() - start
        return [("test_criterion_01_raw_fixed_point_search", 1.0, raw_search),
                ("test_criterion_07_estimate_lemmas_and_two_step_band", 5.0, estimates)]


WORKLOADS = {w.name: w for w in (Scan, Orbit, Verify)}
