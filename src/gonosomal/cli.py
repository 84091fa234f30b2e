"""Command line interface for the gonosomal dynamics package.

Five subcommands: ``fixed-points`` (multistart Newton search with
stability reports), ``trajectory`` (orbit of one state as a CSV table),
``classify`` (limit verdict for one state, optionally cross-checked by
actual iteration), ``verify`` (the named check battery), and ``scan``
(Monte Carlo convergence scan of the normalized dynamics).

Reports are flat key=value lines in blank-line-separated stanzas; tables
are CSV with a header row.  All floating point output uses repr-exact
formatting and every random path is seeded, so a repeated invocation
produces byte-identical output.  Exit status: 0 on success, 1 when a
verification or scan reports a failure, 2 on a usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .invariant_sets import LimitKind, classify_limit
from .normalized import require_simplex_state, scan_global_convergence
from .operator import (
    GonosomalOperator,
    StopReason,
    TensorFormatError,
    hemophilia_operator,
    load_tensor,
)
from .spectral import find_fixed_points, format_float, format_report
from .verify import empirical_limits, run_battery

__all__ = ["main"]

def _fmt_state(state) -> str:
    return ",".join(format_float(c) for c in state)


def _parse_state(text: str, dim: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--state must be comma-separated numbers, got {text!r}")
    if len(values) != dim:
        raise ValueError(f"--state needs {dim} coordinates, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--state coordinates must be finite, got {text!r}")
    return np.array(values)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_operator(args) -> tuple[GonosomalOperator, str, str]:
    """Resolve --tensor/--mode into (operator, mode, tensor label)."""
    if args.tensor == "builtin":
        op = hemophilia_operator()
        file_mode = "raw"
    else:
        tensor, file_mode = load_tensor(args.tensor)
        op = GonosomalOperator(tensor)
    mode = getattr(args, "mode", None) or file_mode
    if mode == "normalized" and not op.tensor.is_nonnegative():
        raise ValueError(
            "normalized mode needs a nonnegative tensor; "
            f"{args.tensor} has negative coefficients"
        )
    return op, mode, args.tensor


def cmd_fixed_points(args) -> int:
    op, mode, label = _load_operator(args)
    result = find_fixed_points(
        op,
        mode=mode,
        n_seeds=args.samples,
        rng_seed=args.seed,
        tol=args.tol,
    )
    stanzas = [
        "\n".join(
            [
                "command=fixed-points",
                f"tensor={label}",
                f"mode={mode}",
                f"seeds={result.n_seeds}",
                f"seed={args.seed}",
                f"tol={format_float(args.tol)}",
                f"converged={result.n_converged}",
                f"dropped={result.n_dropped}",
                *(f"dropped_{reason}={count}" for reason, count in result.drops.items()),
                f"iterations={result.iterations}",
                f"roots={len(result)}",
            ]
        )
    ]
    for i, report in enumerate(result):
        stanzas.append(f"root={i}\n" + format_report(report))
    _emit("\n\n".join(stanzas) + "\n", args.out)
    return 0


def cmd_trajectory(args) -> int:
    op, mode, _ = _load_operator(args)
    s0 = _parse_state(args.state, op.dim)
    if mode == "normalized":
        # friendlier tolerance than the solver's: CLI input is hand-typed
        require_simplex_state(s0, op.n, op.nu, tol=1e-9)
    record = op.iterate(s0, mode=mode, budget=args.budget, tol_fp=args.tol)
    if op.dim == 4:
        names = ["x", "y", "u", "v"]
    else:
        names = [f"f{i}" for i in range(op.n)] + [f"m{i}" for i in range(op.nu)]
    lines = ["step," + ",".join(names) + ",sum,block_product"]
    fs, ms = op.block_sums(record.iterates)
    sums = record.iterates.sum(axis=1)
    for step, row, total, product in zip(
        record.step_indices, record.iterates, sums, fs * ms
    ):
        lines.append(f"{step}," + _fmt_state([*row, total, product]))
    lines.append(f"# stop_reason={record.stop_reason.value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_classify(args) -> int:
    s0 = _parse_state(args.state, 4)
    verdict = classify_limit(s0, probe_budget=args.budget)
    lines = [
        "command=classify",
        f"state={_fmt_state(s0)}",
        f"kind={verdict.kind.value}",
    ]
    if verdict.rule is not None:
        lines.append(f"rule={verdict.rule}")
    if verdict.witness_step is not None:
        lines.append(f"witness_step={verdict.witness_step}")
    if verdict.witness_ratio is not None:
        name, value = verdict.witness_ratio
        lines.append(f"witness_ratio={name}={format_float(value)}")
    if verdict.forwarded is not None:
        lines.append(f"forwarded={_fmt_state(verdict.forwarded)}")
    text = "\n".join(lines)
    code = 0
    if args.empirical:
        op = hemophilia_operator()
        record = op.iterate(s0, mode="raw", budget=args.budget_iterate)
        final = record.iterates[-1]
        empirical = [
            "empirical_stop_reason=" + record.stop_reason.value,
            f"empirical_steps={record.steps_taken}",
            f"empirical_final={_fmt_state(final)}",
        ]
        if verdict.kind is not LimitKind.UNDECIDED:
            seen = empirical_limits(op, final[None], steps=0)[0]
            stop = StopReason.DIVERGED if seen is LimitKind.INFINITY else StopReason.CONVERGED
            agrees = seen is verdict.kind and record.stop_reason is stop
            empirical.append(f"empirical_agrees={str(agrees).lower()}")
            if not agrees:
                code = 1
        text += "\n\n" + "\n".join(empirical)
    _emit(text + "\n", args.out)
    return code


def cmd_verify(args) -> int:
    op, _, _ = _load_operator(args)
    results = run_battery(op, samples=args.samples, rng_seed=args.seed)
    failed = sum(not r.ok for r in results)
    lines = [
        "command=verify",
        f"tensor={args.tensor}",
        f"samples={args.samples}",
        f"seed={args.seed}",
        f"checks={len(results)}",
        f"failed={failed}",
    ]
    body = [f"{'ok' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results]
    _emit("\n".join(lines) + "\n\n" + "\n".join(body) + "\n", args.out)
    return 1 if failed else 0


def cmd_scan(args) -> int:
    report = scan_global_convergence(
        samples=args.samples,
        rng_seed=args.seed,
        tol=args.tol,
        budget=args.budget,
    )
    lines = [
        "command=scan",
        f"samples={report.samples}",
        f"seed={report.rng_seed}",
        f"tol={format_float(report.tol)}",
        f"budget={report.budget}",
        f"converged={report.converged}",
        f"budget_exhausted={report.budget_exhausted}",
        f"max_steps_observed={report.max_steps_observed}",
        f"worst_final_distance={format_float(report.worst_final_distance)}",
    ]
    hits = report.steps[report.steps >= 0]
    width = max(1, report.budget // 10)
    for lo in range(0, report.budget + 1, width):
        hi = min(lo + width - 1, report.budget)
        count = int(((hits >= lo) & (hits <= hi)).sum())
        lines.append(f"steps_{lo}_{hi}={count}")
        if hi == report.budget:
            break
    text = "\n".join(lines)
    if len(report.failures):
        dump = ["# non-converged start states (one per line)"]
        dump += [_fmt_state(row) for row in report.failures]
        text += "\n\n" + "\n".join(dump)
    _emit(text + "\n", args.out)
    return 1 if report.budget_exhausted else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonosomal",
        description="Dynamics of sex-linked inheritance operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tensor(p):
        p.add_argument(
            "--tensor",
            default="builtin",
            help="inheritance tensor file, or 'builtin' for the hemophilia model",
        )

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("fixed-points", help="multistart Newton fixed point search")
    add_tensor(p)
    p.add_argument("--mode", choices=("raw", "normalized"), default=None)
    p.add_argument("--samples", type=int, default=1000, help="number of Newton seeds")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    add_out(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("trajectory", help="orbit of one state as CSV")
    add_tensor(p)
    p.add_argument("--mode", choices=("raw", "normalized"), default=None)
    p.add_argument("--state", required=True, help="comma-separated start state")
    p.add_argument("--budget", type=int, default=10_000, help="iteration budget")
    p.add_argument("--tol", type=float, default=1e-12, help="fixed point tolerance")
    add_out(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("classify", help="limit verdict for one start state")
    p.add_argument("--state", required=True, help="comma-separated start state")
    p.add_argument("--budget", type=int, default=100, help="boundary probe budget")
    p.add_argument(
        "--empirical",
        action="store_true",
        help="also iterate the state and report agreement",
    )
    p.add_argument(
        "--budget-iterate",
        type=int,
        default=10_000,
        help="iteration budget for --empirical",
    )
    add_out(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the named check battery")
    add_tensor(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="Monte Carlo normalized convergence scan")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--budget", type=int, default=500)
    add_out(p)
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TensorFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
