"""Self-test of the tracing wrappers.

    python3 benchmarks/selftest.py

Runs ``gonosomal.verify.run_battery`` on a small sample under a tracer and
checks that (1) while installed, no ``gonosomal`` module still binds an
original layer function; (2) ``classify_limit`` calls made from inside
``gonosomal.verify`` are counted; (3) afterwards every binding holds its
original function object again; (4) the span self times of the operation
sum exactly to its root span.  The traced run of every workload runs it
too.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _bindings(ids: set[int]) -> dict[tuple[str, str], object]:
    """Every binding of one of ``ids`` in the gonosomal modules and the operator class."""
    from tracing import gonosomal_modules

    import gonosomal.operator

    owners = gonosomal_modules() + [gonosomal.operator.GonosomalOperator]
    return {(getattr(owner, "__name__", str(owner)), name): value
            for owner in owners for name, value in vars(owner).items()
            if id(value) in ids}


def problems() -> list[str]:
    """Run the self-test; return a description of each failed check."""
    from tracing import ROOT, Tracer, originals

    import gonosomal.verify

    ids = {id(fn) for _, _, fn in originals().values()}
    before = _bindings(ids)
    tracer = Tracer()
    tracer.install()
    try:
        leftover = sorted(f"{m}.{n}" for m, n in _bindings(ids))
        tracer.run_op(gonosomal.verify.run_battery, None, 20)
    finally:
        unrestored = tracer.restore()

    out = []
    if leftover:
        out.append(f"originals still bound while tracing: {leftover}")
    names = [span[0] for span in tracer.spans]
    via_verify = sum(
        1 for span in tracer.spans
        if span[0] == "invariant_sets.classify_limit" and names[span[3]] == "verify.run_battery"
    )
    if via_verify == 0:
        out.append("classify_limit calls from gonosomal.verify were not counted")
    after = _bindings(ids)
    if unrestored or after.keys() != before.keys() or any(
        after[k] is not before[k] for k in before
    ):
        out.append(f"bindings not restored: {unrestored or sorted(before.keys() ^ after.keys())}")
    if names.count(ROOT) != 1 or tracer.self_time_defects():
        out.append("span self times do not sum to the operation span")
    return out


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    found = problems()
    for line in found:
        print(f"FAIL {line}")
    print("selftest ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
