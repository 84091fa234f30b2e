"""End-to-end command line tests driven through ``main(argv)``.

Every invocation is seeded, so outputs are asserted byte-for-byte where
that matters (determinism) and structurally elsewhere.  One test goes
through a real subprocess to cover the ``python -m gonosomal`` entry.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gonosomal
from gonosomal.cli import main
from gonosomal.operator import InheritanceTensor, dump_tensor, hemophilia_tensor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stanza_dict(block: str) -> dict:
    return dict(line.split("=", 1) for line in block.strip().splitlines())


def parse_state(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------


def test_fixed_points_raw(capsys):
    code, out, err = run_cli(capsys, "fixed-points")
    assert code == 0 and err == ""
    stanzas = out.strip().split("\n\n")
    head = stanza_dict(stanzas[0])
    assert head["command"] == "fixed-points"
    assert head["mode"] == "raw"
    assert head["roots"] == "2"
    assert head["seeds"] == "1000"
    first = stanza_dict(stanzas[1])
    assert first["root"] == "0"
    assert first["point"] == "0,0,0,0"
    assert first["classification"] == "Attracting"
    second = stanza_dict(stanzas[2])
    np.testing.assert_allclose(
        parse_state(second["point"]), [2, 0, 2, 0], rtol=0, atol=1e-9
    )
    assert second["classification"] == "NonHyperbolic"


def test_fixed_points_normalized(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--mode", "normalized")
    assert code == 0
    stanzas = out.strip().split("\n\n")
    assert stanza_dict(stanzas[0])["roots"] == "1"
    root = stanza_dict(stanzas[1])
    np.testing.assert_allclose(
        parse_state(root["point"]), [0.5, 0, 0.5, 0], rtol=0, atol=1e-9
    )
    assert root["classification"] == "NonHyperbolic"
    # reduced 3x3 jacobian: three eigenvalue entries
    assert len(root["eigenvalues"].split(";")) == 3
    assert "moved closer" in root["note"]


def test_fixed_points_reports_drops_by_reason(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--samples", "200")
    assert code == 0
    head = stanza_dict(out.split("\n\n")[0])
    reasons = ("non_finite", "singular", "no_descent", "max_steps")
    counts = [int(head[f"dropped_{r}"]) for r in reasons]
    assert sum(counts) == int(head["dropped"]) == 200 - int(head["converged"])
    assert 1 <= int(head["iterations"]) <= 200


def test_fixed_points_deterministic(capsys):
    _, first, _ = run_cli(capsys, "fixed-points", "--samples", "200")
    _, second, _ = run_cli(capsys, "fixed-points", "--samples", "200")
    assert first == second


def test_fixed_points_out_file(capsys, tmp_path):
    target = tmp_path / "roots.txt"
    code, out, _ = run_cli(capsys, "fixed-points", "--samples", "50", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("command=fixed-points\n")
    assert "classification=NonHyperbolic" in text
    points = [parse_state(line[6:]) for line in text.splitlines() if line.startswith("point=")]
    assert len(points) == 2
    np.testing.assert_allclose(points[1], [2, 0, 2, 0], rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def test_trajectory_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "trajectory", "--state", "1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,x,y,u,v,sum,block_product"
    assert lines[-1] == "# stop_reason=ConvergedToPoint"
    # 16 states: start plus 15 steps
    assert len(lines) == 18
    first = lines[1].split(",")
    assert first[0] == "0" and first[1:5] == ["1", "1", "1", "1"]
    second = lines[2].split(",")
    assert second[1] == "0.75"
    # sum column equals the block product column one row earlier
    sums = [float(r.split(",")[5]) for r in lines[1:-1]]
    products = [float(r.split(",")[6]) for r in lines[1:-1]]
    assert sums[1:] == pytest.approx(products[:-1], rel=0, abs=1e-12)


def test_trajectory_divergence(capsys):
    code, out, _ = run_cli(capsys, "trajectory", "--state", "3,0,3,0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "# stop_reason=Diverged"


def test_trajectory_normalized_accepts_simplex_only(capsys):
    # carrier-free simplex states land on the equilibrium in one exact step
    code, out, _ = run_cli(
        capsys, "trajectory", "--mode", "normalized", "--state", "0.4,0,0.6,0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "# stop_reason=ConvergedToPoint"
    assert lines[2] == "1,0.5,0,0.5,0,1,0.25"

    code, _, err = run_cli(
        capsys, "trajectory", "--mode", "normalized", "--state", "1,1,1,1"
    )
    assert code == 2
    assert err.startswith("error:")


def test_trajectory_bad_state(capsys):
    code, _, err = run_cli(capsys, "trajectory", "--state", "1,2,3")
    assert code == 2 and "4 coordinates" in err
    code, _, err = run_cli(capsys, "trajectory", "--state", "1,zebra,3,4")
    assert code == 2 and "comma-separated numbers" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_subcritical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "0.5,0.5,0.5,0.5")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Zero"
    assert info["rule"] == "subcritical"


def test_classify_boundary_mixing(capsys):
    # block-sum product exactly 4: decided by probing one image forward
    code, out, _ = run_cli(capsys, "classify", "--state", "1,1,1,1")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Zero"
    assert info["rule"] == "boundary-mixing"
    assert info["witness_step"] == "1"


def test_classify_escaping_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "3,1,3,1")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Infinity"
    assert info["rule"] == "escaping"
    assert info["witness_ratio"] == "xu/4=2.25"


def test_classify_divergent_with_empirical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "3,0,3,0", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Infinity"
    info = stanza_dict(second)
    assert info["empirical_stop_reason"] == "Diverged"
    assert info["empirical_agrees"] == "true"


def test_classify_equilibrium_boundary(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "2,0,2,0", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Equilibrium"
    assert stanza_dict(second)["empirical_agrees"] == "true"


def test_classify_zero_with_empirical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "0.5,0.5,0.5,0.5", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Zero"
    info = stanza_dict(second)
    assert info["empirical_stop_reason"] == "ConvergedToPoint"
    assert info["empirical_agrees"] == "true"


def test_classify_undecided_with_empirical_has_no_agreement(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state=-1,2,3,-4", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Undecided"
    info = stanza_dict(second)
    assert "empirical_stop_reason" in info
    assert "empirical_agrees" not in info


def test_classify_sign_forwarding(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state=-1,-1,-1,-1")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Zero"
    assert info["rule"].startswith("nonpositive->")
    assert "forwarded" in info


@pytest.mark.parametrize("state", ["nan,0,1,0", "inf,0,0,0", "1,0,-inf,0"])
def test_classify_rejects_non_finite_state(capsys, state):
    code, out, err = run_cli(capsys, "classify", "--state", state)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_classify_undecided(capsys):
    # mixed-sign state outside every certified family
    code, out, _ = run_cli(capsys, "classify", "--state", "2,-1,1,3")
    assert code == 0
    assert stanza_dict(out)["kind"] == "Undecided"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_builtin_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "2000")
    assert code == 0
    head, body = out.strip().split("\n\n")
    info = stanza_dict(head)
    assert info["failed"] == "0"
    assert int(info["checks"]) >= 15
    lines = body.splitlines()
    assert len(lines) == int(info["checks"])
    assert all(line.startswith("ok ") for line in lines)
    assert any(line.startswith("ok sum-product-identity:") for line in lines)


HEMOPHILIA_ONLY_CHECKS = {
    "invariant-sets", "diagonal-closed-form", "carrier-free-trichotomy",
    "escape-growth-bound", "limit-classifier-agreement", "estimate-bounds",
    "carrier-contraction", "fixed-point-correspondence", "raw-fixed-points",
    "normalized-fixed-point", "local-attraction",
}


def test_verify_custom_tensor(capsys, tmp_path):
    rng = np.random.default_rng(12)
    gf = rng.dirichlet(np.ones(3), size=(3, 2))
    gm = rng.dirichlet(np.ones(2), size=(3, 2))
    path = tmp_path / "model.tensor"
    path.write_text(dump_tensor(InheritanceTensor(gf * 0.6, gm * 0.4)))
    code, out, _ = run_cli(capsys, "verify", "--tensor", str(path), "--samples", "500")
    assert code == 0
    head, body = out.strip().split("\n\n")
    assert stanza_dict(head)["failed"] == "0"
    # generic battery: no hemophilia-specific checks for a custom tensor
    assert "raw-fixed-points" not in body
    names = {line.split(":")[0].split(" ", 1)[1] for line in body.splitlines()}
    assert len(names) == 8
    assert not names & HEMOPHILIA_ONLY_CHECKS


def test_verify_missing_tensor_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--tensor", "/nonexistent/file")
    assert code == 2 and err.startswith("error:")


def test_verify_corrupted_tensor_rejected(capsys, tmp_path):
    # a coefficient row summing to 0.9 breaks the conservation contract
    good = dump_tensor(hemophilia_tensor())
    lines = good.splitlines()
    row = [float(v) for v in lines[2].split()]
    lines[2] = " ".join(f"{v * 0.9:.17g}" for v in row)
    path = tmp_path / "broken.tensor"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", "--tensor", str(path))
    assert code == 2
    assert "row" in err and "sum" in err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_default_tolerance_is_honest(capsys):
    code, out, _ = run_cli(capsys, "scan", "--samples", "50")
    # nothing reaches 1e-8 in 500 steps: the unit eigenvalue direction
    # decays algebraically, so the scan reports every start verbatim
    assert code == 1
    head, dump = out.strip().split("\n\n")
    info = stanza_dict(head)
    assert info["converged"] == "0"
    assert info["budget_exhausted"] == "50"
    assert info["steps_0_49"] == "0"
    lines = dump.splitlines()
    assert lines[0] == "# non-converged start states (one per line)"
    assert len(lines) == 51
    coords = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert coords.shape == (50, 4)
    np.testing.assert_allclose(coords.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_scan_reachable_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--samples", "50", "--tol", "1e-3", "--budget", "5000"
    )
    assert code == 0
    info = stanza_dict(out)
    assert info["converged"] == "50"
    assert "# non-converged" not in out
    histogram = [int(v) for k, v in info.items() if k.startswith("steps_")]
    assert sum(histogram) == 50


def test_scan_deterministic(capsys):
    _, first, _ = run_cli(capsys, "scan", "--samples", "30")
    _, second, _ = run_cli(capsys, "scan", "--samples", "30")
    assert first == second


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_module(*argv):
    # the child imports the same package as this process, installed or not
    env = dict(os.environ)
    home = str(Path(gonosomal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [home, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gonosomal", *argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point():
    proc = run_module("classify", "--state", "1,1,1,1")
    assert proc.returncode == 0
    assert "kind=Zero" in proc.stdout


def test_usage_error_exit_code():
    proc = run_module("no-such-command")
    assert proc.returncode == 2
