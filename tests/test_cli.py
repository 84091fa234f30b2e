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


@pytest.mark.parametrize(
    "n, nu, header",
    [
        (1, 2, "step,f0,m0,m1,sum,block_product"),
        (1, 3, "step,f0,m0,m1,m2,sum,block_product"),
        (3, 1, "step,f0,f1,f2,m0,sum,block_product"),
    ],
    ids=["1+2", "1+3", "3+1"],
)
def test_trajectory_names_the_columns_of_other_type_counts(capsys, tmp_path, n, nu, header):
    path = tmp_path / "other.tensor"
    gf = np.full((n, nu, n), 0.5 / n)
    gm = np.full((n, nu, nu), 0.5 / nu)
    path.write_text(dump_tensor(InheritanceTensor(gf, gm)))
    state = ",".join(["1"] * (n + nu))
    code, out, _ = run_cli(capsys, "trajectory", "--tensor", str(path), "--state", state)
    assert code == 0
    assert out.splitlines()[0] == header


def test_normalized_mode_refuses_a_signed_tensor_file(capsys, tmp_path):
    path = tmp_path / "signed.tensor"
    path.write_text("mode raw\n1 1\n1.5 -0.5\n")
    code, out, err = run_cli(
        capsys, "trajectory", "--tensor", str(path), "--mode", "normalized", "--state", "0.5,0.5"
    )
    assert code == 2 and out == ""
    assert "nonnegative tensor" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_subcritical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "0.5,0.5,0.5,0.5")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Zero"
    assert info["escape_sum"] == "-1.3862943611198906"  # log(1/4)
    assert info["forward_steps"] == "0" and info["terms"] == "0"


def test_classify_boundary_mixing(capsys):
    # block-sum product exactly 4: the first series term, from the carriers,
    # pulls the sum below zero
    code, out, _ = run_cli(capsys, "classify", "--state", "1,1,1,1")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Zero"
    assert float(info["escape_sum"]) < 0.0
    assert info["forward_steps"] == "0" and info["terms"] == "1"


def test_classify_escaping_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "3,1,3,1")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Infinity"
    assert info["escape_sum"] == "1.3862943611198906"  # log(16/4), above log(9/8)
    assert info["forward_steps"] == "0" and info["terms"] == "0"


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


def test_classify_carrier_free_near_miss_disagrees_with_iteration(capsys):
    # x·u - 4 = +2.0e-13 exactly, so the orbit escapes; iterate's 1e-12
    # test stops after one step on (2.0000000000001, 0, 2.0000000000001, 0)
    code, out, _ = run_cli(
        capsys, "classify", "--state", "2,0,2.0000000000001,0", "--empirical"
    )
    assert code == 1
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Infinity"
    info = stanza_dict(second)
    assert info["empirical_steps"] == "1"
    assert info["empirical_agrees"] == "false"


def test_classify_zero_with_empirical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--state", "0.5,0.5,0.5,0.5", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Zero"
    info = stanza_dict(second)
    assert info["empirical_stop_reason"] == "ConvergedToPoint"
    assert info["empirical_agrees"] == "true"


def test_classify_undecided_with_empirical_has_no_agreement(capsys):
    code, out, _ = run_cli(capsys, "classify", f"--state={FORWARD_CAP}", "--empirical")
    assert code == 0
    first, second = out.strip().split("\n\n")
    assert stanza_dict(first)["kind"] == "Undecided"
    info = stanza_dict(second)
    assert "empirical_stop_reason" in info
    assert "empirical_agrees" not in info


def test_classify_sign_forwarding(capsys):
    # a start whose blocks each have one sign is classified as |s|: every
    # sign pattern of (1, 1, 1, 1) prints its verdict, with no forward step
    seen = []
    for state in ["-1,-1,-1,-1", "-1,-1,1,1", "1,1,-1,-1", "1,1,1,1"]:
        code, out, _ = run_cli(capsys, "classify", f"--state={state}")
        assert code == 0
        info = stanza_dict(out)
        assert (info["kind"], info["forward_steps"], info["terms"]) == ("Zero", "0", "1")
        seen.append(info["escape_sum"])
    assert len(set(seen)) == 1 and float(seen[0]) < 0.0
    code, out, _ = run_cli(capsys, "classify", "--state=-4,0,1,0")
    info = stanza_dict(out)
    assert code == 0 and (info["kind"], info["escape_sum"]) == ("Equilibrium", "0")


@pytest.mark.parametrize("command", ["classify", "trajectory"])
def test_a_negative_first_coordinate_follows_state_after_a_space(capsys, monkeypatch, command):
    # argparse reads "-0.3,..." as an option; main passes it on as --state=
    state = "-0.3,0.2,0.1,-0.5"
    joined = run_cli(capsys, command, f"--state={state}")
    assert joined[0] == 0 and joined[1] and joined[2] == ""
    assert run_cli(capsys, command, "--state", state) == joined
    # the same through sys.argv, as the console script calls main()
    monkeypatch.setattr(sys, "argv", ["gonosomal", command, "--state", state])
    assert main() == 0
    assert capsys.readouterr() == (joined[1], "")


def test_only_a_state_value_is_attached(capsys):
    # an option after --state is still an option, so --state lacks its value
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--state", "--empirical"])
    assert exc.value.code == 2
    # a negative list after another option is not rewritten
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--state", "1,1,1,1", "--budget-iterate", "-1,2"])
    assert exc.value.code == 2
    assert "--budget-iterate: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("state", ["nan,0,1,0", "inf,0,0,0", "1,0,-inf,0"])
def test_classify_rejects_non_finite_state(capsys, state):
    code, out, err = run_cli(capsys, "classify", "--state", state)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


# a mixed-sign start that is still mixed-sign after the forward cap of 64 steps
FORWARD_CAP = "-2.59612023002479,0.9064717574701104,-2.5006998091227315,-1.035873299312417"


def test_classify_undecided(capsys):
    code, out, _ = run_cli(capsys, "classify", f"--state={FORWARD_CAP}")
    assert code == 0
    info = stanza_dict(out)
    assert info["kind"] == "Undecided"
    assert info["escape_sum"] == "none"
    assert info["forward_steps"] == "64" and info["terms"] == "0"


def test_classify_output_bytes(capsys):
    # forwarded two steps, then inside the sup-norm radius 12/19 while
    # still signed: Zero with no escape sum
    expected = (
        "command=classify\n"
        "state=-1,2,3,-4\n"
        "kind=Zero\n"
        "escape_sum=none\n"
        "forward_steps=2\n"
        "terms=0\n"
    )
    for _ in range(2):
        assert run_cli(capsys, "classify", "--state=-1,2,3,-4") == (0, expected, "")


def test_classify_has_no_budget_option(capsys):
    # classify takes no --budget, and does not read it as --budget-iterate
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--state", "1,1,1,1", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


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


def test_verify_runs_every_check_on_a_file_of_the_hemophilia_coefficients(capsys, tmp_path):
    path = tmp_path / "hemophilia.tensor"
    path.write_text(dump_tensor(hemophilia_tensor()))
    code, out, _ = run_cli(capsys, "verify", "--tensor", str(path), "--samples", "500")
    assert code == 0
    head, body = out.strip().split("\n\n")
    info = stanza_dict(head)
    assert info["checks"] == "19" and info["failed"] == "0"
    names = {line.split(":")[0].split(" ", 1)[1] for line in body.splitlines()}
    assert HEMOPHILIA_ONLY_CHECKS <= names


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


@pytest.mark.parametrize(
    "argv",
    [
        *(["fixed-points", f"--tol={tol}"] for tol in ("0", "-1", "nan", "-inf")),
        *(["scan", f"--tol={tol}"] for tol in ("0", "-1", "nan", "-inf")),
        ["verify", "--samples", "0"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_malformed_tolerance_or_sample_count_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be" in err


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
