"""Fixed point search and stability classification tests."""

import re

import numpy as np
import pytest

from gonosomal.operator import GonosomalOperator, hemophilia_operator
from gonosomal.spectral import (
    ATTRACTION_PROBES,
    ATTRACTION_RADIUS,
    Classification,
    FixedPointReport,
    classify,
    eigenvalues,
    find_fixed_points,
    format_report,
)
from gonosomal.verify import random_tensor

OP = hemophilia_operator()
ORIGIN = np.zeros(4)
PAIR_POINT = np.array([2.0, 0.0, 2.0, 0.0])


# ---------------------------------------------------------------------------
# spectrum helpers
# ---------------------------------------------------------------------------


def test_eigenvalues_known_matrix():
    np.testing.assert_allclose(
        eigenvalues([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], rtol=0, atol=1e-15
    )


def test_eigenvalues_sorted_by_real_then_imaginary():
    eigs = eigenvalues([[0.0, -2.0], [2.0, 0.0]])
    assert eigs[0] == pytest.approx(-2j)
    assert eigs[1] == pytest.approx(2j)


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros(4))
    with pytest.raises(ValueError):
        eigenvalues(np.eye(33))
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0.0], [0.0, 1.0]])


def test_classify_all_classes():
    assert classify([0.5, 0.1]) is Classification.ATTRACTING
    assert classify([2.0, 3.0]) is Classification.REPELLING
    assert classify([0.5, 2.0]) is Classification.SADDLE
    assert classify([1.0, 0.2]) is Classification.NON_HYPERBOLIC
    assert classify([0.6 + 0.8j]) is Classification.NON_HYPERBOLIC


def test_classify_unit_circle_tolerance():
    assert classify([1.0 - 1e-9, 0.1]) is Classification.NON_HYPERBOLIC
    assert classify([1.0 - 1e-7, 0.1]) is Classification.ATTRACTING
    assert classify([1.0 - 1e-7, 0.1], unit_tol=1e-6) is Classification.NON_HYPERBOLIC
    with pytest.raises(ValueError):
        classify([])


# ---------------------------------------------------------------------------
# raw search
# ---------------------------------------------------------------------------


def test_raw_search_finds_exactly_the_two_roots():
    found = find_fixed_points(OP, mode="raw", n_seeds=1000, rng_seed=0)
    assert len(found) == 2
    assert found.n_seeds == 1000
    assert found.n_converged > 800
    assert found.n_converged + found.n_dropped == 1000
    origin, pair = found
    assert np.abs(origin.point - ORIGIN).max() <= 1e-10
    assert np.abs(pair.point - PAIR_POINT).max() <= 1e-10
    assert origin.residual <= 1e-10
    assert pair.residual <= 1e-10


def test_raw_search_classifications_and_spectra():
    found = find_fixed_points(OP, mode="raw", n_seeds=1000, rng_seed=0)
    origin, pair = found
    assert origin.classification is Classification.ATTRACTING
    assert np.abs(origin.eigenvalues).max() <= 1e-10
    assert pair.classification is Classification.NON_HYPERBOLIC
    np.testing.assert_allclose(
        pair.eigenvalues.real, [-0.5, 0.0, 1.0, 2.0], rtol=0, atol=1e-8
    )
    assert np.abs(pair.eigenvalues.imag).max() <= 1e-8
    assert origin.mode == "raw" and origin.note is None


def test_raw_search_is_deterministic():
    a = find_fixed_points(OP, mode="raw", n_seeds=200, rng_seed=7)
    b = find_fixed_points(OP, mode="raw", n_seeds=200, rng_seed=7)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.point, rb.point)
        assert format_report(ra) == format_report(rb)


def test_raw_search_seed_box_and_validation():
    # a box that excludes the nontrivial root's basin still finds the origin
    found = find_fixed_points(OP, mode="raw", n_seeds=100, seed_box=(-0.2, 0.2), rng_seed=1)
    assert any(np.abs(r.point).max() <= 1e-10 for r in found)
    with pytest.raises(ValueError):
        find_fixed_points(OP, seed_box=(2.0, 1.0))
    with pytest.raises(ValueError):
        find_fixed_points(OP, n_seeds=0)
    with pytest.raises(ValueError):
        find_fixed_points(OP, mode="both")


# ---------------------------------------------------------------------------
# normalized search
# ---------------------------------------------------------------------------


def test_normalized_search_unique_root():
    found = find_fixed_points(OP, mode="normalized", n_seeds=400, rng_seed=0)
    assert len(found) == 1
    root = found[0]
    assert np.abs(root.point - np.array([0.5, 0.0, 0.5, 0.0])).max() <= 1e-10
    assert root.residual <= 1e-10
    assert root.jacobian.shape == (3, 3)
    np.testing.assert_allclose(root.eigenvalues.real, [-0.5, 0.0, 1.0], rtol=0, atol=1e-8)
    assert root.classification is Classification.NON_HYPERBOLIC


def test_normalized_root_carries_empirical_note():
    found = find_fixed_points(OP, mode="normalized", n_seeds=200, rng_seed=3)
    note = found[0].note
    assert note is not None
    assert "probes" in note and "moved closer" in note


def test_normalized_root_keeps_its_attraction_probe():
    found = find_fixed_points(OP, mode="normalized", n_seeds=200, rng_seed=3)
    before, after = found[0].attraction
    assert before.shape == after.shape == (ATTRACTION_PROBES,) == (32,)
    np.testing.assert_allclose(before, ATTRACTION_RADIUS, rtol=1e-9, atol=0)
    assert (after < before).all()
    # the note reports the stored probe, not a second run
    worst = re.search(r"worst remaining distance ([^)]+)\)", found[0].note).group(1)
    assert worst == f"{after.max():.3g}"
    assert f"{ATTRACTION_PROBES} simplex probes" in found[0].note
    # raw roots are not probed
    assert all(r.attraction is None for r in find_fixed_points(OP, n_seeds=200, rng_seed=3))


def test_normalized_search_point_is_on_simplex():
    found = find_fixed_points(OP, mode="normalized", n_seeds=100, rng_seed=2)
    point = found[0].point
    assert abs(point.sum() - 1.0) <= 1e-12
    assert point.min() >= -1e-12


# ---------------------------------------------------------------------------
# generic operators and report formatting
# ---------------------------------------------------------------------------


def test_search_on_random_nonnegative_tensor():
    rng = np.random.default_rng(9)
    op = GonosomalOperator(random_tensor(rng, 2, 2, nonnegative=True))
    found = find_fixed_points(op, mode="raw", n_seeds=200, rng_seed=4, tol=1e-11)
    assert len(found) >= 1
    for report in found:
        assert report.residual <= 1e-11
    for i, a in enumerate(found):
        for b in found[i + 1 :]:
            assert np.abs(a.point - b.point).max() > 1e-6


def test_format_report_stanza():
    report = FixedPointReport(
        point=np.array([0.5, 0.25]),
        residual=1e-12,
        jacobian=np.array([[0.5, 0.0], [0.0, 0.25]]),
        eigenvalues=np.array([0.25 + 0j, 0.5 + 0j]),
        classification=Classification.ATTRACTING,
        mode="raw",
    )
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "mode=raw"
    assert lines[1] == "point=0.5,0.25"
    assert lines[2] == "residual=9.9999999999999998e-13"
    assert lines[3] == "jacobian=0.5,0;0,0.25"
    assert lines[4] == "eigenvalues=0.25+0j;0.5+0j"
    assert lines[5] == "classification=Attracting"
    assert "note=" not in text


def test_format_report_includes_note_when_present():
    found = find_fixed_points(OP, mode="normalized", n_seeds=100, rng_seed=0)
    text = format_report(found[0])
    assert text.splitlines()[-1].startswith("note=")
