"""Cross-section warping and dislocation identities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corruga.warping import dislocation, section_from_points, warping_function


def _circle(nseg, radius=1.0):
    t = np.linspace(0.0, 2.0 * np.pi, nseg + 1)
    return section_from_points(
        radius * np.column_stack([np.cos(t), np.sin(t)]), closed=True)


def test_straight_segment_through_origin_has_zero_warping():
    seg = section_from_points([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    w = warping_function(seg, alpha=1.3)
    assert np.max(np.abs(w)) == 0.0


def test_l_section_hand_values():
    # horizontal leg on y=0, then vertical leg at x=a: the first leg sweeps
    # nothing, the second integrates -x y' = -a per unit height
    a, alpha = 1.5, 0.8
    sec = section_from_points([[0, 0], [a, 0], [a, 0.25], [a, 1.0]])
    w = warping_function(sec, alpha=alpha)
    assert_allclose(w, [0.0, 0.0, -alpha * a * 0.25, -alpha * a * 1.0],
                    atol=1e-12)


def test_circular_arc_linear_in_angle():
    # x'y - xy' = -r^2 along a circle, so w = -alpha r^2 theta
    r, alpha = 2.0, 1.0
    t = np.linspace(0.0, np.pi / 2, 2049)
    arc = section_from_points(r * np.column_stack([np.cos(t), np.sin(t)]))
    w = warping_function(arc, alpha=alpha)
    assert_allclose(w[-1], -alpha * r * r * (np.pi / 2), rtol=1e-5)


def test_unit_circle_dislocation():
    d = dislocation(_circle(1024), alpha=1.0)
    assert abs(d + 2.0 * np.pi) <= 1e-3 * 2.0 * np.pi


def test_unit_square_dislocation_exact():
    sq = section_from_points([[0, 0], [1, 0], [1, 1], [0, 1]], closed=True)
    assert dislocation(sq, alpha=1.0) == -2.0


def test_degenerate_path_zero_dislocation():
    back_forth = section_from_points(
        [[0, 0], [1, 0], [2, 0], [1, 0]], closed=True)
    assert dislocation(back_forth, alpha=1.0) == 0.0


def test_orientation_reversal_flips_sign():
    sq = section_from_points([[0, 0], [1, 0], [1, 1], [0, 1]], closed=True)
    rev = section_from_points([[0, 1], [1, 1], [1, 0], [0, 0]], closed=True)
    assert dislocation(rev, alpha=1.0) == -dislocation(sq, alpha=1.0)


def test_densification_invariance_on_straight_segments():
    a, alpha = 1.0, 2.0
    coarse = section_from_points([[0, 0], [a, 0], [a, 1.0]])
    ys = np.linspace(0.0, 1.0, 33)[1:]
    fine = section_from_points(
        [[0, 0]] + [[x, 0.0] for x in np.linspace(0.1, a, 11)]
        + [[a, y] for y in ys])
    wc = warping_function(coarse, alpha=alpha)
    wf = warping_function(fine, alpha=alpha)
    assert_allclose(wf[-1], wc[-1], atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=3, max_size=12))
def test_dislocation_is_shoelace_identity(pts):
    # both quantities are the same discrete sum, so the identity is exact
    # for any closed polyline, self-intersecting or not
    arr = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if len(arr) < 3 or arr[0] == arr[-1]:
        return
    sec = section_from_points(arr, closed=True)
    alpha = 1.7
    lhs = dislocation(sec, alpha)
    x, y = sec.x, sec.y
    area = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    rhs = -2.0 * alpha * area
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_open_closed_guards():
    import pytest
    open_sec = section_from_points([[0, 0], [1, 0]])
    closed_sec = section_from_points([[0, 0], [1, 0], [0, 1]], closed=True)
    with pytest.raises(ValueError):
        dislocation(open_sec, alpha=1.0)
    with pytest.raises(ValueError):
        warping_function(closed_sec, alpha=1.0)
