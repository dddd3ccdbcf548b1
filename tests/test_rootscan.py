import math

import numpy as np
import pytest

from rabi_spectra import GFunctionSample, RootScanConfig, rootscan, scan_and_refine
from rabi_spectra.errors import ValidationError
from rabi_spectra.rootscan import FLAG_SETS, MAX_GRID_POINTS, REFINE_TOL


def arrays(sample):
    """The (g, flags) array signature for a per-energy sample function; the
    number of energies of every call is recorded in ``.calls``."""
    def f(energies):
        f.calls.append(len(energies))
        got = [sample(float(e)) for e in energies]
        return (np.array([s.g_value for s in got]),
                np.array([FLAG_SETS.index(s.flags) for s in got]))
    f.calls = []
    return f


def test_quadratic_root():
    cfg = RootScanConfig(0.0, 2.0, 0.1)
    rep = scan_and_refine(arrays(lambda e: GFunctionSample(e, e * e - 2.0)), cfg)
    assert len(rep.roots) == 1
    assert rep.roots[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_flagged_pole_is_excluded_not_rooted():
    def f(e):
        if abs(e - 1.0) < 0.05:
            return GFunctionSample(e, math.nan, 0.0, frozenset({"near_resonance"}))
        return GFunctionSample(e, 1.0 / (e - 1.0))

    cfg = RootScanConfig(0.0, 2.0, 0.02)
    rep = scan_and_refine(arrays(f), cfg)
    assert len(rep.roots) == 0
    assert any("near_resonance" in iv.reason for iv in rep.excluded)


def test_unflagged_pole_detected_as_pole():
    # sign change through a pole between grid points: |f| never collapses
    cfg = RootScanConfig(0.0, 2.0, 0.3)
    rep = scan_and_refine(arrays(lambda e: GFunctionSample(e, 1.0 / (e - 1.05))), cfg)
    assert len(rep.roots) == 0
    assert any(iv.reason == "pole" for iv in rep.excluded)


def test_pole_and_root_separated_by_a_knot():
    # f = (e - 0.8)/(e - 0.9) has a root and a pole in the cell [0.5, 1.0] and
    # the same sign at both ends.  Angle-normalized and with its sign flip at
    # the pole taken out, as a route scans its determinant, it is continuous
    # through the pole, which is a knot whose sample is the limit 1
    def f(e):
        if e == 0.9:
            return GFunctionSample(e, 1.0)
        v = (e - 0.8) / (e - 0.9)
        return GFunctionSample(e, v / math.hypot(1.0, v) * math.copysign(1.0, e - 0.9))

    grids = []
    sampled = arrays(f)

    def recording(energies):
        grids.append(energies)
        return sampled(energies)

    # 1.0 + 4e-16 stands for the grid point 1.0; 3.0 lies outside the window
    cfg = RootScanConfig(0.0, 2.0, 0.5, knots=(0.9, 1.0 + 4e-16, 3.0))
    rep = scan_and_refine(recording, cfg)
    np.testing.assert_array_equal(grids[0], [0.0, 0.5, 0.9, 1.0 + 4e-16, 1.5, 2.0])
    assert len(rep.roots) == 1
    assert rep.roots[0] == pytest.approx(0.8, abs=1e-9)
    assert rep.excluded == () and rep.suspects == ()
    assert rep.brackets == ((0.5, 0.9),)


def test_grid_step_robustness():
    f = arrays(lambda e: GFunctionSample(e, math.sin(3.0 * e)))
    roots_coarse = scan_and_refine(f, RootScanConfig(0.2, 4.0, 0.3)).roots
    roots_fine = scan_and_refine(f, RootScanConfig(0.2, 4.0, 0.15)).roots
    for r in roots_coarse:
        assert np.min(np.abs(roots_fine - r)) < 1e-9


def test_bisection_contract():
    def f(e):
        return (e - 1.234567891) ** 3

    rep = scan_and_refine(arrays(lambda e: GFunctionSample(e, f(e))),
                          RootScanConfig(0.0, 2.0, 0.1))
    r = rep.roots[0]
    assert abs(r - 1.234567891) <= 1e-9
    fr = abs(f(r))
    assert fr <= abs(f(r + 1e-10)) + 1e-30 \
        or fr <= abs(f(r - 1e-10)) + 1e-30


def test_roots_sorted_and_separated():
    f = arrays(lambda e: GFunctionSample(e, math.sin(5.0 * e)))
    rep = scan_and_refine(f, RootScanConfig(0.1, 3.0, 0.1))
    assert np.all(np.diff(rep.roots) > 1e-10)


def test_grid_cap():
    with pytest.raises(ValidationError, match="points"):
        RootScanConfig(-1.0, 4.0, 1e-6)
    RootScanConfig(0.0, 0.5 * MAX_GRID_POINTS, 0.5)


def test_empty_range():
    cfg = RootScanConfig(1.0, 1.0, 0.1)
    rep = scan_and_refine(arrays(lambda e: GFunctionSample(e, e - 2.0)), cfg)
    assert rep.roots.size == 0


def test_exact_zero_at_the_window_top_edge_is_a_root():
    line = arrays(lambda e: GFunctionSample(e, e - 1.0))
    for lo, hi in ((0.0, 1.0), (1.0, 2.0)):
        rep = scan_and_refine(line, RootScanConfig(lo, hi, 0.25))
        assert rep.roots.tolist() == [1.0]


def test_exact_zero_next_to_a_flagged_sample_is_a_root():
    def f(e):
        if e == 1.25:
            return GFunctionSample(e, 0.25, 0.0, frozenset({"near_resonance"}))
        return GFunctionSample(e, e - 1.0)

    rep = scan_and_refine(arrays(f), RootScanConfig(0.5, 1.5, 0.25))
    assert rep.roots.tolist() == [1.0]
    assert [iv.reason for iv in rep.excluded] == ["near_resonance"]


def test_suspect_next_to_flagged_run():
    # flagged run 0.95..1.05; the sign changes between its unflagged right
    # neighbour 1.1 and the next sample 1.15, so that cell is only a suspect
    def f(e):
        if 0.92 < e < 1.08:
            return GFunctionSample(e, math.nan, 0.0,
                                   frozenset({"series_nonconverged"}))
        return GFunctionSample(e, -1.0 if e < 1.12 else 1.0)

    rep = scan_and_refine(arrays(f), RootScanConfig(0.0, 2.0, 0.05))
    assert len(rep.roots) == 0
    assert rep.suspects == pytest.approx((1.125,), abs=1e-12)
    assert any("series_nonconverged" in iv.reason for iv in rep.excluded)


def test_unflagged_non_finite_sample_is_excluded_not_rooted():
    # NaN with an empty flag set: on the grid it hides the root at 1.0 and
    # opens an excluded interval named 'flagged'; met while refining the
    # bracket around 1.234567891 it makes a suspect
    def f(e):
        if abs(e - 1.0) < 0.03 or abs(e - 1.234567891) < 1e-4:
            return GFunctionSample(e, math.nan)
        return GFunctionSample(e, (e - 1.0) * (e - 1.234567891))

    rep = scan_and_refine(arrays(f), RootScanConfig(0.0, 2.0, 0.05))
    assert rep.roots.size == 0
    assert [iv.reason for iv in rep.excluded] == ["flagged"]
    assert (rep.excluded[0].lo, rep.excluded[0].hi) == pytest.approx((0.95, 1.05))
    assert len(rep.suspects) == 1 and abs(rep.suspects[0] - 1.234567891) < 1e-4


def bisection_calls(rep):
    """Calls bisection took: the grid, then per bracket its halvings down to
    REFINE_TOL plus one final evaluation, all brackets in lockstep."""
    return 1 + max(math.ceil(math.log2((hi - lo) / REFINE_TOL))
                   for lo, hi in rep.brackets) + 1


def test_brackets_are_refined_in_lockstep():
    # roots of sin(3e) at k*pi/3 and a pole at 1.57, which sits between grid
    # points and is refined like a root until the pole test rejects it
    f = arrays(lambda e: GFunctionSample(e, math.sin(3.0 * e) / (e - 1.57)))
    calls = f.calls
    cfg = RootScanConfig(0.2, 4.0, 0.1)
    rep = scan_and_refine(f, cfg)
    np.testing.assert_allclose(rep.roots, [math.pi / 3, 2 * math.pi / 3, math.pi],
                               atol=1e-10)
    assert [iv.reason for iv in rep.excluded] == ["pole"]
    assert abs(rep.excluded[0].lo - 1.57) < 1e-9
    assert len(rep.brackets) == 4
    # the pole bracket alone needs about as many rounds as bisection
    assert len(calls) <= bisection_calls(rep)
    assert rep.n_evaluations == sum(calls)

    # without the pole the secant steps converge in a few rounds
    f = arrays(lambda e: GFunctionSample(e, math.sin(3.0 * e)))
    calls = f.calls
    rep = scan_and_refine(f, cfg)
    np.testing.assert_allclose(rep.roots, [math.pi / 3, 2 * math.pi / 3, math.pi],
                               atol=1e-10)
    assert len(calls) <= 8
    assert rep.n_evaluations == sum(calls)


#: hard cases for the refiner: (sample function, expected roots, expected
#: excluded reasons, expected suspects)
HARD = {
    "triple-root": (lambda e: GFunctionSample(e, (e - 1.234567891) ** 3),
                    [1.234567891], [], 0),
    "pole": (lambda e: GFunctionSample(e, 1.0 / (e - 1.234567891)), [], ["pole"], 0),
    "step": (lambda e: GFunctionSample(e, -1.0 if e < 1.234567891 else 1.0),
             [], ["pole"], 0),
    # unflagged on the grid, flagged within 1e-4 of the root
    "flag-in-refinement": (
        lambda e: GFunctionSample(e, math.nan, 0.0, frozenset({"series_nonconverged"}))
        if abs(e - 1.234567891) < 1e-4 else GFunctionSample(e, e - 1.234567891),
        [], [], 1),
}


@pytest.mark.parametrize("case", sorted(HARD))
def test_refiner_hard_cases_take_no_more_rounds_than_bisection(case):
    sample, roots, reasons, n_suspects = HARD[case]
    f = arrays(sample)
    calls = f.calls
    cfg = RootScanConfig(1.0, 1.5, 0.05)
    rep = scan_and_refine(f, cfg)
    np.testing.assert_allclose(rep.roots, roots, atol=1e-9)
    assert [iv.reason for iv in rep.excluded] == reasons
    assert len(rep.suspects) == n_suspects
    assert len(rep.brackets) == 1
    assert len(calls) <= bisection_calls(rep)
    assert rep.n_evaluations == sum(calls)


def test_rational_step_next_to_a_pole():
    # a pole 1e-5 below the bracket: the secant steps keep falling back to the
    # midpoint (11 calls), the linear-fractional step models f exactly
    r, p = 3.4908251150, 3.49
    f = arrays(lambda e: GFunctionSample(e, (e - r) / (e - p)))
    calls = f.calls
    rep = scan_and_refine(f, RootScanConfig(3.49001, 3.54001, 0.05))
    assert len(rep.brackets) == 1 and p < rep.brackets[0][0] < r
    np.testing.assert_allclose(rep.roots, [r], rtol=0.0, atol=REFINE_TOL)
    assert len(calls) <= 5
    assert rep.n_evaluations == sum(calls)


def test_lockstep_collects_a_task_that_returns_before_its_first_round():
    # [1, 1 + ulp] has no representable interior point, so its refiner
    # returns at once and asks for no call; the other bracket is refined
    f = arrays(lambda e: GFunctionSample(e, e - 0.3))
    tiny = rootscan._refine(1.0, math.nextafter(1.0, 2.0), -1e-12, 1.0)
    assert rootscan._lockstep(f, [tiny]) == [("root", 1.0, 0)] and f.calls == []
    tiny = rootscan._refine(1.0, math.nextafter(1.0, 2.0), -1e-12, 1.0)
    first, (kind, r, n) = rootscan._lockstep(
        f, [tiny, rootscan._refine(0.0, 0.5, -0.3, 0.2)])
    assert first == ("root", 1.0, 0) and (kind, n) == ("root", sum(f.calls))
    assert r == pytest.approx(0.3, abs=1e-10)
