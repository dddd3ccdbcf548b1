import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi_spectra import (
    ModelParams,
    build_hamiltonian,
    fock,
    oracle_spectrum,
    validate_params,
)
from rabi_spectra.errors import ValidationError
from rabi_spectra.fock import BANDED_FROM, MAX_CUTOFF, eigenvalues


def test_two_by_two_block():
    # cutoff 0 in the sigma_x basis: eps on the diagonal, delta between
    # (0, +) and (0, -)
    p = validate_params(1.0, 0.3, 0.4, 0.0, 0.0)
    assert np.array_equal(build_hamiltonian(p, 0).matrix, [[0.4, 0.3], [0.3, -0.4]])
    ev = eigenvalues(p, 0)
    r = math.hypot(0.3, 0.4)
    np.testing.assert_allclose(ev, [-r, r], rtol=1e-14)


def test_ladder_matrix_elements():
    p = validate_params(1.0, 0.3, 0.1, 0.7, 0.25)
    h = build_hamiltonian(p, 5).matrix
    n = 3
    assert h[2 * n, 2 * n] == pytest.approx(1.0 * n + 0.1)  # omega n + eps
    assert h[2 * n + 1, 2 * n + 1] == pytest.approx(1.0 * n - 0.1)
    assert h[2 * n, 2 * n + 1] == 0.3  # delta keeps n and flips s
    assert h[2 * n + 1, 2 * (n + 1)] == 0.0
    # +-g sqrt(n+1) between n and n+1, +-lam sqrt((n+1)(n+2)) between n and
    # n+2, each keeping s
    for s, sign in ((0, 1.0), (1, -1.0)):
        assert h[2 * n + s, 2 * (n + 1) + s] == pytest.approx(sign * 0.7 * math.sqrt(n + 1))
        assert h[2 * n + s, 2 * (n + 1) + 1 - s] == 0.0
        assert h[2 * n + s, 2 * (n + 2) + s] == pytest.approx(
            sign * 0.25 * math.sqrt((n + 1) * (n + 2)))
        assert h[2 * n + s, 2 * (n + 2) + 1 - s] == 0.0


def reference_hamiltonian(p, cutoff):
    """The Hamiltonian in the spin basis, element by element: diagonal
    omega n +- delta, and the spin flip between Fock levels n and m = n,
    n + 1, n + 2."""
    h = np.zeros((2 * cutoff + 2, 2 * cutoff + 2))
    for n in range(cutoff + 1):
        h[2 * n, 2 * n] = p.omega * n + p.delta
        h[2 * n + 1, 2 * n + 1] = p.omega * n - p.delta
        for m, amp in ((n, p.epsilon), (n + 1, p.g * math.sqrt(n + 1.0)),
                       (n + 2, p.lam * math.sqrt((n + 1.0) * (n + 2.0)))):
            if m <= cutoff:
                for i, j in ((2 * n, 2 * m + 1), (2 * n + 1, 2 * m)):
                    h[i, j] = h[j, i] = amp
    return h


def rotate_to_spin_flip_basis(h):
    """U h U^T for U = I (x) [[1, 1], [1, -1]]/sqrt 2, which takes index
    2 n + s from the sigma_z to the sigma_x eigenstates."""
    u = np.kron(np.eye(h.shape[0] // 2), np.array([[1.0, 1.0], [1.0, -1.0]]))
    return u @ h @ u.T / 2.0


def rounding(h):
    """The rounding a rotation of h by U may leave: a few ulps of its
    largest entry."""
    return 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(h)))


def random_params(rng):
    return validate_params(rng.uniform(0.5, 2.0), rng.uniform(-1, 1),
                           rng.uniform(-1, 1), rng.uniform(-1, 1),
                           rng.uniform(-0.2, 0.2))


@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 10, 400])
def test_matrix_matches_element_by_element_reference(cutoff):
    # the band is the spin-basis reference rotated to the sigma_x basis
    rng = np.random.default_rng(cutoff)
    for _ in range(3):
        p = random_params(rng)
        rotated = rotate_to_spin_flip_basis(reference_hamiltonian(p, cutoff))
        h = build_hamiltonian(p, cutoff).matrix
        assert np.max(np.abs(h - rotated)) <= rounding(rotated)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 10])
def test_band_holds_the_lower_diagonals(cutoff):
    # band[d, j] = H[j + d, j], zero past the matrix's edge, as LAPACK reads
    # it; every coupling keeps s, so offset 3 is empty and the band has
    # half-width 4
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.2)
    ham = build_hamiltonian(p, cutoff)
    h = rotate_to_spin_flip_basis(reference_hamiltonian(p, cutoff))
    assert ham.band.shape == (5, ham.dimension)
    for d, row in enumerate(ham.band):
        expect = np.concatenate([np.diagonal(h, -d), np.zeros(d)])[:row.size]
        assert np.max(np.abs(row - expect)) <= rounding(h)
        assert not np.any(row[max(row.size - d, 0):])
    assert not np.any(ham.band[3])
    assert np.max(np.abs(np.tril(h, -5)), initial=0.0) <= rounding(h)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 10])
def test_the_solved_band_is_the_matrix_in_the_spin_flip_basis(cutoff):
    # U is orthogonal, so the band's spectrum is the spin matrix's
    rng = np.random.default_rng(100 + cutoff)
    for _ in range(3):
        p = random_params(rng)
        spin = np.linalg.eigvalsh(reference_hamiltonian(p, cutoff))
        ev = eigenvalues(p, cutoff)
        assert np.all(np.abs(ev - spin) <= 1e-13 * np.maximum(1.0, np.abs(spin)))


def test_the_banded_solver_is_given_the_spin_flip_band(monkeypatch):
    import scipy.linalg

    given_bands = []
    solve = scipy.linalg.eigvals_banded
    monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                        lambda band, **kw: given_bands.append(band) or solve(band, **kw))
    fock._eigenvalues.cache_clear()
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    eigenvalues(p, BANDED_FROM)
    assert len(given_bands) == 1
    assert np.array_equal(given_bands[0], build_hamiltonian(p, BANDED_FROM).band)


@pytest.mark.parametrize("cutoff", [0, 1, 10, 120, BANDED_FROM - 1])
def test_the_dense_path_is_eigvalsh_of_the_spin_matrix_bit_for_bit(cutoff):
    # below BANDED_FROM the levels are eigvalsh's of the band's matrix to
    # the last bit, and those of the spin-basis matrix to rounding
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.2)
    dense = np.linalg.eigvalsh(build_hamiltonian(p, cutoff).matrix)
    spin = np.linalg.eigvalsh(reference_hamiltonian(p, cutoff))
    assert np.all(np.abs(dense - spin) <= 1e-13 * np.maximum(1.0, np.abs(spin)))
    for k in (1, 10, None):
        assert np.array_equal(eigenvalues(p, cutoff, k), dense[:k])


def test_symmetric_bit_exact():
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.2)
    h = build_hamiltonian(p, 40).matrix
    assert np.array_equal(h, h.T)


def test_negative_cutoff():
    with pytest.raises(ValidationError, match="cutoff must be >= 0, got -1"):
        build_hamiltonian(validate_params(1.0, 0, 0, 0, 0), -1)


def test_decoupled_exact():
    p = validate_params(1.0, 0.3, 0.4, 0.0, 0.0)
    ev = eigenvalues(p, 40)[:12]
    r = math.hypot(0.3, 0.4)
    expect = np.sort(np.concatenate([np.arange(7) - r, np.arange(7) + r]))[:12]
    np.testing.assert_allclose(ev, expect, atol=1e-12)


def test_closed_form_cross_check():
    p = validate_params(1.0, 0.0, 0.1, 0.4, 0.2)
    res = oracle_spectrum(p, 120, 10)
    from rabi_spectra import uncoupled_spectrum
    plus, minus = uncoupled_spectrum(p, 12)
    cf = np.sort(np.concatenate([plus.energies, minus.energies]))[:10]
    assert np.max(np.abs(res.eigenvalues - cf)) < 1e-8


def test_self_convergence():
    p = validate_params(1.0, 0.0, 0.1, 0.4, 0.2)
    e120 = eigenvalues(p, 120)[:10]
    e160 = eigenvalues(p, 160)[:10]
    assert np.max(np.abs(e120 - e160)) < 1e-9


def test_cauchy_interlacing_monotone():
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.2)
    prev = None
    for cutoff in (40, 60, 80, 120):
        ev = eigenvalues(p, cutoff)[:10]
        if prev is not None:
            assert np.all(ev <= prev + 1e-12)
        prev = ev


def test_mirror_symmetry_of_spectrum():
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.2)
    e1 = eigenvalues(p, 120)[:12]
    e2 = eigenvalues(p.mirrored(), 120)[:12]
    scale = np.maximum(1.0, np.abs(e1))
    assert np.max(np.abs(e1 - e2) / scale) < 1e-10


def test_divergence_guard_beyond_squeeze_limit():
    # |2 lam| >= omega: lowest eigenvalues keep sinking with the cutoff
    p = ModelParams(1.0, 0.0, 0.0, 0.0, 0.6)
    deltas = []
    for cutoff in (40, 80, 120):
        deltas.append(oracle_spectrum(p, cutoff, 3, delta_n=20)
                      .convergence_deltas.max())
    assert min(deltas) > 1e-2  # never converging


def test_oracle_result_fields():
    p = validate_params(1.0, 0.2, 0.0, 0.3, 0.1)
    res = oracle_spectrum(p, 80, 6, delta_n=40)
    assert res.cutoff == 80
    assert res.reference_cutoff == 40
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
    assert np.all(res.convergence_deltas >= 0)
    with pytest.raises(ValidationError, match=r"k must lie in \[1, 6\]"):
        oracle_spectrum(p, 2, 100)


@pytest.mark.parametrize("cutoff", [0, -1])
def test_oracle_rejects_cutoff_below_one_by_name(cutoff):
    p = validate_params(1.0, 0.2, 0.0, 0.3, 0.1)
    with pytest.raises(ValidationError, match=rf"cutoff must be >= 1, got {cutoff}$"):
        oracle_spectrum(p, cutoff)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was used")


def test_oracle_rejects_cutoff_above_cap_before_building(monkeypatch):
    # the cap is checked in build_hamiltonian before any array is made
    monkeypatch.setattr(fock, "np", _NoNumpy())
    p = validate_params(1.0, 0.2, 0.0, 0.3, 0.1)
    with pytest.raises(ValidationError, match=rf"cutoff must be <= {MAX_CUTOFF}, "
                                              rf"got {10 ** 6}$"):
        oracle_spectrum(p, 10 ** 6)


@pytest.mark.parametrize("build", [fock.build_hamiltonian, fock.eigenvalues])
def test_cutoff_above_cap_is_refused_before_any_array(build, monkeypatch):
    monkeypatch.setattr(fock, "np", _NoNumpy())
    p = validate_params(1.0, 0.2, 0.0, 0.3, 0.1)
    with pytest.raises(ValidationError, match=rf"cutoff must be <= {MAX_CUTOFF}, "
                                              rf"got {MAX_CUTOFF + 1}$"):
        build(p, MAX_CUTOFF + 1)


def count_solves(monkeypatch) -> list:
    """(solver, dimension, levels) of each dense or banded eigensolve from
    now on; each solver is wrapped with its real signature."""
    import scipy.linalg

    solved = []

    def counted(solver, fn):
        def wrapped(*args, **kwargs):
            ev = fn(*args, **kwargs)
            # the matrix is dim x dim, the band 5 x dim
            solved.append((solver, args[0].shape[-1], len(ev)))
            return ev
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("dense", np.linalg.eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                        counted("banded", scipy.linalg.eigvals_banded))
    fock._eigenvalues.cache_clear()
    return solved


def count_builds(monkeypatch) -> list:
    """The cutoff of each Hamiltonian built from now on, counted on the
    module attribute ``fock.build_hamiltonian``, where a tracer hooks it."""
    builds = []
    build = fock.build_hamiltonian
    monkeypatch.setattr(fock, "build_hamiltonian",
                        lambda p, cutoff: builds.append(cutoff) or build(p, cutoff))
    fock._eigenvalues.cache_clear()
    return builds


def test_every_solve_builds_its_hamiltonian_once(monkeypatch):
    # dense, banded in full and bisected, each from the one builder
    solved = count_solves(monkeypatch)
    builds = count_builds(monkeypatch)
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    eigenvalues(p, 120)
    eigenvalues(p, BANDED_FROM)
    eigenvalues(p, 800, 40)
    assert solved == [("dense", 242, 242), ("banded", 402, 402), ("banded", 1602, 40)]
    assert builds == [120, BANDED_FROM, 800]
    # a cached lookup builds nothing: a repeated solve, and a ladder step's
    # reference cutoff, which is the previous step's cutoff
    builds.clear()
    eigenvalues(p, 120)
    for cutoff in (200, 400):
        oracle_spectrum(p, cutoff, 40, cutoff // 2)
    assert builds == [200, 100, 400]
    assert len(solved) == 6


def test_the_band_is_solved_from_cutoff_200(monkeypatch):
    assert BANDED_FROM == 200
    solved = count_solves(monkeypatch)
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    for cutoff in (BANDED_FROM - 1, BANDED_FROM, 120):
        eigenvalues(p, cutoff)
    assert solved == [("dense", 400, 400), ("banded", 402, 402), ("dense", 242, 242)]


def test_a_cutoff_ladder_solves_each_cutoff_once(monkeypatch):
    # each step's reference cutoff is the previous step's cutoff
    solved = count_solves(monkeypatch)
    for p in (validate_params(1.0, 0.3, 0.1, 0.4, 0.35),
              validate_params(1.0, 0.2, -0.1, 0.3, 0.4)):
        for cutoff in (200, 400, 800):
            res = oracle_spectrum(p, cutoff, 40, cutoff // 2)
        assert res.reference_cutoff == 400
    # a second parameter set solves all four of its own cutoffs: 100 dense,
    # 200 and 400 on the band in full, 800 on the band for its lowest 40
    assert solved == [("banded", 402, 402), ("dense", 202, 202),
                      ("banded", 802, 802), ("banded", 1602, 40)] * 2
    assert fock._eigenvalues.cache_info().maxsize == 4


def test_each_form_of_a_number_reuses_one_solve(monkeypatch):
    # a parameter set holds floats, so 1, np.float64(1.0) and np.array(1.0)
    # key the same solves
    solved = count_solves(monkeypatch)
    results = [oracle_spectrum(ModelParams(omega, 0.4, 0.15, 0.6, 0.0), 40, 3)
               for omega in (1.0, 1, np.float64(1.0), np.array(1.0))]
    assert len(solved) == 2  # cutoffs 40 and 0, for the first form only
    for res in results[1:]:
        assert np.array_equal(res.eigenvalues, results[0].eigenvalues)


def test_the_lowest_k_are_bisected_where_k_is_small_against_the_dimension(monkeypatch):
    solved = count_solves(monkeypatch)
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    for k in (17, 18, 100):  # 23 * 17 < 402 <= 23 * 18
        assert eigenvalues(p, BANDED_FROM, k).size == k
    assert solved == [("banded", 402, 17), ("banded", 402, 402), ("banded", 402, 402)]
    assert fock.BISECT_RATIO == 23


@pytest.mark.parametrize("k", [0, -1, 2.5, math.nan])
def test_eigenvalues_refuses_k_that_is_not_a_whole_number_from_one(k):
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    with pytest.raises(ValidationError, match=r"k must be (>= 1|a whole number)"):
        eigenvalues(p, 10, k)


def test_eigenvalues_clamps_k_to_the_dimension():
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    assert np.array_equal(eigenvalues(p, 10, 100), eigenvalues(p, 10))
    assert eigenvalues(p, 10, 22.0).size == 22


def test_a_reference_cutoff_with_fewer_levels_gives_fewer_deltas():
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.35)
    res = oracle_spectrum(p, 20, 40, 10)
    assert (res.eigenvalues.size, res.convergence_deltas.size) == (40, 22)
    assert res.reference_cutoff == 10
    assert np.array_equal(res.convergence_deltas,
                          np.abs(eigenvalues(p, 20)[:22] - eigenvalues(p, 10)))


COUPLING = st.floats(-1.0, 1.0)


PARAMS = st.builds(ModelParams, st.just(1.0), COUPLING, COUPLING,
                   st.floats(-2.0, 2.0), st.floats(-0.49, 0.49))


def assert_lowest_k_match_dense(p, cutoff):
    """For k = 1, 10, 40 and all, ``eigenvalues(p, cutoff, k)`` agrees with
    a dense ``eigvalsh`` of the expanded matrix and with the head of the
    full spectrum, within 1e-11 max(1, |E|)."""
    dense = np.linalg.eigvalsh(build_hamiltonian(p, cutoff).matrix)
    full = eigenvalues(p, cutoff)
    for k in (1, 10, 40, None):
        ev = eigenvalues(p, cutoff, k)
        ref = dense[:k]
        tol = 1e-11 * np.maximum(1.0, np.abs(ref))
        assert ev.size == ref.size
        assert np.all(np.abs(ev - ref) <= tol)
        assert np.all(np.abs(ev - full[:k]) <= tol)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(PARAMS)
@example(ModelParams(1.0, 0.3, 0.1, 0.4, 0.6))  # |2 lam| >= omega
def test_banded_eigenvalues_match_dense_at_the_switch(p):
    # cutoff 199 is solved dense; 200 on the band, bisected for k = 1 and
    # 10 and in full for k = 40 and all
    for cutoff in (BANDED_FROM - 1, BANDED_FROM):
        assert_lowest_k_match_dense(p, cutoff)


@settings(derandomize=True, max_examples=5, deadline=None)
@given(PARAMS)
@example(ModelParams(1.0, 0.3, 0.1, 0.4, 0.6))  # |2 lam| >= omega
def test_bisected_eigenvalues_match_dense_at_cutoff_800(p):
    # dim 1602 bisects for every k up to 40; a dense solve there takes
    # about 175 ms, so this property draws fewer examples
    assert_lowest_k_match_dense(p, 800)


def test_oracle_results_cannot_corrupt_the_kept_eigenvalues():
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.2)
    first = oracle_spectrum(p, 40, 10)
    expect = first.eigenvalues.copy()
    first.eigenvalues[:] = 0.0
    first.convergence_deltas[:] = 1.0
    again = oracle_spectrum(p, 40, 10)
    assert np.array_equal(again.eigenvalues, expect)
    assert np.all(again.convergence_deltas < 1.0)
    with pytest.raises(ValueError, match="read-only"):
        eigenvalues(p, 40)[0] = 0.0
