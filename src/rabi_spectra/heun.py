"""Spectrum of the linear-coupling model (lam = 0) through the confluent
Heun reduction: local series at the two regular singularities, Wronskian
spectral determinant, resonance-aware scanning, and exceptional-point tests.

The determinant is evaluated for a whole vector of trial energies at once:
the reduction's zeta-form coefficients are quadratics in E, taken once per
parameter set from three probes of :func:`che_params`, and both local series
of every energy are rolled together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _kernels
from .errors import (
    EvalPointOutOfDiskError,
    GZeroError,
    LambdaNotZeroError,
)
from .operators import asymmetric_second_order
from .params import CLASSIFY_TOL, ModelParams
from .polyops import poly, ptrim, pval
from .rootscan import (
    GFunctionSample,
    RootReport,
    RootScanConfig,
    SpectrumResult,
    scan_and_refine,
)
from .series import (
    PolyOde,
    ScaledValue,
    default_seeds,
    exponent_seeds,
    ode_to_recurrence,
    series_eval,
    series_sums_lanes,
)

#: half-width of the exclusion zone planted around each resonance energy
RESONANCE_HALF_WIDTH = 1e-9
#: |angle Wronskian| below which a ladder point is accepted as exceptional
EXCEPTIONAL_TOL = 1e-8


def split_two_poles(num, p2, q: float):
    """num/p2 = quotient + res_plus/(z - q) + res_minus/(z + q) for
    p2 = p2_lead (z^2 - q^2)."""
    p2 = ptrim(p2)
    lead = p2[-1]
    quot, rem = npoly.polydiv(poly(num), poly(p2))
    rem = ptrim(rem)
    res_plus = pval(rem, q) / (lead * 2 * q)
    res_minus = pval(rem, -q) / (lead * (-2 * q))
    return ptrim(quot, 1e-300), float(res_plus), float(res_minus)


@dataclass(frozen=True)
class CheParams:
    """Confluent-Heun data for the lam = 0 model at one trial energy."""

    alpha: float
    beta: float
    gamma: float
    mu: float
    nu: float
    k: float
    k_branch: str
    q: float
    a_table: dict
    b_table: dict
    zeta_table: dict
    quad_residual: float

    def resonance_index_origin(self) -> float:
        """Series index at zeta=0 whose leading weight vanishes: -beta - 1."""
        return -self.beta - 1.0

    def resonance_index_one(self) -> float:
        """Series index at zeta=1 whose leading weight vanishes: -gamma."""
        return -self.gamma


def che_params(p: ModelParams, energy: float, k_branch: str = "minus",
               tol: float = CLASSIFY_TOL) -> CheParams:
    """Partial fractions of the (corrected) second-order reduction, mapped to
    zeta in [0, 1] and gauged by exp(k zeta)."""
    if abs(p.lam) > tol * p.omega:
        raise LambdaNotZeroError(f"Heun route needs lambda = 0, got {p.lam}")
    if p.g == 0.0:
        raise GZeroError("the two regular singularities collide at g = 0")
    p0, p1, p2 = asymmetric_second_order(p, energy)
    q = abs(p.g / p.omega)
    quot1, a2, a3 = split_two_poles(p1, p2, q)
    quot0, b2, b3 = split_two_poles(p0, p2, q)
    a1 = float(quot1[0]) if quot1.size else 0.0
    b1 = float(quot0[0]) if quot0.size else 0.0
    a_table = {"A1": a1, "A2": a2, "A3": a3, "B1": b1, "B2": b2, "B3": b3}
    al1 = 2 * q * a1
    al2, al3 = a2, a3
    be1 = 4 * q * q * b1
    be2 = 2 * q * b2
    be3 = 2 * q * b3
    zeta_table = {"alpha1": al1, "alpha2": al2, "alpha3": al3,
                  "beta1": be1, "beta2": be2, "beta3": be3}
    k, alpha, beta, gamma, mu, nu = (
        float(v) for v in _gauged(*zeta_table.values(), k_branch))
    quad = k * k + al1 * k + be1
    return CheParams(alpha=alpha, beta=beta, gamma=gamma, mu=mu, nu=nu,
                     k=k, k_branch=k_branch, q=q,
                     a_table=a_table, b_table={},
                     zeta_table=zeta_table, quad_residual=quad)


def _gauged(al1, al2, al3, be1, be2, be3, k_branch: str):
    """Gauge root k of k^2 + alpha1 k + beta1 = 0 and the CHE parameters
    (k, alpha, beta, gamma, mu, nu); floats or lane arrays."""
    if k_branch not in ("minus", "plus"):
        raise ValueError("k_branch must be 'minus' or 'plus'")
    disc = np.asarray(al1 * al1 - 4 * be1)
    if np.any(disc < 0):
        raise GZeroError("gauge exponent k is complex for these parameters")
    root = np.sqrt(disc)
    k = (-al1 + root) / 2 if k_branch == "plus" else (-al1 - root) / 2
    return k, al1 + 2 * k, al3 - 1.0, al2, k * al3 + be3, k * al2 + be2


def _che_polys(a, b, g_, mu, nu):
    """Coefficients (p0, p1, p2) of zeta(zeta-1) times the confluent Heun
    equation; the entries are floats or lane arrays."""
    return ([-mu, mu + nu], [-(b + 1.0), b + 1.0 + g_ - a, a], [0.0, -1.0, 1.0])


def che_ode(che: CheParams, z0: float) -> PolyOde:
    """The confluent Heun equation times zeta(zeta-1), expanded at z0."""
    polys = _che_polys(che.alpha, che.beta, che.gamma, che.mu, che.nu)
    return PolyOde(tuple(poly(c) for c in polys), z0=z0)


def _energy_quadratics(values_at, omega: float) -> np.ndarray:
    """Rows c0, c1, c2 of quantities that are polynomials of degree <= 2 in
    the energy, from ``values_at`` (energy -> sequence) at E = -omega, 0,
    omega.  The value at E is c0 + E (c1 + E c2)."""
    fm, f0, fp = (np.array(values_at(e), dtype=float) for e in (-omega, 0.0, omega))
    out = np.array([f0, (fp - fm) / (2 * omega), ((fp + fm) / 2 - f0) / omega ** 2])
    out.setflags(write=False)
    return out


def _at_energies(quad: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """[quantity, lane] values of :func:`_energy_quadratics` rows."""
    e = energies[None, :]
    return quad[0][:, None] + e * (quad[1][:, None] + e * quad[2][:, None])


@functools.lru_cache(maxsize=64)
def _che_template(p: ModelParams) -> np.ndarray:
    """alpha1..beta3 of the zeta-form table as quadratics in E (p2 of the
    reduction does not depend on E, so the partial fractions are polynomial
    in it)."""
    return _energy_quadratics(lambda e: list(che_params(p, e).zeta_table.values()),
                             p.omega)


def _wronskian_sample(energy: float, v0: ScaledValue, d0: ScaledValue,
                      v1: ScaledValue, d1: ScaledValue,
                      flags: frozenset) -> GFunctionSample:
    a = v0 * d1
    b = v1 * d0
    la, lb = a.log_abs(), b.log_abs()
    m = max(la, lb)
    if m == -math.inf:
        return GFunctionSample(energy, 0.0, -math.inf, flags)
    # assemble G = A - B on the common scale m
    ga = math.copysign(math.exp(la - m), a.mantissa) if la > -math.inf else 0.0
    gb = math.copysign(math.exp(lb - m), b.mantissa) if lb > -math.inf else 0.0
    g_m = ga - gb
    log_g = (math.log(abs(g_m)) + m) if g_m != 0.0 else -math.inf
    n0 = max(v0.log_abs(), d0.log_abs())
    n1 = max(v1.log_abs(), d1.log_abs())
    if n0 == -math.inf or n1 == -math.inf:
        return GFunctionSample(energy, 0.0, -math.inf, flags | {"degenerate_series"})
    h0 = math.hypot(math.exp(v0.log_abs() - n0), math.exp(d0.log_abs() - n0))
    h1 = math.hypot(math.exp(v1.log_abs() - n1), math.exp(d1.log_abs() - n1))
    log_norm = n0 + math.log(h0) + n1 + math.log(h1)
    if g_m == 0.0:
        return GFunctionSample(energy, 0.0, -math.inf, flags)
    val = math.copysign(math.exp(min(log_g - log_norm, 50.0)), g_m)
    return GFunctionSample(energy, val, log_g, flags)


def _series_flags(kernel_flags: int) -> set:
    flags = set()
    if kernel_flags & _kernels.FLAG_NONCONVERGED:
        flags.add("series_nonconverged")
    if kernel_flags & (_kernels.FLAG_RESONANT_INCOMPATIBLE
                       | _kernels.FLAG_RESONANT_COMPATIBLE):
        flags.add("near_resonance")
    return flags


def _check_zeta_star(zeta_star: float) -> None:
    if not (0.0 < zeta_star < 1.0):
        raise EvalPointOutOfDiskError(
            f"zeta_star must lie in (0, 1), got {zeta_star}")


def _wronskian_lanes(energies: np.ndarray, polys, zeta_star: float,
                    max_n: int, tail_tol: float) -> list:
    """Angle-normalized Wronskian at zeta_star of the local series at zeta = 0
    and zeta = 1, one lane per energy; ``polys[k]`` holds each lane's
    coefficients of y^(k) (floats are shared by all lanes)."""
    n = energies.size
    polys = [np.column_stack([np.broadcast_to(v, (n,)) for v in c]) for c in polys]
    val, der, slog, kflags = series_sums_lanes(
        [np.concatenate([c, c]) for c in polys], np.repeat([0.0, 1.0], n),
        np.full(2 * n, zeta_star), max_n, tail_tol)
    base = {"near_singular_eval_point"} if min(zeta_star, 1.0 - zeta_star) < 0.02 \
        else set()
    out = []
    for i in range(n):
        j = i + n
        flags = base | _series_flags(int(kflags[i])) | _series_flags(int(kflags[j]))
        out.append(_wronskian_sample(
            float(energies[i]),
            ScaledValue(float(val[i]), float(slog[i])),
            ScaledValue(float(der[i]), float(slog[i])),
            ScaledValue(float(val[j]), float(slog[j])),
            ScaledValue(float(der[j]), float(slog[j])), frozenset(flags)))
    return out


def g_function_heun_batch(p: ModelParams, energies, zeta_star: float = 0.5,
                          k_branch: str = "minus", max_n: int = 2000,
                          tail_tol: float = 1e-14) -> list:
    """:func:`g_function_heun` for an array of energies, one sample each."""
    _check_zeta_star(zeta_star)
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    _k, *che = _gauged(*_at_energies(_che_template(p), energies), k_branch)
    return _wronskian_lanes(energies, _che_polys(*che), zeta_star, max_n, tail_tol)


def g_function_heun(p: ModelParams, energy: float, zeta_star: float = 0.5,
                    k_branch: str = "minus", max_n: int = 2000,
                    tail_tol: float = 1e-14) -> GFunctionSample:
    """Wronskian of the two local Heun series, angle-normalized, at zeta_star."""
    return g_function_heun_batch(p, [energy], zeta_star, k_branch, max_n,
                                 tail_tol)[0]


def resonance_ladder(p: ModelParams, e_min: float, e_max: float,
                     n_cap: int = 200) -> list:
    """(energy, side, resonant_index) for every series resonance in range.

    side 'origin': the zeta=0 leading weight (n+1)(n+beta+1) vanishes at
    index n; side 'one': (n+1)(n+gamma) vanishes.  beta(E) and gamma(E) are
    affine, so two probes pin each line (robust under g < 0, where the two
    singularities swap roles).
    """
    probe0 = che_params(p, 0.0)
    probe1 = che_params(p, p.omega)
    out = []
    for side, v0, v1 in (("origin", probe0.beta, probe1.beta),
                         ("one", probe0.gamma, probe1.gamma)):
        slope = (v1 - v0) / p.omega
        if abs(slope) < 1e-300:
            continue
        for m in range(0, n_cap + 1):
            target = -(m + 1.0) if side == "origin" else -float(m)
            e_m = (target - v0) / slope
            if e_min < e_m < e_max:
                out.append((float(e_m), side, m))
    out.sort(key=lambda t: t[0])
    return out


def exceptional_sample(p: ModelParams, energy: float, side: str,
                       resonant_index: int, zeta_star: float = 0.5,
                       k_branch: str = "minus", max_n: int = 2000,
                       tail_tol: float = 1e-14) -> GFunctionSample:
    """Second-kind Wronskian: replace the resonant-side series by the
    high-exponent Frobenius branch.  Its vanishing certifies that the ladder
    point is an exceptional eigenvalue (both-point holomorphic solution)."""
    che = che_params(p, energy, k_branch)
    rec0 = ode_to_recurrence(che_ode(che, 0.0), "che@0")
    rec1 = ode_to_recurrence(che_ode(che, 1.0), "che@1")
    seeds0 = exponent_seeds(rec0, resonant_index + 1) if side == "origin" \
        else default_seeds(rec0)
    seeds1 = exponent_seeds(rec1, resonant_index + 1) if side == "one" \
        else default_seeds(rec1)
    v0, d0, s0 = series_eval(rec0, zeta_star, max_n, tail_tol, seeds=seeds0)
    v1, d1, s1 = series_eval(rec1, zeta_star, max_n, tail_tol, seeds=seeds1)
    flags = _series_flags(s0.flags) | _series_flags(s1.flags)
    flags.discard("near_resonance")  # seeding past the resonance is the point
    return _wronskian_sample(energy, v0, d0, v1, d1, frozenset(flags))


def _scan_one_gauge(p: ModelParams, cfg: RootScanConfig, zeta_star: float,
                    k_branch: str, max_n: int, tail_tol: float) -> RootReport:
    def f(energies):
        return g_function_heun_batch(p, energies, zeta_star, k_branch, max_n,
                                     tail_tol)

    return scan_and_refine(f, cfg)


def heun_spectrum(p: ModelParams, e_min: float, e_max: float,
                  grid_step: float = 0.05, zeta_star: float = 0.5,
                  max_n: int = 2000, tail_tol: float = 1e-14,
                  refine_tol: float = 1e-10,
                  uncoupled_tol: float = 1e-10) -> SpectrumResult:
    """Scan the spectral determinant on [e_min, e_max].

    Both gauge branches are scanned and their refined roots compared; ladder
    points are tested for exceptional eigenvalues; at delta ~ 0 the mirrored
    spin sector (eps, g, lam -> negated) is scanned too, since the two
    sectors decouple there and each Wronskian sees only one of them.
    """
    ladder = resonance_ladder(p, e_min, e_max)
    zones = tuple((e, RESONANCE_HALF_WIDTH * p.omega, "resonance") for e, _s, _n in ladder)
    cfg = RootScanConfig(e_min, e_max, grid_step, refine_tol=refine_tol,
                         split_zones=zones)
    rep_minus = _scan_one_gauge(p, cfg, zeta_star, "minus", max_n, tail_tol)
    rep_plus = _scan_one_gauge(p, cfg, zeta_star, "plus", max_n, tail_tol)

    energies = []
    labels = []
    agree_tol = 1e-8 * p.omega
    used_plus = set()
    for r in rep_minus.roots:
        j = int(np.argmin(np.abs(rep_plus.roots - r))) if rep_plus.roots.size else -1
        if j >= 0 and abs(rep_plus.roots[j] - r) <= agree_tol:
            energies.append(0.5 * (r + rep_plus.roots[j]))
            labels.append("regular:both")
            used_plus.add(j)
        else:
            energies.append(r)
            labels.append("regular:minus-only")
    for j, r in enumerate(rep_plus.roots):
        if j not in used_plus:
            energies.append(r)
            labels.append("regular:plus-only")

    exceptional = []
    for e_r, side, n_res in ladder:
        s = exceptional_sample(p, e_r, side, n_res, zeta_star, "minus",
                               max_n, tail_tol)
        if s.ok and abs(s.g_value) < EXCEPTIONAL_TOL:
            exceptional.append((e_r, f"exceptional:{side}:{n_res}"))
    for e_r, lab in exceptional:
        energies.append(e_r)
        labels.append(lab)

    if abs(p.delta) <= uncoupled_tol * p.omega and p.g != 0.0:
        mirror = heun_spectrum_single(p.mirrored(), e_min, e_max, grid_step,
                                      zeta_star, max_n, tail_tol, refine_tol)
        for e_r, lab in zip(mirror.energies, mirror.labels):
            energies.append(e_r)
            labels.append("mirror:" + lab)

    order = np.argsort(energies) if energies else np.array([], dtype=int)
    e_arr = np.array([energies[i] for i in order])
    l_arr = [labels[i] for i in order]
    # merge duplicates (e.g. a root found by both sectors)
    keep_e, keep_l = [], []
    for e_v, l_v in zip(e_arr, l_arr):
        if keep_e and abs(e_v - keep_e[-1]) <= max(refine_tol, 1e-9 * p.omega):
            continue
        keep_e.append(float(e_v))
        keep_l.append(l_v)
    meta = {
        "ladder": ladder,
        "plus_branch_roots": rep_plus.roots.tolist(),
        "minus_branch_roots": rep_minus.roots.tolist(),
        "zeta_star": zeta_star,
    }
    return SpectrumResult("heun", np.array(keep_e), tuple(keep_l),
                          rep_minus, None, meta)


def heun_spectrum_single(p: ModelParams, e_min: float, e_max: float,
                         grid_step: float = 0.05, zeta_star: float = 0.5,
                         max_n: int = 2000, tail_tol: float = 1e-14,
                         refine_tol: float = 1e-10) -> SpectrumResult:
    """One-sector scan (minus gauge only, no mirroring): regular roots plus
    exceptional ladder points."""
    ladder = resonance_ladder(p, e_min, e_max)
    zones = tuple((e, RESONANCE_HALF_WIDTH * p.omega, "resonance") for e, _s, _n in ladder)
    cfg = RootScanConfig(e_min, e_max, grid_step, refine_tol=refine_tol,
                         split_zones=zones)
    rep = _scan_one_gauge(p, cfg, zeta_star, "minus", max_n, tail_tol)
    energies = list(rep.roots)
    labels = ["regular"] * len(energies)
    for e_r, side, n_res in ladder:
        s = exceptional_sample(p, e_r, side, n_res, zeta_star, "minus",
                               max_n, tail_tol)
        if s.ok and abs(s.g_value) < EXCEPTIONAL_TOL:
            energies.append(e_r)
            labels.append(f"exceptional:{side}:{n_res}")
    order = np.argsort(energies) if energies else np.array([], dtype=int)
    return SpectrumResult("heun", np.array([energies[i] for i in order]),
                          tuple(labels[i] for i in order), rep, None,
                          {"ladder": ladder})
