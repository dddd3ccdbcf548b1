"""Spectrum of the general model at small couplings via the second-order
reduction with two regular singularities and its four-term-recurrence
G-function; also the full fourth-order series used for residual validation.

As on the Heun route, the G-function is evaluated for a vector of energies at
once from zeta-form coefficients that are quadratics in E, taken once per
parameter set from three probes of :func:`bcf_reduce`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ComplexSingularityError,
    DegenerateQError,
    GNotZeroError,
    LambdaZeroError,
)
from .heun import (
    EXCEPTIONAL_TOL,
    RESONANCE_HALF_WIDTH,
    _at_energies,
    _check_zeta_star,
    _energy_quadratics,
    _series_flags,
    _wronskian_lanes,
    _wronskian_sample,
    split_two_poles,
)
from .operators import bcf_truncated_parent, compose_fourth_order, operator_compose
from .params import CLASSIFY_TOL, ModelParams
from .polyops import poly
from .rootscan import (
    ExcludedInterval,
    GFunctionSample,
    RootReport,
    RootScanConfig,
    SpectrumResult,
    scan_and_refine,
)
from .series import (
    PolyOde,
    SeriesSolution,
    default_seeds,
    exponent_seeds,
    ode_to_recurrence,
    series_eval,
)


@dataclass(frozen=True)
class BcfParams:
    """Reduced-equation data at one trial energy.

    q locates the regular singularities at z = +-q (zeta = 1, 0); the second
    block holds the partial-fraction table of the z-form; alpha/beta/gamma
    are the zeta-form coefficients feeding the four-term recurrences, and
    mu, nu, gamma_c (origin) plus delta, eta, kappa (at one) are the derived
    recurrence combinations.
    """

    q: float
    a_table: dict
    b_table: dict
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float
    gamma3: float
    mu: float
    nu: float
    gamma_c: float
    delta: float
    eta: float
    kappa: float

    def resonance_index_origin(self) -> float:
        return self.beta2

    def resonance_index_one(self) -> float:
        return self.beta1


def bcf_reduce(p: ModelParams, energy: float) -> BcfParams:
    """Partial fractions and zeta-form coefficients of the truncated ODE."""
    if p.lam == 0.0 and p.g == 0.0:
        raise DegenerateQError("q = 0: both couplings vanish")
    p0, p1, p2 = bcf_truncated_parent(p, energy)
    om2 = -p2[-1]
    q2 = float(p2[0] / om2)
    if q2 <= 0.0:
        raise ComplexSingularityError(
            f"q^2 = {q2}: singularities leave the real axis")
    q = math.sqrt(q2)
    if q < 1e-10:
        raise DegenerateQError(f"q = {q} too small; singularities collide")

    quot1, bp, bm = split_two_poles(p1, p2, q)
    quot0, gp, gm = split_two_poles(p0, p2, q)
    # z-form tables in the (z^2-q^2) phi'' = (A...) phi' + (B...) phi shape
    a_poly = poly(p1) / om2
    b_poly = poly(p0) / om2
    a_table = {f"A{i + 1}": float(a_poly[i]) if i < a_poly.size else 0.0
               for i in range(4)}
    b_table = {f"B{i + 1}": float(b_poly[i]) if i < b_poly.size else 0.0
               for i in range(3)}
    # zeta form: phi'' = (al1 z + al2 + be1/(z-1) + be2/z) phi' + ...
    c1 = float(quot1[1]) if quot1.size > 1 else 0.0
    c0 = float(quot1[0]) if quot1.size else 0.0
    d0 = float(quot0[0]) if quot0.size else 0.0
    d1 = float(quot0[1]) if quot0.size > 1 else 0.0
    d2 = float(quot0[2]) if quot0.size > 2 else 0.0
    if abs(d1) > 0 or abs(d2) > 0:
        raise GNotZeroError("unexpected polynomial growth in the phi part")
    al1 = -4 * q2 * c1
    al2 = -(2 * q * c0 - 2 * q2 * c1)
    be1 = -bp
    be2 = -bm
    ga1 = -4 * q2 * d0
    ga2 = -2 * q * gp
    ga3 = -2 * q * gm
    return BcfParams(
        q=q, a_table=a_table, b_table=b_table,
        alpha1=al1, alpha2=al2, beta1=be1, beta2=be2,
        gamma1=ga1, gamma2=ga2, gamma3=ga3,
        mu=be1 + be2 - al2, nu=al2 - al1, gamma_c=ga2 + ga3 - ga1,
        delta=al1 + al2 + be1 + be2, eta=2 * al1 + al2,
        kappa=ga1 + ga2 + ga3)


#: BcfParams fields that feed the zeta-form equation, in _bcf_polys order
_ZETA_FIELDS = ("alpha1", "alpha2", "beta1", "beta2", "gamma1", "gamma2", "gamma3")


def _bcf_polys(al1, al2, be1, be2, ga1, ga2, ga3):
    """Coefficients (p0, p1, p2) of zeta(zeta-1) times the reduced zeta-form
    equation; the entries are floats or lane arrays."""
    return ([ga3, -(ga2 + ga3 - ga1), -ga1],
            [be2, -(be1 + be2 - al2), -(al2 - al1), -al1],
            [0.0, -1.0, 1.0])


def bcf_ode(b: BcfParams, z0: float) -> PolyOde:
    """zeta(zeta-1) times the reduced zeta-form equation, expanded at z0."""
    polys = _bcf_polys(*(getattr(b, name) for name in _ZETA_FIELDS))
    return PolyOde(tuple(poly(c) for c in polys), z0=z0)


@functools.lru_cache(maxsize=64)
def _bcf_template(p: ModelParams) -> np.ndarray:
    """The _ZETA_FIELDS as quadratics in E (p2 of the truncated parent does
    not depend on E, so q does not either)."""
    return _energy_quadratics(
        lambda e: [getattr(bcf_reduce(p, e), name) for name in _ZETA_FIELDS],
        p.omega)


def g_function_bcf_batch(p: ModelParams, energies, zeta_star: float = 0.5,
                         max_n: int = 2000, tail_tol: float = 1e-14) -> list:
    """:func:`g_function_bcf` for an array of energies, one sample each."""
    _check_zeta_star(zeta_star)
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    try:
        template = _bcf_template(p)
    except ComplexSingularityError:
        return [GFunctionSample(float(e), math.nan, 0.0,
                                frozenset({"complex_singularity"}))
                for e in energies]
    return _wronskian_lanes(energies, _bcf_polys(*_at_energies(template, energies)),
                            zeta_star, max_n, tail_tol)


def g_function_bcf(p: ModelParams, energy: float, zeta_star: float = 0.5,
                   max_n: int = 2000, tail_tol: float = 1e-14) -> GFunctionSample:
    """Angle-normalized Wronskian of the two four-term local series."""
    return g_function_bcf_batch(p, [energy], zeta_star, max_n, tail_tol)[0]


def resonance_ladder(p: ModelParams, e_min: float, e_max: float,
                     n_cap: int = 200) -> list:
    """(energy, side, index): E where beta2 (origin) or beta1 (one) hits a
    nonnegative integer.  Both are affine in E, so two probes pin each line.
    """
    out = []
    for side in ("origin", "one"):
        def beta_of(energy):
            b = bcf_reduce(p, energy)
            return b.beta2 if side == "origin" else b.beta1

        try:
            b0 = beta_of(0.0)
            b1 = beta_of(1.0)
        except (ComplexSingularityError, DegenerateQError):
            continue
        slope = b1 - b0
        if abs(slope) < 1e-300:
            continue
        for m in range(0, n_cap + 1):
            e_m = (m - b0) / slope
            if e_min < e_m < e_max:
                out.append((float(e_m), side, m))
    out.sort(key=lambda t: t[0])
    return out


def exceptional_sample(p: ModelParams, energy: float, side: str,
                       resonant_index: int, zeta_star: float = 0.5,
                       max_n: int = 2000, tail_tol: float = 1e-14) -> GFunctionSample:
    """Second-kind Wronskian with the high-exponent branch on the resonant side."""
    b = bcf_reduce(p, energy)
    rec0 = ode_to_recurrence(bcf_ode(b, 0.0), "bcf@0")
    rec1 = ode_to_recurrence(bcf_ode(b, 1.0), "bcf@1")
    seeds0 = exponent_seeds(rec0, resonant_index + 1) if side == "origin" \
        else default_seeds(rec0)
    seeds1 = exponent_seeds(rec1, resonant_index + 1) if side == "one" \
        else default_seeds(rec1)
    v0, d0, s0 = series_eval(rec0, zeta_star, max_n, tail_tol, seeds=seeds0)
    v1, d1, s1 = series_eval(rec1, zeta_star, max_n, tail_tol, seeds=seeds1)
    flags = _series_flags(s0.flags) | _series_flags(s1.flags)
    flags.discard("near_resonance")
    return _wronskian_sample(energy, v0, d0, v1, d1, frozenset(flags))


def bcf_spectrum(p: ModelParams, e_min: float, e_max: float,
                 grid_step: float = 0.05, zeta_star: float = 0.5,
                 max_n: int = 2000, tail_tol: float = 1e-14,
                 refine_tol: float = 1e-10,
                 uncoupled_tol: float = 1e-10,
                 _allow_mirror: bool = True) -> SpectrumResult:
    """Grid scan + bisection of the reduced-equation G-function.

    Ladder points get exclusion zones and exceptional tests; at delta ~ 0 the
    mirrored sector is merged (the sectors decouple there).  A window where
    the reduction itself breaks down (q^2 <= 0) is reported as excluded.
    """
    try:
        bcf_reduce(p, 0.5 * (e_min + e_max))
    except ComplexSingularityError:
        rep = RootReport(np.array([]),
                         (ExcludedInterval(e_min, e_max, "complex_singularity"),))
        return SpectrumResult("bcf", np.array([]), (), rep, None,
                              {"complex_singularity": True})
    except DegenerateQError:
        rep = RootReport(np.array([]),
                         (ExcludedInterval(e_min, e_max, "degenerate_q"),))
        return SpectrumResult("bcf", np.array([]), (), rep, None,
                              {"degenerate_q": True})

    ladder = resonance_ladder(p, e_min, e_max)
    zones = tuple((e, RESONANCE_HALF_WIDTH * p.omega, "resonance")
                  for e, _s, _n in ladder)
    cfg = RootScanConfig(e_min, e_max, grid_step, refine_tol=refine_tol,
                         split_zones=zones)

    def f(energies):
        return g_function_bcf_batch(p, energies, zeta_star, max_n, tail_tol)

    rep = scan_and_refine(f, cfg)
    energies = list(rep.roots)
    labels = ["regular"] * len(energies)
    for e_r, side, n_res in ladder:
        s = exceptional_sample(p, e_r, side, n_res, zeta_star, max_n, tail_tol)
        if s.ok and abs(s.g_value) < EXCEPTIONAL_TOL:
            energies.append(e_r)
            labels.append(f"exceptional:{side}:{n_res}")

    if _allow_mirror and abs(p.delta) <= uncoupled_tol * p.omega:
        try:
            mirror = bcf_spectrum(p.mirrored(), e_min, e_max, grid_step,
                                  zeta_star, max_n, tail_tol, refine_tol,
                                  uncoupled_tol, _allow_mirror=False)
            for e_r, lab in zip(mirror.energies, mirror.labels):
                energies.append(float(e_r))
                labels.append("mirror:" + lab)
        except (ComplexSingularityError, DegenerateQError):
            pass

    order = np.argsort(energies) if energies else np.array([], dtype=int)
    keep_e, keep_l = [], []
    for i in order:
        if keep_e and abs(energies[i] - keep_e[-1]) <= max(refine_tol, 1e-9 * p.omega):
            continue
        keep_e.append(float(energies[i]))
        keep_l.append(labels[i])
    return SpectrumResult("bcf", np.array(keep_e), tuple(keep_l), rep, None,
                          {"ladder": ladder, "zeta_star": zeta_star})


@dataclass(frozen=True)
class JuddCandidate:
    energy: float
    resonant_index: int
    side: str
    compatible: bool
    tail_residual: float
    truncates: bool


#: three coefficients past the resonance must fall below this (relative)
TRUNCATION_TOL = 1e-10


def judd_candidates(p: ModelParams, e_min: float, e_max: float,
                    n_max: int = 20) -> list:
    """Resonance-ladder points with a numerical polynomial-truncation test.

    At each candidate the regular series is rolled through the resonance
    (compatibility within 1e-12 sets the free coefficient to zero); the tail
    residual is max|a_{n*+1..n*+3}| / max|a_0..n*|.  Best-effort label, not a
    proof.
    """
    out = []
    for e_r, side, n_res in resonance_ladder(p, e_min, e_max, n_cap=n_max):
        if n_res > n_max:
            continue
        b = bcf_reduce(p, e_r)
        rec = ode_to_recurrence(bcf_ode(b, 0.0 if side == "origin" else 1.0),
                                f"bcf@{side}")
        n_need = n_res + 4
        _v, _d, sol = series_eval(rec, 0.0 if side == "origin" else 1.0,
                                  max_n=max(n_need, 8), tail_tol=0.0)
        compatible = sol.resonant_compatible and not sol.resonant_incompatible
        tail = math.inf
        truncates = False
        if compatible and sol.n_used >= n_need:
            logs = sol.coeff_log[:sol.n_used + 1]
            mags = np.where(np.abs(sol.coeff_mantissa[:sol.n_used + 1]) > 0,
                            np.log(np.abs(sol.coeff_mantissa[:sol.n_used + 1])
                                   + 1e-300) + logs, -math.inf)
            head = np.max(mags[:n_res + 1])
            tail_log = np.max(mags[n_res + 1:n_res + 4])
            tail = math.exp(min(tail_log - head, 700.0)) \
                if tail_log > -math.inf else 0.0
            truncates = tail < TRUNCATION_TOL
        out.append(JuddCandidate(e_r, n_res, side, compatible, tail, truncates))
    return out


@dataclass(frozen=True)
class FullSeriesCoeffs:
    """Entire-series solution data of the full fourth-order equation."""

    case: str
    table: dict
    solution: SeriesSolution
    ode: PolyOde


def full_series(p: ModelParams, energy: float, case: str = "general",
                n_terms: int = 200) -> FullSeriesCoeffs:
    """Coefficients a_0..a_N of the fourth-order series (a_0 = 1, a_1..a_3 = 0).

    case 'two_photon' requires g = 0 (the odd-lag weights then vanish and the
    nine-term recurrence degenerates to the five-term one).
    """
    if p.lam == 0.0:
        raise LambdaZeroError("the full series divides by lambda^2")
    if case not in ("general", "two_photon"):
        raise ValueError("case must be 'general' or 'two_photon'")
    if case == "two_photon" and p.g != 0.0:
        raise GNotZeroError("two-photon case requires g = 0")
    table = operator_compose(p, energy)
    ode = PolyOde(tuple(poly(c) for c in compose_fourth_order(p, energy)), z0=0.0)
    rec = ode_to_recurrence(ode, f"full@{case}")
    seeds = np.zeros(4)
    seeds[0] = 1.0
    _v, _d, sol = series_eval(rec, 1.0, max_n=n_terms, tail_tol=0.0, seeds=seeds)
    return FullSeriesCoeffs(case, table.composed, sol, ode)
