"""Printed-vs-derived audit.

Every closed form the derivation chapters print (operator expansions,
coefficient tables, recurrences, normal-form coefficients) is transcribed
here verbatim, and only here, and compared against the mechanically derived
counterpart from the routes and :mod:`rabi_spectra.canonical`.  Nothing in
this module feeds the solvers, and ``import rabi_spectra`` does not load
it; mismatches are reported, never silently corrected.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import canonical as canon
from .canonical import asymmetric_second_order, compose_fourth_order, general_table
from .errors import NumericalError, ValidationError
from .fock import dimension, oracle_spectrum
from .params import ModelParams, in_units_of_omega, real, vanishes
from .polyops import _trimmed, padd, pmul, poly, polys_equal, ptrim, split_two_poles
from .series import PolyOde, ode_residual, ode_to_recurrence, series_sums_lanes
from .twopoint import ROUTES, bcf_truncated_parent, zeta_form

RTOL = 1e-12
#: largest ODE residual a row of :func:`residual_suite` passes with
RESIDUAL_THRESHOLD = 1e-10
#: the trial energy of a diagnose report, in units of omega
TRIAL_ENERGY = 0.2
#: the parameter sets :func:`residual_suite` draws, and the seed it draws from
RESIDUAL_DRAWS = 5
RESIDUAL_SEED = 7


# --------------------------------------------------------------------------
# helpers

def _in_float_range(audit):
    """``audit``, raising NumericalError where a printed form leaves the
    float range (a float power raises OverflowError there)."""
    @functools.wraps(audit)
    def checked(*args, **kwargs):
        try:
            return audit(*args, **kwargs)
        except OverflowError as exc:
            raise NumericalError(f"overflow in {audit.__name__}") from exc
    return checked


def _normalize(rows: list) -> list:
    """rows divided by the top coefficient of the first nonzero row."""
    for row in rows:
        row = _trimmed(row, 1e-300)
        if any(abs(v) > 0 for v in row):
            # a zero top (a row holding a nan keeps its trailing zeros)
            # divides as numpy does, to inf and nan
            top = row[-1] or np.float64(row[-1])
            return [[v / top for v in r] for r in rows]
    return rows


def _poly_str(c) -> str:
    c = _trimmed(c, 1e-300)
    if not any(abs(v) > 0 for v in c):
        return "0"
    parts = []
    for d, v in enumerate(c):
        if v == 0:
            continue
        parts.append(f"{v:+.12g}" + ("" if d == 0 else f"*n^{d}" if d > 1 else "*n"))
    return " ".join(parts)


def _item(key: str, derived, printed) -> dict:
    """One compared quantity: a float matches within RTOL of its scale, a
    polynomial coefficient by coefficient (:func:`polys_equal`)."""
    if np.ndim(derived) == 0:
        return {"lag": key,
                "match": abs(derived - printed) <= RTOL * max(1.0, abs(derived), abs(printed)),
                "derived": f"{derived:.12g}", "printed": f"{printed:.12g}"}
    d, pr = poly(derived).tolist(), poly(printed).tolist()
    return {"lag": key, "match": polys_equal(d, pr, RTOL),
            "derived": _poly_str(d), "printed": _poly_str(pr)}


def _entry(name: str, kind: str, triples, note: str = "",
           symbols: dict | None = None) -> dict:
    """The one audit row: an item per (key, derived, printed) triple, and a
    match where every item matches."""
    items = [_item(*t) for t in triples]
    return {"name": name, "kind": kind, "match": all(i["match"] for i in items),
            "items": items, "note": note,
            "symbols": {k: float(v) for k, v in (symbols or {}).items()}}


def compare_recurrences(name: str, derived, printed_rows: dict,
                        symbols: dict, note: str = "") -> dict:
    """Compare a derived RecurrenceSpec against transcribed printed weights.

    Both sides are normalized by their leading weight's top coefficient and
    compared lag by lag as polynomials in the index; a lag that is zero on
    both sides is left out.
    """
    derived_rows = derived.weights.tolist()
    printed = [[] for _ in derived_rows]
    for j, c in printed_rows.items():
        printed[j] = poly(c).tolist()
    width = max(map(len, derived_rows + printed))
    wdn, wpn = (_normalize([r + [0.0] * (width - len(r)) for r in rows])
                for rows in (derived_rows, printed))
    lags = range(derived.order, derived.order - len(wdn), -1)
    return _entry(name, "recurrence",
                  [(f"a[n{lag:+d}]" if lag else "a[n]", d, pr)
                   for lag, d, pr in zip(lags, wdn, wpn) if any(v != 0 for v in d + pr)],
                  note, symbols)


def _padded(c, n: int) -> np.ndarray:
    """The first n coefficients of c, zeros past its end."""
    c = poly(c)[:n]
    return np.concatenate([c, np.zeros(n - c.size)])


# --------------------------------------------------------------------------
# the symbols of the printed chain, read off the route equations in zeta

def che_symbols(zeta) -> dict:
    """alpha, beta, gamma, mu and nu of the confluent Heun equation in the
    coefficient form of :func:`twopoint.zeta_form` on the heun route:
    P1 = (-(beta + 1), beta + 1 + gamma - alpha, alpha) and P0 = (-mu, mu + nu)."""
    p0, p1 = _padded(zeta[0], 2).tolist(), _padded(zeta[1], 3).tolist()
    return {"alpha": p1[2], "beta": -p1[0] - 1.0, "gamma": p1[0] + p1[1] + p1[2],
            "mu": -p0[0], "nu": p0[0] + p0[1]}


def _bcf_combinations(al1, al2, be1, be2, ga1, ga2, ga3) -> dict:
    """The reduced equation's seven coefficients and the six recurrence
    combinations built from them: mu, nu, gamma_c (origin) and delta, eta,
    kappa (at one)."""
    return {"alpha1": al1, "alpha2": al2, "beta1": be1, "beta2": be2,
            "gamma1": ga1, "gamma2": ga2, "gamma3": ga3,
            "mu": be1 + be2 - al2, "nu": al2 - al1, "gamma_c": ga2 + ga3 - ga1,
            "delta": al1 + al2 + be1 + be2, "eta": 2 * al1 + al2,
            "kappa": ga1 + ga2 + ga3}


def bcf_symbols(zeta) -> dict:
    """The thirteen symbols of the reduced equation in the coefficient form
    of :func:`twopoint.zeta_form` on the bcf route: P1 = (beta2, -(beta1 +
    beta2 - alpha2), -(alpha2 - alpha1), -alpha1) and P0 = (gamma3,
    -(gamma2 + gamma3 - gamma1), -gamma1)."""
    p0, p1 = _padded(zeta[0], 3).tolist(), _padded(zeta[1], 4).tolist()
    al1 = -p1[3]
    return _bcf_combinations(al1, al1 - p1[2], -(p1[0] + p1[1] + p1[2] + p1[3]), p1[0],
                             -p0[2], -(p0[0] + p0[1] + p0[2]), p0[0])


def _che_partial_fractions(p: ModelParams, energy: float):
    """(q, table, (k_plus, k_minus)) of the printed confluent Heun chain:
    the partial fractions A1 + A2/(z - q) + A3/(z + q) of p1/p2 and B1 +
    B2/(z - q) + B3/(z + q) of p0/p2 of the exact lam = 0 parent, and the
    gauge roots of k^2 + 2 q A1 k + 4 q^2 B1."""
    p0, p1, p2 = asymmetric_second_order(p, energy)
    q = abs(p.g / p.omega)
    quot1, a2, a3 = split_two_poles(p1, p2, q)
    quot0, b2, b3 = split_two_poles(p0, p2, q)
    table = {"A1": float(quot1[0]), "A2": a2, "A3": a3,
             "B1": float(quot0[0]), "B2": b2, "B3": b3}
    al1, be1 = 2 * q * table["A1"], 4 * q * q * table["B1"]
    root = math.sqrt(al1 * al1 - 4 * be1)
    return q, table, ((-al1 + root) / 2, (-al1 - root) / 2)


def _two_photon_symbols(t: dict) -> dict:
    """The two-photon table's six symbols, read off the general table t of
    the model at g = 0."""
    return {"A1": t["B1"], "A2": t["B3"], "B1": t["C2"], "B2": t["C4"],
            "C1": t["D1"], "C2": t["D3"]}


# --------------------------------------------------------------------------
# printed recurrence transcriptions (verbatim forms, cross-multiplied)

def printed_che_origin(s: dict) -> dict:
    a, b, g, mu, nu = s["alpha"], s["beta"], s["gamma"], s["mu"], s["nu"]
    return {
        1: [b + 1.0, b + 2.0, 1.0],                 # (n+1)(n+beta+1)
        2: [-(b + g - a) + mu, 0.0, -1.0],          # -[n^2 + (b+g-a) - mu]
        3: [a - (mu + nu), -a],                     # -[a(n-1) + mu + nu]
    }


def printed_che_one(s: dict) -> dict:
    a, b, g, mu, nu = s["alpha"], s["beta"], s["gamma"], s["mu"], s["nu"]
    return {
        1: [g, g + 1.0, 1.0],                       # (n+1)(n+gamma)
        2: [nu, a + b + g, 1.0],                    # n(n+a+b+g) + nu
        3: [-a + mu + nu, a],                       # a(n-1) + mu + nu
    }


def printed_five_term(s: dict) -> dict:
    a1, a2, b1, b2, c1, c2 = (s["A1"], s["A2"], s["B1"], s["B2"],
                              s["C1"], s["C2"])
    return {
        0: [24.0, 50.0, 35.0, 10.0, 1.0],           # (n+4)(n+3)(n+2)(n+1)
        2: [2 * (a1 + b2), 3 * a1 + b2, a1],        # (n+2)[(n+1)A1 + B2]
        4: [c1, b1 - a2, a2],                       # n(n-1)A2 + nB1 + C1
        6: [c2],
        8: [1.0],
    }


def printed_nine_term(s: dict) -> dict:
    a1 = s["A1"]
    b1, b2, b3 = s["B1"], s["B2"], s["B3"]
    c1, c2, c3, c4 = s["C1"], s["C2"], s["C3"], s["C4"]
    d1, d2, d3, d4 = s["D1"], s["D2"], s["D3"], s["D4"]
    return {
        0: [24.0, 50.0, 35.0, 10.0, 1.0],
        1: [6 * a1, 11 * a1, 6 * a1, a1],           # (n+3)(n+2)(n+1)A1
        2: [2 * b1, 3 * b1, b1],                    # (n+2)(n+1)B1
        3: [c1, b2 + c1, b2],                       # (n+1)(nB2 + C1)
        4: [d1, c2 - b3, b3],                       # n(n-1)B3 + nC2 + D1
        5: [d2 - c3, c3],                           # (n-1)C3 + D2
        6: [d3 - 2 * c4, c4],                       # (n-2)C4 + D3
        7: [d4],
        8: [1.0],
    }


def printed_bcf_origin(s: dict) -> dict:
    al1, ga1 = s["alpha1"], s["gamma1"]
    be2, ga3 = s["beta2"], s["gamma3"]
    mu, nu, ga = s["mu"], s["nu"], s["gamma_c"]
    return {
        1: [be2, be2 + 1.0, 1.0],                   # (n+1)(n+beta2)
        2: [ga3, -(mu - 1.0), -1.0],                # -[n(n-1) + n mu - gamma3]
        3: [nu - ga, -nu],                          # -[(n-1) nu + gamma]
        4: [2 * al1 - ga1, -al1],                   # -[(n-2) alpha1 + gamma1]
    }


def printed_bcf_one(s: dict) -> dict:
    al2, ga1 = s["alpha2"], s["gamma1"]
    be1, ga2 = s["beta1"], s["gamma2"]
    de, eta, ka = s["delta"], s["eta"], s["kappa"]
    return {
        1: [-be1, 1.0 - be1, 1.0],                  # (n+1)(n-beta1)
        2: [-ga2, -(de + 1.0), 1.0],                # -[n delta + gamma2 - n(n-1)]
        3: [eta - ka, -eta],                        # -[(n-1) eta + kappa]
        4: [2 * al2 - ga1, -al2],                   # -[(n-2) alpha2 + gamma1]
    }


def printed_bch(s: dict) -> dict:
    a, b, g, d = s["alpha"], s["beta"], s["gamma"], s["delta"]
    return {
        1: [-g, 1.0 - g, 1.0],                      # (n+1)(n-gamma)
        2: [-b, -d],                                # -[delta n + beta]
        3: [1.0 + a, -1.0],                         # -[(n-1) - alpha]
    }


@_in_float_range
def audit_recurrences(p_asym: ModelParams, e_asym: float,
                      p_general: ModelParams, e_general: float) -> list:
    """Derived-vs-printed comparison for all transcribed recurrences."""
    out = []

    che = zeta_form(ROUTES["heun"], p_asym, e_asym)
    sym = che_symbols(che)
    rec0 = ode_to_recurrence(PolyOde(che, z0=0.0))
    rec1 = ode_to_recurrence(PolyOde(che, z0=1.0))
    out.append(compare_recurrences(
        "che-series-origin", rec0, printed_che_origin(sym), sym,
        note="printed a_n weight reads n^2+(beta+gamma-alpha)-mu; the "
             "derivation gives n(n+beta+gamma-alpha)-mu"))
    out.append(compare_recurrences(
        "che-series-one", rec1, printed_che_one(sym), sym))

    p_tp = dataclasses.replace(p_general, g=0.0)
    sym5 = _two_photon_symbols(general_table(p_tp, e_general))
    ode_tp = PolyOde(tuple(compose_fourth_order(p_tp, e_general)), z0=0.0)
    out.append(compare_recurrences(
        "five-term-series", ode_to_recurrence(ode_tp),
        printed_five_term(sym5), sym5,
        note="printed places (n+2)B2 with a_{n+2} instead of (n-2)B2 with "
             "a_{n-2}; the composed table has B2 = 0, so the instantiated "
             "forms coincide"))

    tbl = general_table(p_general, e_general)
    ode_g = PolyOde(tuple(compose_fourth_order(p_general, e_general)), z0=0.0)
    out.append(compare_recurrences(
        "nine-term-series", ode_to_recurrence(ode_g),
        printed_nine_term(tbl), tbl,
        note="the printed display repeats the subscript n+2 where the "
             "nine-term pattern requires n+1; transcribed as n+1"))

    b = zeta_form(ROUTES["bcf"], p_general, e_general)
    symb = bcf_symbols(b)
    out.append(compare_recurrences(
        "bcf-series-origin", ode_to_recurrence(PolyOde(b, z0=0.0)),
        printed_bcf_origin(symb), symb,
        note="printed leading factor (n+beta2) and +n(n-1) disagree with the "
             "direct expansion, which gives (n-beta2) and -n(n-1); the "
             "printed form also fails the stated confluent-Heun reduction"))
    out.append(compare_recurrences(
        "bcf-series-one", ode_to_recurrence(PolyOde(b, z0=1.0)),
        printed_bcf_one(symb), symb,
        note="printed back weight carries alpha2 where the derivation gives "
             "alpha1"))

    bch = _bch_series()
    out.append({**bch, "symbols": dict(bch["symbols"]),
                "items": [dict(i) for i in bch["items"]]})
    return out


@functools.lru_cache(maxsize=1)
def _bch_series() -> dict:
    """The bch-series entry.  Its symbols are fixed, so it is compared once
    per process, and each report gets its own copy."""
    symc = {"alpha": 0.7, "beta": 0.3, "gamma": 0.45, "delta": 0.2}
    rec_bch = ode_to_recurrence(canon.bch_first_normal_ode(**symc))
    return compare_recurrences("bch-series", rec_bch, printed_bch(symc), symc)


# --------------------------------------------------------------------------
# operator / coefficient-table audits

def printed_fourth_order(p: ModelParams, energy: float) -> list:
    """The fourth-order equation as printed: the polynomials multiplying
    phi^(k), k = 0..4."""
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    phi2 = poly([g * g + lam * (2 * om + ep + E), lam * g, lam * lam - om * om])
    phi1 = poly([om * g + g * (ep + E),
                 -om * om + om * (ep + E) + g * g,
                 om * g + lam * g,
                 om * lam])
    s = poly([ep, g, lam])  # epsilon + g z + lam z^2
    phi0 = padd(
        padd(poly([2 * lam * lam]), pmul(poly([g, -om]), poly([g, 2 * lam]))),
        padd(pmul(s, s), poly([-E * E + de * de])))
    return [ptrim(phi0), ptrim(phi1), ptrim(phi2), poly([2 * lam * g]), poly([lam * lam])]


def printed_general_table(p: ModelParams, energy: float) -> dict:
    """The general-case coefficient list as literally printed.

    Note it is not even self-consistent with the printed fourth-order
    equation: the constant term there carries +delta^2, the list -delta^2.
    """
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    return {
        "A1": 2 * g / lam,
        "B1": g * g / lam ** 2 + (2 * om + ep + E) / lam,
        "B2": g / lam,
        "B3": 1.0 - om ** 2 / lam ** 2,
        "C1": g * (om + ep + E) / lam ** 2,
        "C2": (-om ** 2 + om * (ep + E) + g * g) / lam ** 2,
        "C3": om * g / lam ** 2 + g / lam,
        "C4": om / lam,
        "D1": 2.0 + (g * g + ep ** 2 - E ** 2 - de ** 2) / lam ** 2,
        "D2": g * (2 * ep - om) / lam ** 2 + 2 * g / lam,
        "D3": g * g / lam ** 2 + 2 * (ep - om) / lam,
        "D4": 2 * g / lam,
    }


@_in_float_range
def audit_fourth_order_operator(p: ModelParams, energy: float) -> dict:
    comp = compose_fourth_order(p, energy)
    prin = printed_fourth_order(p, energy)
    return _entry("fourth-order-operator", "operator",
                  [(f"phi^({k})", comp[k], prin[k]) for k in range(5)],
                  "the printed expansion drops lam*c2 from the phi'' "
                  "coefficient and 2 lam c2' + c1bar c2 from the phi' "
                  "coefficient")


@_in_float_range
def audit_general_table(p: ModelParams, energy: float) -> dict:
    composed = general_table(p, energy)
    printed = printed_general_table(p, energy)
    pairs = [(k, composed[k], printed[k]) for k in printed]
    note = "D1: printed has -delta^2, composition gives +delta^2"
    return _entry("general-coefficient-table", "table", pairs, note)


@_in_float_range
def audit_two_photon_table(p: ModelParams, energy: float) -> dict:
    om, de, ep, lam = p.omega, p.delta, p.epsilon, p.lam
    E = energy
    printed = {
        "A1": (2 * om + ep + E) / lam,
        "A2": 1.0 - om ** 2 / lam ** 2,
        "B1": (om * (ep + E) - om ** 2) / lam ** 2,
        "B2": om / lam,
        "C1": (ep ** 2 - E ** 2 - de ** 2) / lam ** 2 + 2.0,
        "C2": 2 * (ep - om) / lam ** 2,
    }
    derived = _two_photon_symbols(general_table(dataclasses.replace(p, g=0.0), energy))
    pairs = [(k, derived[k], printed[k]) for k in printed]
    return _entry(
        "two-photon-coefficient-table", "table", pairs,
        note="C1: printed -delta^2 vs derived +delta^2 (sign discrepancy); "
             "C2: printed /lam^2 is dimensionally off by one power of lam")


@_in_float_range
def audit_asymmetric_tables(p: ModelParams, energy: float) -> dict:
    _q, table, (k_plus, k_minus) = _che_partial_fractions(p, energy)
    om, de, ep, g = p.omega, p.delta, p.epsilon, p.g
    E = energy
    q = g / om
    printed_a = {"A1": -q, "A2": -q * q - (ep + E) / om, "A3": 1.0,
                 "B1": -q * q,
                 "B2": -q ** 3 / 2 - ep * q / om
                       - (ep ** 2 - E ** 2 + de ** 2) / (2 * om * g),
                 "B3": q + q ** 3 / 2 - ep * q / om
                       + (ep ** 2 - E ** 2 + de ** 2) / (2 * om * g)}
    pairs = [(k, table[k], printed_a[k]) for k in printed_a]
    pairs.append(("k_plus", k_plus, (1 + math.sqrt(5.0)) * q * q))
    pairs.append(("k_minus", k_minus, (1 - math.sqrt(5.0)) * q * q))
    return _entry(
        "asymmetric-reduction-table", "table", pairs,
        note="A1 and A3 inherit the operator-expansion omission; printed "
             "k_pm = (1 pm sqrt 5) g^2/omega^2 follows from the misprinted "
             "alpha1 = -2q^2 (derived alpha1 = 0, k_pm = pm 2 g^2/omega^2)")


@_in_float_range
def audit_bcf_tables(p: ModelParams, energy: float) -> dict:
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    sym = bcf_symbols(zeta_form(ROUTES["bcf"], p, energy))
    p0, p1, p2 = bcf_truncated_parent(p, energy)
    om2 = -p2[-1]
    q = math.sqrt(p2[0] / om2)
    a_table = dict(zip(("A1", "A2", "A3", "A4"), _padded(poly(p1) / om2, 4).tolist()))
    b_table = dict(zip(("B1", "B2", "B3"), _padded(poly(p0) / om2, 3).tolist()))
    printed_q2 = (g * g + lam * (ep + E)) / om ** 2 + 2 * lam / om
    printed_a = {"A1": g * (ep + E) / om ** 2 + g / om,
                 "A2": g * g / om ** 2 + (ep + E) / om - 1.0,
                 "A3": g / om, "A4": lam / om}
    printed_b = {"B1": (g * g + ep ** 2 - E ** 2 - de ** 2) / om ** 2,
                 "B2": 2 * ep * g / om ** 2 - g / om,
                 "B3": (g * g + 2 * ep * lam) / om ** 2 - 2 * lam / om}
    pairs = [("q^2", q ** 2, printed_q2)]
    for k in printed_a:
        pairs.append((k, a_table[k], printed_a[k]))
    for k in printed_b:
        pairs.append((k, b_table[k], printed_b[k]))
    # beta_pm: printed formula vs residue values, using the derived A-table
    a1, a2, a3, a4 = (a_table[k] for k in ("A1", "A2", "A3", "A4"))
    printed_beta_p = 0.5 * ((a4 + a3) * q * q + a2 + a1)
    printed_beta_m = 0.5 * ((a4 - a3) * q * q + a2 - a1)
    pairs.append(("beta1(beta+)", sym["beta1"], printed_beta_p))
    pairs.append(("beta2(beta-)", sym["beta2"], printed_beta_m))
    pairs.append(("alpha1", sym["alpha1"], 2 * q * a4))
    return _entry(
        "small-coupling-reduction-table", "table", pairs,
        note="q^2, A and B1 inherit the operator omission (B1 also the "
             "delta^2 sign); printed beta_pm lack the /q on the odd part; "
             "printed alpha1 = 2 q A4 misses a 2q factor (map gives 4q^2 A4)")


@_in_float_range
def audit_reduction_chain(p_asym: ModelParams, p_general: ModelParams,
                          energy: float) -> dict:
    """The partial-fraction chain the paper prints against the one equation
    builder of the routes: the confluent Heun symbols from the table and
    the gauge root k_minus, and the reduced equation's symbols from the
    partial fractions of the truncated parent, each against the route's
    equation in zeta; and the truncated parent at lam = 0 against the exact
    one."""
    q, a, (_k_plus, k) = _che_partial_fractions(p_asym, energy)
    printed = {"alpha": 2 * q * a["A1"] + 2 * k, "beta": a["A3"] - 1.0,
               "gamma": a["A2"], "mu": k * a["A3"] + 2 * q * a["B3"],
               "nu": k * a["A2"] + 2 * q * a["B2"]}
    derived = che_symbols(zeta_form(ROUTES["heun"], p_asym, energy))
    pairs = [(f"che:{n}", derived[n], printed[n]) for n in printed]

    derived = bcf_symbols(zeta_form(ROUTES["bcf"], p_general, energy))
    p0, p1, p2 = bcf_truncated_parent(p_general, energy)
    q2 = float(p2[0] / -p2[-1])
    q = math.sqrt(q2)
    (quot1, bp, bm), (quot0, gp, gm) = (split_two_poles(c, p2, q) for c in (p1, p0))
    c0, c1 = _padded(quot1, 2).tolist()
    printed = _bcf_combinations(-4 * q2 * c1, -(2 * q * c0 - 2 * q2 * c1), -bp, -bm,
                                -4 * q2 * float(quot0[0]), -2 * q * gp, -2 * q * gm)
    pairs += [(f"bcf:{n}", derived[n], printed[n]) for n in printed]

    exact = asymmetric_second_order(p_asym, energy)
    truncated = bcf_truncated_parent(p_asym, energy)
    for k, (t, e) in enumerate(zip(truncated, exact)):
        n = max(poly(t).size, poly(e).size)
        pairs += [(f"phi^({k})[z^{i}]", d, pr) for i, (d, pr) in
                  enumerate(zip(_padded(t, n).tolist(), _padded(e, n).tolist()))]
    return _entry(
        "reduction-chain", "table", pairs,
        note="derived: the route equations in zeta and the truncated parent "
             "at lam = 0; printed: the partial-fraction formulas and the "
             "exact lam = 0 parent")


# --------------------------------------------------------------------------
# appendix tables

def _printed_exact_c(nb: canon.NormalizedParams):
    om, de, ep, g, e = (nb.omega_bar, nb.delta_bar, nb.epsilon_bar,
                        nb.g_bar, nb.e_bar)
    s = ep - om / 2 - g * g / 4
    c2 = poly([2 * ep - om - g * g / 2, 2 * g, 0.5 * (om * om + 4)])
    c3 = poly([-g * (om - 2),
               -(om * om - 4) - 2 * om * ep + om * om + om * g * g / 2 + 2 * om * e,
               g * om * (om - 2), 0.5 * om * (om * om - 4)])
    c4 = poly([-0.5 * (om * om - 4) + s * s - e * e - de * de,
               g * (om * om - (3 + e) * om + 2 * ep - g * g / 2),
               (om - g * g / 4) * (om * om - 4) + 0.5 * s * (om * om / 4 + 1)
               - e * om * om,
               -0.5 * g * (om - 2) * (om * om + om + 2),
               -(1.0 / 16.0) * (3 * om * om + 4) * (om * om - 4)])
    return c2, c3, c4


def _printed_approx_c(nb: canon.NormalizedParams):
    om, ep, g, e = nb.omega_bar, nb.epsilon_bar, nb.g_bar, nb.e_bar
    de = nb.delta_bar
    s = ep - om / 2 - g * g / 4
    c2 = poly([-g * g / 2, 0.0, om * om / 2])
    c3 = poly([-om * g, om * (2 * e - 2 * ep + g * g / 2),
               g * om * (om - 2), 0.5 * om ** 3])
    c4 = poly([-0.5 * om * om + s * s - e * e - de * de,
               g * (om * om - (3 + e) * om + 2 * ep - g * g / 2),
               om ** 3 + (s / 8.0 - (g * g / 4 + e)) * om * om + 7 * g * g / 8,
               -0.5 * g * om * om * (om - 1), -(om * om / 16) * (3 * om * om - 8)])
    return c2, c3, c4


def printed_normal_form(cc: canon.CanonicalCoeffs) -> dict:
    """The in-text normal-form coefficients lambda1, mu1 and mu2; lambda1
    and the mu cross terms differ from :func:`canonical.normal_form_coeffs`."""
    a1, a2, b1, b2, q = cc.alpha1, cc.alpha2, cc.beta1, cc.beta2, cc.q
    return {
        "lambda1": cc.gamma1 - a1 / 4.0,
        "mu1": cc.delta1 - 0.5 * (q * a1 + a2 + b2 / (4 * q)) * b1,
        "mu2": cc.delta2 + 0.5 * (q * a1 - a2 + b1 / (4 * q)) * b2,
    }


def printed_bch_g0(nb: canon.NormalizedParams) -> dict:
    """The in-text biconfluent-Heun parameters alpha, gamma, lambda1,
    lambda3 and nu of the g = 0 normal form; ValidationError unless g_bar
    is 0 and omega_bar is not."""
    if nb.g_bar != 0.0:
        raise ValidationError(f"g = 0 route called with g_bar = {nb.g_bar}")
    om, ep, e = nb.omega_bar, nb.epsilon_bar, nb.e_bar
    if om == 0.0:
        raise ValidationError("omega_bar must be nonzero")
    t = (2.0 / om) * (e - ep)
    l1 = (1.0 + om / 2.0) * (1.0 - 3.0 * om / 4.0)
    l3 = 11.0 * om / 8.0 - 4.0 * e + 9.0 * ep / 4.0
    nu = t * (1.0 - t)
    alpha = -2.0 * (1.0 / om + 2.0) * e + (9.0 / 4.0 + 2.0 / om) * ep \
        + 11.0 * om / 8.0 - 0.5
    gamma = -(4.0 / om) * (e - ep)
    return {"alpha": alpha, "gamma": gamma, "lambda1": l1, "lambda3": l3, "nu": nu}


@_in_float_range
def audit_appendix(nb: canon.NormalizedParams) -> list:
    out = []
    keys = ("c2", "c3", "c4")
    out.append(_entry(
        "appendix-exact-c", "table",
        zip(keys, canon.exact_c_polys(nb), _printed_exact_c(nb)),
        "printed exact c4 z^2 term carries (om^2/4+1) where the product "
        "gives (om^2+4)"))
    out.append(_entry(
        "appendix-approx-c", "table",
        zip(keys, canon.approx_c_polys(nb), _printed_approx_c(nb)),
        "z^2 coefficient of c4 inherits the exact-c4 misprint"))

    om, de, ep, g, e = (nb.omega_bar, nb.delta_bar, nb.epsilon_bar,
                        nb.g_bar, nb.e_bar)
    if g != 0.0:
        cc = canon.canonical_coeffs(nb)
        s = ep - om / 2 - g * g / 4
        printed = {
            "alpha1": om,
            "alpha2": 2 * g * (1 - 2 / om),
            "gamma1": 1 - 3 * om * om / 8,
            "gamma2": -g * (om - 1),
            "beta1": (2 / om) * (e - ep + g * g * (1 - 1 / om)) - 1,
            "beta2": (2 / om) * (e - ep + g * g / om) + 1,
            "gamma3": (11.0 / 4) * g * g / om ** 2 + (15.0 / 8) * om - 2 * e
                      + ep / 4 - (15.0 / 16) * g * g,
            "delta1": (g / om) * (31 * om / 16 + ep / 8 - 3 - 2 * e + 2 * ep / om)
                      + (g ** 3 / om ** 3) * (13 * om * om / 32 + 11.0 / 8)
                      - om * om / 2 + s * s - e * e - de * de,
            "delta2": (g / om) * (om / 16 - ep / 8 + 3 + 2 * e - 2 * ep / om)
                      - (g ** 3 / om ** 3) * (om * om / 32 + 11.0 / 8)
                      + om * om / 2 - s * s + e * e + de * de,
        }
        pairs = [(k, getattr(cc, k), printed[k]) for k in printed]
        out.append(_entry(
            "appendix-partial-fractions", "table", pairs,
            note="gamma3/delta1/delta2 inherit the c4 z^2 misprint"))

        nf = canon.normal_form_coeffs(cc)
        printed = printed_normal_form(cc)
        pairs = [(k, getattr(nf, k), printed[k]) for k in printed]
        out.append(_entry(
            "appendix-normal-form", "table", pairs,
            note="printed lambda1 = gamma1 - alpha1/4 (Liouville gives "
                 "alpha1^2/4); printed mu cross terms are half the derived "
                 "beta1 beta2/(4q)"))
    else:
        bp = printed_bch_g0(nb)
        t = (2.0 / om) * (e - ep)
        c_const = 2 * (-0.5 * om * om + (ep - om / 2) ** 2 - e * e
                       - de * de) / om ** 2
        derived_l1 = (1 - 3 * om * om / 8) - om * om / 4
        derived_l3 = om + 3 * ep - 4 * e
        derived_nu = c_const + t - t * t
        pairs = [("lambda1", derived_l1, bp["lambda1"]),
                 ("lambda3", derived_l3, bp["lambda3"]),
                 ("nu", derived_nu, bp["nu"])]
        out.append(_entry(
            "appendix-bch-g0", "table", pairs,
            note="derived: lambda1, lambda3 and nu of the g=0 normal form "
                 "with all of c4; printed: the in-text g=0 list, which drops "
                 "the constant part of c4 (with its delta-bar dependence) "
                 "and uses the lambda1 misprint"))
    return out


# --------------------------------------------------------------------------
# residual battery

def residual_suite(*, corrupt: bool = False) -> list:
    """ODE residuals of every local series at points well inside their disks.

    With corrupt=True a coefficient of each derived recurrence is perturbed
    first; residuals must then blow past RESIDUAL_THRESHOLD (negative control).
    The suite draws RESIDUAL_DRAWS parameter sets of its own from
    RESIDUAL_SEED, so its rows do not depend on the model a report audits:
    they are computed once per value of ``corrupt``, and each call gets its
    own copies.
    """
    return [dict(r) for r in _residual_rows(corrupt)]


@functools.lru_cache(maxsize=2)
def _residual_rows(corrupt: bool) -> tuple:
    rng = np.random.RandomState(RESIDUAL_SEED)
    rows = []
    for _ in range(RESIDUAL_DRAWS):
        om = 1.0
        de = rng.uniform(0.1, 0.8)
        ep = rng.uniform(-0.3, 0.3)
        g = rng.uniform(0.1, 0.8)
        lam = rng.uniform(0.02, 0.3)
        energy = rng.uniform(-1.0, 2.5)

        che = zeta_form(ROUTES["heun"], ModelParams(om, de, ep, g, 0.0), energy)
        b = zeta_form(ROUTES["bcf"], ModelParams(om, de, ep, 0.3 * g, 0.3 * lam), energy)
        for name, zeta in (("che", che), ("bcf", b)):
            for z0, x in ((0.0, 0.15), (1.0, 0.85)):
                rows.append(_residual_row(f"{name}@{z0:g}", PolyOde(zeta, z0=z0), x, corrupt))

        ode9 = PolyOde(tuple(compose_fourth_order(
            ModelParams(om, de, ep, g, lam), energy)), z0=0.0)
        rows.append(_residual_row("nine-term", ode9, 0.1, corrupt))
        ode5 = PolyOde(tuple(compose_fourth_order(
            ModelParams(om, de, ep, 0.0, lam), energy)), z0=0.0)
        rows.append(_residual_row("five-term", ode5, 0.1, corrupt))

        nb = canon.normalize_params(ModelParams(om, de, ep, 0.0, lam), energy)
        bp = printed_bch_g0(nb)
        if abs(bp["gamma"] - round(bp["gamma"])) > 1e-6:
            ode_b = canon.bch_first_normal_ode(bp["alpha"], 0.0, bp["gamma"], 0.0)
            rows.append(_residual_row("bch-first-normal", ode_b, 0.2, corrupt))

        p_unc = ModelParams(om, 0.0, ep, g, lam if abs(2 * lam) < om else 0.2)
        a1 = canon.weber_params(p_unc, energy)
        rows.append(_residual("weber-kummer", max(
            canon.weber_residual_exact(a1, rng.uniform(0.2, 1.5)))))
    return tuple(rows)


def _residual(context: str, residual: float) -> dict:
    """One row of the residual suite: it passes below RESIDUAL_THRESHOLD."""
    return {"context": context, "residual": float(residual),
            "threshold": RESIDUAL_THRESHOLD, "ok": bool(residual < RESIDUAL_THRESHOLD)}


def _residual_row(tag: str, ode: PolyOde, x: float, corrupt: bool) -> dict:
    rec = ode_to_recurrence(ode)
    w = rec.weights
    if corrupt:
        w = w.copy()
        w[rec.j_lead + 1, 0] += 1e-3 * max(1.0, np.max(np.abs(w)))
    sums, scale_log, _flags = series_sums_lanes(w[None], [x - ode.z0], [0])
    return _residual(tag, ode_residual(ode, x, sums[0], scale_log[0]))


# --------------------------------------------------------------------------
# top-level report

def diagnose_report(p: ModelParams, *, corrupt: bool = False,
                    fock_cutoff: int = 120) -> dict:
    """Full machine-readable audit: recurrences, tables, residuals, oracle.

    The audit works in units of omega: p is divided by p.omega once, the
    tables are audited at the trial energy TRIAL_ENERGY omega, and the
    oracle's convergence deltas are multiplied back.  Where g vanishes next
    to omega (:func:`vanishes`), the asymmetric tables audit g = 0.6, since
    the heun reduction divides by g / omega.  Where lambda is exactly 0, the
    general tables audit lambda = 0.1, and g = 0.2 if g is 0 too.  A printed
    form that leaves the float range raises NumericalError.
    """
    (q,) = in_units_of_omega(p)
    energy = TRIAL_ENERGY
    p_asym = ModelParams(1.0, q.delta, q.epsilon, 0.6 if vanishes(q, q.g) else q.g, 0.0)
    p_gen = q if q.lam != 0.0 else ModelParams(1.0, q.delta, q.epsilon,
                                               q.g if q.g else 0.2, 0.1)
    p_tp = dataclasses.replace(p_gen, g=0.0)
    # the cutoff is refused before any table; k is at most the Fock dimension
    oracle = oracle_spectrum(q, cutoff=fock_cutoff,
                             k=min(10, dimension(real("fock_cutoff", fock_cutoff))))
    residuals = residual_suite(corrupt=corrupt)
    entries = [*audit_recurrences(p_asym, energy, p_gen, energy),
               audit_fourth_order_operator(p_gen, energy),
               audit_general_table(p_gen, energy),
               audit_two_photon_table(p_gen, energy),
               audit_asymmetric_tables(p_asym, energy),
               audit_bcf_tables(p_gen, energy),
               audit_reduction_chain(p_asym, p_gen, energy),
               *audit_appendix(canon.normalize_params(p_gen, energy)),
               *audit_appendix(canon.normalize_params(p_tp, energy))]
    return {
        "audit": entries,
        "residuals": residuals,
        "residuals_ok": all(r["ok"] for r in residuals),
        "oracle_convergence": {
            "cutoff": oracle.cutoff,
            "reference_cutoff": oracle.reference_cutoff,
            "deltas": [float(d) * p.omega for d in oracle.convergence_deltas],
        },
        "mismatched_entries": [e["name"] for e in entries if not e["match"]],
    }
