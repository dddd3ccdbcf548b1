"""Printed-vs-derived audit.

Every closed form the derivation chapters print (operator expansions,
coefficient tables, recurrences, normal-form coefficients) is transcribed
here verbatim and compared against the mechanically derived counterpart.
Nothing in this module feeds the solvers; mismatches are reported, never
silently corrected.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bcf as bcf_mod
from . import canonical as canon
from . import heun as heun_mod
from .fock import oracle_spectrum
from .operators import (
    GENERAL_TABLE_KEYS,
    compose_fourth_order,
    operator_compose,
    printed_fourth_order,
)
from .params import ModelParams, NormalizedParams, normalize_params
from .polyops import poly, polys_equal, ptrim
from .series import PolyOde, ode_residual, ode_to_recurrence, series_sums_lanes
from .closed_form import weber_params, weber_residual_exact

RTOL = 1e-12


# --------------------------------------------------------------------------
# helpers

def _wmat(rows: dict, n_lags: int, deg: int) -> np.ndarray:
    w = np.zeros((n_lags + 1, deg + 1))
    for j, coeffs in rows.items():
        c = poly(coeffs)
        w[j, :c.size] = c
    return w


def _normalize(w: np.ndarray) -> np.ndarray:
    for j in range(w.shape[0]):
        row = ptrim(w[j], 1e-300)
        if np.any(np.abs(row) > 0):
            top = row[-1]
            return w / top
    return w


def _poly_str(c) -> str:
    c = ptrim(c, 1e-300)
    if not np.any(np.abs(c) > 0):
        return "0"
    parts = []
    for d, v in enumerate(c):
        if v == 0:
            continue
        parts.append(f"{v:+.12g}" + ("" if d == 0 else f"*n^{d}" if d > 1 else "*n"))
    return " ".join(parts)


def compare_recurrences(name: str, derived, printed_rows: dict,
                        symbols: dict, note: str = "") -> dict:
    """Compare a derived RecurrenceSpec against transcribed printed weights.

    Both sides are normalized by their leading weight's top coefficient and
    compared lag by lag as polynomials in the index.
    """
    n_lags = derived.weights.shape[0] - 1
    deg = derived.weights.shape[1] - 1
    wp = _wmat(printed_rows, n_lags, max(deg, max(
        (len(poly(c)) - 1 for c in printed_rows.values()), default=0)))
    wd = np.zeros_like(wp)
    wd[:, :derived.weights.shape[1]] = derived.weights
    wdn = _normalize(wd.copy())
    wpn = _normalize(wp.copy())
    items = []
    ok = True
    for j in range(n_lags + 1):
        lag = derived.order - j
        m = polys_equal(wdn[j], wpn[j], RTOL)
        if not m:
            ok = False
        if np.any(np.abs(wdn[j]) > 0) or np.any(np.abs(wpn[j]) > 0) or not m:
            items.append({
                "lag": f"a[n{lag:+d}]" if lag else "a[n]",
                "match": m,
                "derived": _poly_str(wdn[j]),
                "printed": _poly_str(wpn[j]),
            })
    return {"name": name, "kind": "recurrence", "match": ok,
            "symbols": {k: float(v) for k, v in symbols.items()},
            "items": items, "note": note}


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


def audit_recurrences(p_asym: ModelParams | None = None,
                      e_asym: float = -0.1,
                      p_general: ModelParams | None = None,
                      e_general: float = 0.2) -> list:
    """Derived-vs-printed comparison for all transcribed recurrences."""
    if p_asym is None:
        p_asym = ModelParams(1.0, 0.4, 0.15, 0.6, 0.0)
    if p_general is None:
        p_general = ModelParams(1.0, 0.3, 0.1, 0.2, 0.1)
    out = []

    che = heun_mod.che_params(p_asym, e_asym)
    sym = {"alpha": che.alpha, "beta": che.beta, "gamma": che.gamma,
           "mu": che.mu, "nu": che.nu}
    rec0 = ode_to_recurrence(heun_mod.che_ode(che, 0.0))
    rec1 = ode_to_recurrence(heun_mod.che_ode(che, 1.0))
    out.append(compare_recurrences(
        "che-series-origin", rec0, printed_che_origin(sym), sym,
        note="printed a_n weight reads n^2+(beta+gamma-alpha)-mu; the "
             "derivation gives n(n+beta+gamma-alpha)-mu"))
    out.append(compare_recurrences(
        "che-series-one", rec1, printed_che_one(sym), sym))

    p_tp = ModelParams(p_general.omega, p_general.delta, p_general.epsilon,
                       0.0, p_general.lam)
    tbl_tp = operator_compose(p_tp, e_general).composed
    sym5 = {"A1": tbl_tp["B1"], "A2": tbl_tp["B3"], "B1": tbl_tp["C2"],
            "B2": tbl_tp["C4"], "C1": tbl_tp["D1"], "C2": tbl_tp["D3"]}
    ode_tp = PolyOde(tuple(compose_fourth_order(p_tp, e_general)), z0=0.0)
    out.append(compare_recurrences(
        "five-term-series", ode_to_recurrence(ode_tp),
        printed_five_term(sym5), sym5,
        note="printed places (n+2)B2 with a_{n+2} instead of (n-2)B2 with "
             "a_{n-2}; the composed table has B2 = 0, so the instantiated "
             "forms coincide"))

    tbl = operator_compose(p_general, e_general).composed
    ode_g = PolyOde(tuple(compose_fourth_order(p_general, e_general)), z0=0.0)
    out.append(compare_recurrences(
        "nine-term-series", ode_to_recurrence(ode_g),
        printed_nine_term(tbl), tbl,
        note="the printed display repeats the subscript n+2 where the "
             "nine-term pattern requires n+1; transcribed as n+1"))

    b = bcf_mod.bcf_reduce(p_general, e_general)
    symb = {"alpha1": b.alpha1, "alpha2": b.alpha2, "beta1": b.beta1,
            "beta2": b.beta2, "gamma1": b.gamma1, "gamma2": b.gamma2,
            "gamma3": b.gamma3, "mu": b.mu, "nu": b.nu, "gamma_c": b.gamma_c,
            "delta": b.delta, "eta": b.eta, "kappa": b.kappa}
    out.append(compare_recurrences(
        "bcf-series-origin", ode_to_recurrence(bcf_mod.bcf_ode(b, 0.0)),
        printed_bcf_origin(symb), symb,
        note="printed leading factor (n+beta2) and +n(n-1) disagree with the "
             "direct expansion, which gives (n-beta2) and -n(n-1); the "
             "printed form also fails the stated confluent-Heun reduction"))
    out.append(compare_recurrences(
        "bcf-series-one", ode_to_recurrence(bcf_mod.bcf_ode(b, 1.0)),
        printed_bcf_one(symb), symb,
        note="printed back weight carries alpha2 where the derivation gives "
             "alpha1"))

    symc = {"alpha": 0.7, "beta": 0.3, "gamma": 0.45, "delta": 0.2}
    rec_bch = ode_to_recurrence(canon.bch_first_normal_ode(**symc))
    out.append(compare_recurrences(
        "bch-series", rec_bch, printed_bch(symc), symc))
    return out


# --------------------------------------------------------------------------
# operator / coefficient-table audits

def _table_entry(name, pairs, note=""):
    items = []
    ok = True
    for key, derived, printed in pairs:
        m = abs(derived - printed) <= RTOL * max(1.0, abs(derived), abs(printed))
        if not m:
            ok = False
        items.append({"lag": key, "match": m,
                      "derived": f"{derived:.12g}", "printed": f"{printed:.12g}"})
    return {"name": name, "kind": "table", "match": ok, "items": items,
            "note": note, "symbols": {}}


def _poly_entry(name, kind, triples, note):
    """An entry comparing (key, derived, printed) polynomials, key by key."""
    items = [{"lag": key, "match": polys_equal(d, pr, RTOL),
              "derived": _poly_str(d), "printed": _poly_str(pr)}
             for key, d, pr in triples]
    return {"name": name, "kind": kind, "match": all(i["match"] for i in items),
            "items": items, "symbols": {}, "note": note}


def audit_fourth_order_operator(p: ModelParams, energy: float) -> dict:
    comp = compose_fourth_order(p, energy)
    prin = printed_fourth_order(p, energy)
    return _poly_entry("fourth-order-operator", "operator",
                       [(f"phi^({k})", comp[k], prin[k]) for k in range(5)],
                       "the printed expansion drops lam*c2 from the phi'' "
                       "coefficient and 2 lam c2' + c1bar c2 from the phi' "
                       "coefficient")


def audit_general_table(p: ModelParams, energy: float) -> dict:
    t = operator_compose(p, energy)
    pairs = [(k, t.composed[k], t.printed[k]) for k in GENERAL_TABLE_KEYS]
    note = "D1: printed has -delta^2, composition gives +delta^2"
    return _table_entry("general-coefficient-table", pairs, note)


def audit_two_photon_table(p: ModelParams, energy: float) -> dict:
    p0 = ModelParams(p.omega, p.delta, p.epsilon, 0.0, p.lam)
    t = operator_compose(p0, energy).composed
    om, de, ep, lam = p0.omega, p0.delta, p0.epsilon, p0.lam
    E = energy
    printed = {
        "A1": (2 * om + ep + E) / lam,
        "A2": 1.0 - om ** 2 / lam ** 2,
        "B1": (om * (ep + E) - om ** 2) / lam ** 2,
        "B2": om / lam,
        "C1": (ep ** 2 - E ** 2 - de ** 2) / lam ** 2 + 2.0,
        "C2": 2 * (ep - om) / lam ** 2,
    }
    derived = {"A1": t["B1"], "A2": t["B3"], "B1": t["C2"], "B2": t["C4"],
               "C1": t["D1"], "C2": t["D3"]}
    pairs = [(k, derived[k], printed[k]) for k in printed]
    return _table_entry(
        "two-photon-coefficient-table", pairs,
        note="C1: printed -delta^2 vs derived +delta^2 (sign discrepancy); "
             "C2: printed /lam^2 is dimensionally off by one power of lam")


def audit_asymmetric_tables(p: ModelParams, energy: float) -> dict:
    che = heun_mod.che_params(p, energy)
    om, de, ep, g = p.omega, p.delta, p.epsilon, p.g
    E = energy
    q = g / om
    printed_a = {"A1": -q, "A2": -q * q - (ep + E) / om, "A3": 1.0,
                 "B1": -q * q,
                 "B2": -q ** 3 / 2 - ep * q / om
                       - (ep ** 2 - E ** 2 + de ** 2) / (2 * om * g),
                 "B3": q + q ** 3 / 2 - ep * q / om
                       + (ep ** 2 - E ** 2 + de ** 2) / (2 * om * g)}
    pairs = [(k, che.a_table[k], printed_a[k]) for k in printed_a]
    kp = (1 + math.sqrt(5.0)) * q * q
    km = (1 - math.sqrt(5.0)) * q * q
    che_p = heun_mod.che_params(p, energy, "plus")
    pairs.append(("k_plus", che_p.k, kp))
    pairs.append(("k_minus", che.k, km))
    return _table_entry(
        "asymmetric-reduction-table", pairs,
        note="A1 and A3 inherit the operator-expansion omission; printed "
             "k_pm = (1 pm sqrt 5) g^2/omega^2 follows from the misprinted "
             "alpha1 = -2q^2 (derived alpha1 = 0, k_pm = pm 2 g^2/omega^2)")


def audit_bcf_tables(p: ModelParams, energy: float) -> dict:
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    b = bcf_mod.bcf_reduce(p, energy)
    printed_q2 = (g * g + lam * (ep + E)) / om ** 2 + 2 * lam / om
    printed_a = {"A1": g * (ep + E) / om ** 2 + g / om,
                 "A2": g * g / om ** 2 + (ep + E) / om - 1.0,
                 "A3": g / om, "A4": lam / om}
    printed_b = {"B1": (g * g + ep ** 2 - E ** 2 - de ** 2) / om ** 2,
                 "B2": 2 * ep * g / om ** 2 - g / om,
                 "B3": (g * g + 2 * ep * lam) / om ** 2 - 2 * lam / om}
    pairs = [("q^2", b.q ** 2, printed_q2)]
    for k in printed_a:
        pairs.append((k, b.a_table[k], printed_a[k]))
    for k in printed_b:
        pairs.append((k, b.b_table[k], printed_b[k]))
    # beta_pm: printed formula vs residue values, using the derived A-table
    a1, a2 = b.a_table["A1"], b.a_table["A2"]
    a3, a4 = b.a_table["A3"], b.a_table["A4"]
    q = b.q
    printed_beta_p = 0.5 * ((a4 + a3) * q * q + a2 + a1)
    printed_beta_m = 0.5 * ((a4 - a3) * q * q + a2 - a1)
    pairs.append(("beta1(beta+)", b.beta1, printed_beta_p))
    pairs.append(("beta2(beta-)", b.beta2, printed_beta_m))
    pairs.append(("alpha1", b.alpha1, 2 * q * a4))
    return _table_entry(
        "small-coupling-reduction-table", pairs,
        note="q^2, A and B1 inherit the operator omission (B1 also the "
             "delta^2 sign); printed beta_pm lack the /q on the odd part; "
             "printed alpha1 = 2 q A4 misses a 2q factor (map gives 4q^2 A4)")


# --------------------------------------------------------------------------
# appendix tables

def _printed_exact_c(nb: NormalizedParams):
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


def _printed_approx_c(nb: NormalizedParams):
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


def audit_appendix(nb: NormalizedParams) -> list:
    out = []
    keys = ("c2", "c3", "c4")
    out.append(_poly_entry(
        "appendix-exact-c", "table",
        zip(keys, canon.exact_c_polys(nb), _printed_exact_c(nb)),
        "printed exact c4 z^2 term carries (om^2/4+1) where the product "
        "gives (om^2+4)"))
    out.append(_poly_entry(
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
        derived = {"alpha1": cc.alpha1, "alpha2": cc.alpha2,
                   "gamma1": cc.gamma1, "gamma2": cc.gamma2,
                   "beta1": cc.beta1, "beta2": cc.beta2,
                   "gamma3": cc.gamma3, "delta1": cc.delta1,
                   "delta2": cc.delta2}
        pairs = [(k, derived[k], printed[k]) for k in printed]
        out.append(_table_entry(
            "appendix-partial-fractions", pairs,
            note="gamma3/delta1/delta2 inherit the c4 z^2 misprint"))

        nf = canon.normal_form_coeffs(cc)
        pairs = [("lambda1", nf.lambda1, nf.printed["lambda1"]),
                 ("mu1", nf.mu1, nf.printed["mu1"]),
                 ("mu2", nf.mu2, nf.printed["mu2"])]
        out.append(_table_entry(
            "appendix-normal-form", pairs,
            note="printed lambda1 = gamma1 - alpha1/4 (Liouville gives "
                 "alpha1^2/4); printed mu cross terms are half the derived "
                 "beta1 beta2/(4q)"))
    else:
        bp = canon.bch_params_g0(nb)
        t = (2.0 / om) * (e - ep)
        c_const = 2 * (-0.5 * om * om + (ep - om / 2) ** 2 - e * e
                       - de * de) / om ** 2
        derived_l1 = (1 - 3 * om * om / 8) - om * om / 4
        derived_l3 = om + 3 * ep - 4 * e
        derived_nu = c_const + t - t * t
        pairs = [("lambda1", derived_l1, bp.lambda1),
                 ("lambda3", derived_l3, bp.lambda3),
                 ("nu", derived_nu, bp.nu)]
        out.append(_table_entry(
            "appendix-bch-g0", pairs,
            note="printed g=0 list drops the constant part of c4 (with its "
                 "delta-bar dependence) and uses the lambda1 misprint; the "
                 "op returns the printed values by contract, derived shown "
                 "here"))
    return out


# --------------------------------------------------------------------------
# residual battery

def residual_suite(n_draws: int = 20, seed: int = 7, corrupt: bool = False,
                   threshold: float = 1e-10) -> list:
    """ODE residuals of every local series at points well inside their disks.

    With corrupt=True a coefficient of each derived recurrence is perturbed
    first; residuals must then blow past the threshold (negative control).
    The suite draws its own parameters from ``seed``, so its rows do not
    depend on the model a report audits: they are computed once per
    argument set, and each call gets its own copies.
    """
    return [dict(r) for r in _residual_rows(n_draws, seed, corrupt, threshold)]


@functools.lru_cache(maxsize=16)
def _residual_rows(n_draws: int, seed: int, corrupt: bool, threshold: float) -> tuple:
    rng = np.random.RandomState(seed)
    rows = []
    for _ in range(n_draws):
        om = 1.0
        de = rng.uniform(0.1, 0.8)
        ep = rng.uniform(-0.3, 0.3)
        g = rng.uniform(0.1, 0.8)
        lam = rng.uniform(0.02, 0.3)
        energy = rng.uniform(-1.0, 2.5)

        p_asym = ModelParams(om, de, ep, g, 0.0)
        che = heun_mod.che_params(p_asym, energy)
        for z0, tag in ((0.0, "che@0"), (1.0, "che@1")):
            ode = heun_mod.che_ode(che, z0)
            x = z0 + 0.15 if z0 == 0.0 else z0 - 0.15
            rows.append(_residual_row(tag, ode, x, corrupt, threshold))

        p_gen = ModelParams(om, de, ep, 0.3 * g, 0.3 * lam)
        b = bcf_mod.bcf_reduce(p_gen, energy)
        for z0, tag in ((0.0, "bcf@0"), (1.0, "bcf@1")):
            ode = bcf_mod.bcf_ode(b, z0)
            x = z0 + 0.15 if z0 == 0.0 else z0 - 0.15
            rows.append(_residual_row(tag, ode, x, corrupt, threshold))

        ode9 = PolyOde(tuple(compose_fourth_order(
            ModelParams(om, de, ep, g, lam), energy)), z0=0.0)
        rows.append(_residual_row("nine-term", ode9, 0.1, corrupt, threshold))
        ode5 = PolyOde(tuple(compose_fourth_order(
            ModelParams(om, de, ep, 0.0, lam), energy)), z0=0.0)
        rows.append(_residual_row("five-term", ode5, 0.1, corrupt, threshold))

        nb = normalize_params(ModelParams(om, de, ep, 0.0, lam), energy)
        bp = canon.bch_params_g0(nb)
        if abs(bp.gamma - round(bp.gamma)) > 1e-6:
            ode_b = canon.bch_first_normal_ode(bp.alpha, 0.0, bp.gamma, 0.0)
            rows.append(_residual_row("bch-first-normal", ode_b, 0.2,
                                      corrupt, threshold))

        p_unc = ModelParams(om, 0.0, ep, g, lam if abs(2 * lam) < om else 0.2)
        wp = weber_params(p_unc, energy)
        r_e, r_o = weber_residual_exact(wp.a1, rng.uniform(0.2, 1.5))
        rows.append({"context": "weber-kummer", "residual": max(r_e, r_o),
                     "threshold": threshold,
                     "ok": max(r_e, r_o) < threshold})
    return tuple(rows)


def _residual_row(tag: str, ode: PolyOde, x: float, corrupt: bool,
                  threshold: float) -> dict:
    rec = ode_to_recurrence(ode)
    w = rec.weights
    if corrupt:
        w = w.copy()
        w[rec.j_lead + 1, 0] += 1e-3 * max(1.0, np.max(np.abs(w)))
    sums, scale_log, _flags = series_sums_lanes(w[None], [x - ode.z0], [0])
    res = ode_residual(ode, x, sums[0], scale_log[0])
    return {"context": tag, "residual": float(res), "threshold": threshold,
            "ok": bool(res < threshold)}


# --------------------------------------------------------------------------
# top-level report

def diagnose_report(p: ModelParams, energy: float = 0.2,
                    n_draws: int = 5, corrupt: bool = False,
                    fock_cutoff: int = 120) -> dict:
    """Full machine-readable audit: recurrences, tables, residuals, oracle.

    Where the model's g or lambda vanishes, the tables that need them audit
    g = 0.6 omega (asymmetric) or 0.2 omega (general) and lambda = 0.1 omega.
    """
    om = p.omega
    p_asym = ModelParams(om, p.delta, p.epsilon, p.g if p.g else 0.6 * om, 0.0)
    p_gen = p if p.lam != 0.0 else ModelParams(om, p.delta, p.epsilon,
                                               p.g if p.g else 0.2 * om, 0.1 * om)
    entries = []
    entries += audit_recurrences(p_asym, energy, p_gen, energy)
    entries.append(audit_fourth_order_operator(p_gen, energy))
    entries.append(audit_general_table(p_gen, energy))
    entries.append(audit_two_photon_table(p_gen, energy))
    entries.append(audit_asymmetric_tables(p_asym, energy))
    entries.append(audit_bcf_tables(p_gen, energy))
    nb = normalize_params(p_gen, energy)
    entries += audit_appendix(nb)
    nb0 = normalize_params(ModelParams(p_gen.omega, p_gen.delta,
                                       p_gen.epsilon, 0.0, p_gen.lam), energy)
    entries += audit_appendix(nb0)

    residuals = residual_suite(n_draws=n_draws, corrupt=corrupt)
    oracle = oracle_spectrum(p, cutoff=fock_cutoff, k=10)
    ok_residuals = all(r["ok"] for r in residuals)
    return {
        "audit": entries,
        "residuals": residuals,
        "residuals_ok": ok_residuals,
        "oracle_convergence": {
            "cutoff": oracle.cutoff,
            "reference_cutoff": oracle.reference_cutoff,
            "deltas": [float(d) for d in oracle.convergence_deltas],
        },
        "mismatched_entries": [e["name"] for e in entries if not e["match"]],
    }
