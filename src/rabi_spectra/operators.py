"""Governing ODEs of the model, built two ways.

The authoritative route composes the two coupled second-order operators
directly (with the full product rule).  The transcribed closed forms that the
derivation chapters print are kept alongside purely as audit references: they
drop two product-rule terms, and everything downstream of them inherits the
defect.  See audit.audit_fourth_order_operator for the itemized comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LambdaZeroError
from .params import ModelParams
from .polyops import compose_operators, padd, pmul, poly, ptrim

__all__ = [
    "coupled_operator_polys",
    "compose_fourth_order",
    "printed_fourth_order",
    "Ode4Coeffs",
    "operator_compose",
    "asymmetric_second_order",
    "bcf_truncated_parent",
    "GENERAL_TABLE_KEYS",
]


def coupled_operator_polys(p: ModelParams, energy: float):
    """(c1, c2, c1bar, c2bar) coefficient arrays of the coupled system."""
    c1 = poly([p.g, p.omega])
    c2 = poly([p.epsilon - energy, p.g, p.lam])
    c1b = poly([p.g, -p.omega])
    c2b = poly([p.epsilon + energy, p.g, p.lam])
    return c1, c2, c1b, c2b


def compose_fourth_order(p: ModelParams, energy: float) -> list:
    """Fourth-order operator annihilating phi_1: Dbar o D + delta^2."""
    c1, c2, c1b, c2b = coupled_operator_polys(p, energy)
    d_op = [c2, c1, poly([p.lam])]
    dbar_op = [c2b, c1b, poly([p.lam])]
    out = compose_operators(dbar_op, d_op)
    out[0] = padd(out[0], poly([p.delta ** 2]))
    return out


def printed_fourth_order(p: ModelParams, energy: float) -> list:
    """The fourth-order equation as printed (audit reference only)."""
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


GENERAL_TABLE_KEYS = ("A1", "B1", "B2", "B3", "C1", "C2", "C3", "C4",
                      "D1", "D2", "D3", "D4")


def printed_general_table(p: ModelParams, energy: float) -> dict:
    """The general-case coefficient list as literally printed (audit only).

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


def _table_from_operator(op: list, lam: float) -> dict:
    """Named entries of the monic general form (operator divided by lam^2)."""
    norm = [poly(c) / lam ** 2 for c in op]

    def entry(k, i):
        c = norm[k]
        return float(c[i]) if i < c.size else 0.0

    return {
        "A1": entry(3, 0),
        "B1": entry(2, 0), "B2": entry(2, 1), "B3": entry(2, 2),
        "C1": entry(1, 0), "C2": entry(1, 1), "C3": entry(1, 2), "C4": entry(1, 3),
        "D1": entry(0, 0), "D2": entry(0, 1), "D3": entry(0, 2), "D4": entry(0, 3),
    }


@dataclass(frozen=True)
class Ode4Coeffs:
    """General-case fourth-order coefficient table at a trial energy.

    ``composed`` entries come from the operator composition and are the ones
    the solvers consume; ``printed`` holds the transcribed closed forms;
    ``mismatches`` names every entry where the two disagree.
    """

    params: ModelParams
    energy: float
    composed: dict
    printed: dict
    mismatches: tuple = field(default_factory=tuple)


def operator_compose(p: ModelParams, energy: float, rtol: float = 1e-12) -> Ode4Coeffs:
    """Build the fourth-order table both ways and report disagreements."""
    if p.lam == 0.0:
        raise LambdaZeroError("the fourth-order normal form divides by lambda^2")
    op = compose_fourth_order(p, energy)
    composed = _table_from_operator(op, p.lam)
    printed = printed_general_table(p, energy)
    bad = []
    for key in GENERAL_TABLE_KEYS:
        a, b = composed[key], printed[key]
        if abs(a - b) > rtol * max(1.0, abs(a), abs(b)):
            bad.append(key)
    return Ode4Coeffs(p, energy, composed, printed, tuple(bad))


def asymmetric_second_order(p: ModelParams, energy: float) -> list:
    """Second-order operator for phi_1 at lam = 0 (first-order elimination).

    Composition of the two first-order operators plus delta^2; exact, unlike
    the printed reduction which loses the (g - omega z)(eps - E + g z) term.
    """
    m_op = [poly([p.epsilon - energy, p.g]), poly([p.g, p.omega])]
    mbar_op = [poly([p.epsilon + energy, p.g]), poly([p.g, -p.omega])]
    out = compose_operators(mbar_op, m_op)
    out[0] = padd(out[0], poly([p.delta ** 2]))
    return out


def bcf_truncated_parent(p: ModelParams, energy: float) -> list:
    """Second-order operator after dropping every O(lam^2), O(lam*g) monomial
    from the composed fourth-order equation (small-coupling reduction).

    Validity is checked in tests by scaling (g, lam) jointly and verifying the
    discarded part shrinks quadratically.
    """
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    p2 = poly([g * g + 2 * lam * (om + ep), 0.0, -om * om])
    p1 = poly([g * (om + 2 * ep), 2 * g * g + 2 * om * E - om * om])
    p0 = poly([g * g + ep * ep - E * E + de * de,
               g * (2 * ep - om),
               g * g + 2 * ep * lam - 2 * lam * om])
    return [p0, p1, p2]

