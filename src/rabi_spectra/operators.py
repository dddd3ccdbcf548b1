"""Governing ODEs of the model, composed from the two coupled operators.

The fourth-order operator and its monic coefficient table come from the
composition with the full product rule; the lam = 0 and small-coupling
reductions feed the heun and bcf routes.  The fourth-order composition
and the lam = 0 parent are kept for the last few (parameters, energy)
pairs, so the audits of one report share them; each reads its energy as a
Python float before its cache forms the key, so a 0-d array shares the
entry of its value.  The displays the derivation chapters print drop two
product-rule terms; they are transcribed in :mod:`rabi_spectra.audit`,
which compares them with what is derived here.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .params import ModelParams, real
from .polyops import compose_operators, padd, poly


def coupled_operator_polys(p: ModelParams, energy: float):
    """(c1, c2, c1bar, c2bar) coefficient arrays of the coupled system."""
    c1 = poly([p.g, p.omega])
    c2 = poly([p.epsilon - energy, p.g, p.lam])
    c1b = poly([p.g, -p.omega])
    c2b = poly([p.epsilon + energy, p.g, p.lam])
    return c1, c2, c1b, c2b


def compose_fourth_order(p: ModelParams, energy: float) -> tuple:
    """Fourth-order operator annihilating phi_1: Dbar o D + delta^2, as a
    shared tuple of read-only coefficient arrays; the energy is read by
    :func:`params.real` first."""
    return _compose_fourth_order(p, real("energy", energy))


@functools.lru_cache(maxsize=4)
def _compose_fourth_order(p: ModelParams, energy: float) -> tuple:
    c1, c2, c1b, c2b = coupled_operator_polys(p, energy)
    d_op = [c2, c1, poly([p.lam])]
    dbar_op = [c2b, c1b, poly([p.lam])]
    out = compose_operators(dbar_op, d_op)
    out[0] = padd(out[0], poly([p.delta ** 2]))
    for c in out:
        c.setflags(write=False)
    return tuple(out)


def general_table(p: ModelParams, energy: float) -> dict:
    """Named entries A1 .. D4 of the monic general form: the composed
    fourth-order operator divided by lam^2."""
    if p.lam == 0.0:
        raise ValidationError("the fourth-order normal form divides by lambda^2")
    norm = [poly(c) / p.lam ** 2 for c in compose_fourth_order(p, energy)]

    def entry(k, i):
        c = norm[k]
        return float(c[i]) if i < c.size else 0.0

    return {
        "A1": entry(3, 0),
        "B1": entry(2, 0), "B2": entry(2, 1), "B3": entry(2, 2),
        "C1": entry(1, 0), "C2": entry(1, 1), "C3": entry(1, 2), "C4": entry(1, 3),
        "D1": entry(0, 0), "D2": entry(0, 1), "D3": entry(0, 2), "D4": entry(0, 3),
    }


def asymmetric_second_order(p: ModelParams, energy: float) -> tuple:
    """Second-order operator for phi_1 at lam = 0 (first-order elimination),
    as a shared tuple of read-only coefficient arrays; the energy is read by
    :func:`params.real` first.

    Composition of the two first-order operators plus delta^2; exact, unlike
    the printed reduction which loses the (g - omega z)(eps - E + g z) term.
    """
    return _asymmetric_second_order(p, real("energy", energy))


@functools.lru_cache(maxsize=4)
def _asymmetric_second_order(p: ModelParams, energy: float) -> tuple:
    m_op = [poly([p.epsilon - energy, p.g]), poly([p.g, p.omega])]
    mbar_op = [poly([p.epsilon + energy, p.g]), poly([p.g, -p.omega])]
    out = compose_operators(mbar_op, m_op)
    out[0] = padd(out[0], poly([p.delta ** 2]))
    for c in out:
        c.setflags(write=False)
    return tuple(out)


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

