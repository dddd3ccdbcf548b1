"""Recurrence-rollout kernels.

``roll`` sums one series and keeps every coefficient; ``roll_lanes`` sums a
batch of series of one recurrence shape at once (numpy over the lane axis,
looping over the index n) and keeps only the derivative sums.  The lane
kernel repeats ``roll``'s arithmetic operation for operation, so each lane
equals the scalar rollout bit for bit.  At batch size one ``roll`` is the
faster of the two, which is why both exist: single-series callers (the
audit's residual checks) use ``roll``; every G-function evaluation, the
exceptional tests' high-exponent series included, uses ``roll_lanes``.  All
lanes of one call share a seed vector, so a batch mixing Frobenius branches
is rolled in one call per branch.

Both roll b_n = a_n * x^n directly, so no explicit powers of x are formed; a
shared scale factor (log) is renormalized periodically to keep all mantissas
inside double range even for strongly growing coefficient windows.
"""

from __future__ import annotations

import math

import numpy as np

FLAG_NONCONVERGED = 1
FLAG_RESONANT_COMPATIBLE = 2
FLAG_RESONANT_INCOMPATIBLE = 4

_RENORM_EVERY = 50
_RES_GUARD = 1e-12
_COMPAT_TOL = 1e-12


def roll(L, j_lead, order, seeds, x, max_n, tail_tol):
    """Roll the recurrence sum L_j(m) a_{m+order-j} = 0 and accumulate
    derivative sums at x.

    Returns (deriv_mantissas[order+1], scale_log, n_used, flags,
             coeff_mantissas[max_n+1], coeff_logs[max_n+1], tail_rel).

    deriv[k] * exp(scale_log) = sum_n n(n-1)..(n-k+1) a_n x^n  (divide by x^k
    outside to get the k-th derivative).  coeff arrays reconstruct a_n.
    """
    n_lags = L.shape[0]
    n_deg = L.shape[1]
    q = order - j_lead  # equation-index offset: eq m determines a_{m+q}
    n_seed = seeds.shape[0]  # >= q; longer seeds select a higher exponent
    span = n_lags - 1 - j_lead  # how many back terms the newest one needs

    window = np.zeros(span + 1)  # window[d] = b_{n-d}
    ds = np.zeros(order + 1)
    coeff_m = np.zeros(max_n + 1)
    coeff_log = np.zeros(max_n + 1)
    scale_log = 0.0
    flags = 0
    n_used = n_seed - 1
    tail_rel = 0.0

    ax = abs(x)
    lx = math.log(ax) if ax > 0.0 else 0.0
    sx = 1.0 if x >= 0.0 else -1.0

    # seed terms
    xp = 1.0
    sgn = 1.0
    for j in range(n_seed):
        b = seeds[j] * xp
        for d in range(span, 0, -1):
            window[d] = window[d - 1]
        window[0] = b
        ffv = 1.0
        for k in range(order + 1):
            ds[k] += ffv * b
            ffv *= (j - k)
        if j <= max_n:
            coeff_m[j] = b * sgn
            coeff_log[j] = scale_log - j * lx
        xp *= x
        sgn *= sx

    quiet = 0
    for n in range(n_seed, max_n + 1):
        m = float(n - q)
        # leading weight L_{j_lead}(m) and its magnitude reference
        lead = 0.0
        lead_ref = 0.0
        mp = 1.0
        mref = 1.0
        mabs = abs(m) if abs(m) > 1.0 else 1.0
        for d in range(n_deg):
            lead += L[j_lead, d] * mp
            lead_ref += abs(L[j_lead, d]) * mref
            mp *= m
            mref *= mabs
        rhs = 0.0
        rhs_ref = 0.0
        xd = x
        for dlag in range(1, span + 1):
            w = 0.0
            mp = 1.0
            for d in range(n_deg):
                w += L[j_lead + dlag, d] * mp
                mp *= m
            t = w * xd * window[dlag - 1]
            rhs -= t
            rhs_ref += abs(t)
            xd *= x
        if abs(lead) <= _RES_GUARD * lead_ref:
            if abs(rhs) <= _COMPAT_TOL * (rhs_ref + 1e-300):
                b_n = 0.0
                flags |= FLAG_RESONANT_COMPATIBLE
            else:
                flags |= FLAG_RESONANT_INCOMPATIBLE
                n_used = n - 1
                break
        else:
            b_n = rhs / lead

        for d in range(span, 0, -1):
            window[d] = window[d - 1]
        window[0] = b_n
        ffv = 1.0
        for k in range(order + 1):
            ds[k] += ffv * b_n
            ffv *= (n - k)
        coeff_m[n] = b_n * sgn
        coeff_log[n] = scale_log - n * lx
        sgn *= sx
        n_used = n

        # convergence: a full span of consecutive negligible terms, with the
        # n^order amplification of the highest derivative accounted for
        ref = abs(ds[0])
        if ref < 1.0:
            ref = 1.0
        amp = 1.0
        for _ in range(order):
            amp *= (n + 1.0)
        tail_rel = abs(b_n) * amp / ref
        if tail_tol > 0.0 and tail_rel <= tail_tol:
            quiet += 1
            if quiet > span + 2 and n > n_seed + 8:
                break
        else:
            quiet = 0

        if n % _RENORM_EVERY == 0:
            big = 0.0
            for d in range(span + 1):
                if abs(window[d]) > big:
                    big = abs(window[d])
            for k in range(order + 1):
                if abs(ds[k]) > big:
                    big = abs(ds[k])
            if big > 1e100 or (0.0 < big < 1e-100):
                f = big
                lf = math.log(f)
                for d in range(span + 1):
                    window[d] /= f
                for k in range(order + 1):
                    ds[k] /= f
                scale_log += lf

    if tail_tol > 0.0 and n_used >= max_n and tail_rel > tail_tol:
        flags |= FLAG_NONCONVERGED
    return ds, scale_log, n_used, flags, coeff_m, coeff_log, tail_rel


#: most indices n whose weight values roll_lanes evaluates in one numpy pass
_LANE_BLOCK = 32
#: byte size of one block's weight values [n, lag, lane]; larger temporaries
#: come from fresh pages (the allocator maps them and gives them back), so a
#: wide grid would page-fault on every block
_LANE_BLOCK_BYTES = 1 << 16


def roll_lanes(L, j_lead, order, seeds, x, max_n, tail_tol):
    """``roll`` for many lanes of one recurrence shape at once.

    ``L[i]`` holds lane i's weights (laid out as ``roll``'s L) and ``x[i]``
    its evaluation point; j_lead, order, seeds, max_n and tail_tol are
    shared.  Every lane keeps ``roll``'s checks: the resonance guard and its
    compatible/incompatible flags, the convergence gate with the n^order
    amplification, renormalization every _RENORM_EVERY terms (per-lane
    scale_log) and the nonconverged flag.

    Returns (deriv_mantissas[lanes, order+1], scale_log, n_used, flags,
    tail_rel), each lane equal to ``roll``'s output on (L[i], x[i]).  No
    coefficients are kept.
    """
    n_lanes, n_lags, n_deg = L.shape
    q = order - j_lead
    n_seed = seeds.shape[0]
    span = n_lags - 1 - j_lead
    x = np.asarray(x, dtype=np.float64)

    out_ds = np.zeros((n_lanes, order + 1))
    out_slog = np.zeros(n_lanes)
    out_n = np.zeros(n_lanes, dtype=np.int64)
    out_flags = np.zeros(n_lanes, dtype=np.int64)
    out_tail = np.zeros(n_lanes)

    window = np.zeros((span + 1, n_lanes))  # window[d] = b_{n-d}
    ds = np.zeros((order + 1, n_lanes))
    xp = np.ones(n_lanes)
    ff_seed = _falling(np.arange(n_seed), order)
    for j in range(n_seed):
        b = seeds[j] * xp
        window[1:] = window[:-1]
        window[0] = b
        ds += ff_seed[j][:, None] * b
        xp = xp * x

    lanes = np.arange(n_lanes)  # original index of each live lane
    alive = np.ones(n_lanes, dtype=bool)
    slog = np.zeros(n_lanes)
    flags = np.zeros(n_lanes, dtype=np.int64)
    quiet = np.zeros(n_lanes, dtype=np.int64)
    tail = np.zeros(n_lanes)

    def store(sel, n_used):
        idx = lanes[sel]
        out_ds[idx] = ds[:, sel].T
        out_slog[idx] = slog[sel]
        out_n[idx] = n_used
        out_flags[idx] = flags[sel]
        out_tail[idx] = tail[sel]

    n_last = n_seed - 1
    n0 = n_seed
    with np.errstate(all="ignore"):  # retired lanes roll on until compaction
        while n0 <= max_n:
            if not alive.all():
                lanes, slog, flags, quiet, tail = (
                    a[alive] for a in (lanes, slog, flags, quiet, tail))
                window, ds = window[:, alive], ds[:, alive]
                alive = alive[alive]
            per_n = 8 * n_lags * lanes.size
            n1 = min(n0 + max(1, min(_LANE_BLOCK, _LANE_BLOCK_BYTES // per_n)),
                     max_n + 1)
            # weight values W_j(n - q) for the block, summed in roll's order
            m = np.arange(n0 - q, n1 - q, dtype=np.float64)
            mabs = np.maximum(np.abs(m), 1.0)
            lt = L[lanes].transpose(2, 1, 0)  # [d, lag, lane]
            wv = np.zeros((m.size, n_lags, lanes.size))
            lref_b = np.zeros((m.size, lanes.size))
            mp = np.ones_like(m)
            mref = np.ones_like(m)
            for d in range(n_deg):
                wv += lt[d][None] * mp[:, None, None]
                lref_b += np.abs(lt[d, j_lead])[None] * mref[:, None]
                mp = mp * m
                mref = mref * mabs
            lead_b = wv[:, j_lead]
            ff_b = _falling(np.arange(n0, n1), order)
            amp_b = np.ones(m.size)  # (n+1)^order amplification of the gate
            for _ in range(order):
                amp_b = amp_b * (np.arange(n0, n1) + 1.0)
            res_any = np.any(np.abs(lead_b) <= _RES_GUARD * lref_b, axis=1)
            # wx_b[i, d - 1] = W_{j_lead+d}(m) x^d, the factor of b_{n-d}
            xd = np.cumprod(np.broadcast_to(x[lanes], (span, lanes.size)), axis=0)
            wx_b = wv[:, j_lead + 1:] * xd[None]

            for i, n in enumerate(range(n0, n1)):
                lead = lead_b[i]
                t = wx_b[i] * window[:span]
                rhs = 0.0 - np.add.reduce(t, axis=0)
                if res_any[i]:
                    res = (np.abs(lead) <= _RES_GUARD * lref_b[i]) & alive
                    rhs_ref = np.add.reduce(np.abs(t), axis=0)
                    compat = np.abs(rhs) <= _COMPAT_TOL * (rhs_ref + 1e-300)
                    flags = flags | np.where(res & compat,
                                             FLAG_RESONANT_COMPATIBLE, 0)
                    bad = res & ~compat
                    if bad.any():
                        flags = flags | np.where(bad, FLAG_RESONANT_INCOMPATIBLE, 0)
                        store(bad, n - 1)
                        alive = alive & ~bad
                    b = np.where(res, 0.0, rhs / lead)
                else:
                    b = rhs / lead

                window[1:] = window[:-1]
                window[0] = b
                ds += ff_b[i][:, None] * b
                n_last = n

                tail = np.abs(b) * amp_b[i] / np.maximum(np.abs(ds[0]), 1.0)
                if tail_tol > 0.0:
                    quiet = (quiet + 1) * (tail <= tail_tol)
                    if n > n_seed + 8:
                        done = (quiet > span + 2) & alive
                        if done.any():
                            store(done, n)
                            alive = alive & ~done
                            if not alive.any():
                                break

                if n % _RENORM_EVERY == 0:
                    big = np.fmax(np.fmax.reduce(np.abs(window), axis=0),
                                  np.fmax.reduce(np.abs(ds), axis=0))
                    sel = ((big > 1e100) | ((big > 0.0) & (big < 1e-100))) & alive
                    if sel.any():
                        f = big[sel]
                        window[:, sel] /= f
                        ds[:, sel] /= f
                        slog[sel] += np.array([math.log(v) for v in f])
            if not alive.any():
                break
            n0 = n1
        store(alive, n_last)

    if tail_tol > 0.0:
        out_flags |= np.where((out_n >= max_n) & (out_tail > tail_tol),
                              FLAG_NONCONVERGED, 0)
    return out_ds, out_slog, out_n, out_flags, out_tail


def _falling(ns: np.ndarray, order: int) -> np.ndarray:
    """out[i, k] = n(n-1)..(n-k+1) at n = ns[i], multiplied up as ``roll``
    does."""
    out = np.ones((ns.size, order + 1))
    for k in range(1, order + 1):
        out[:, k] = out[:, k - 1] * (ns - (k - 1))
    return out
