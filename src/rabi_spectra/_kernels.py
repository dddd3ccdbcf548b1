"""Recurrence-rollout kernels.

``roll`` sums one series; ``roll_lanes`` sums a batch of series of one
recurrence shape at once (numpy over the lane axis, looping over the index
n).  Both return the derivative sums up to the recurrence's order, and no
coefficients.  The lane kernel repeats ``roll``'s arithmetic operation for
operation, so each lane equals the scalar rollout bit for bit, and ``roll``
is the reference the lane tests compare against.  At batch size one ``roll``
is the faster of the two, which is why both exist: single-series callers
(the audit's residual checks) use ``roll``; every G-function evaluation,
the ladder points' high-exponent series included, uses ``roll_lanes``.
Each lane carries its own seed vector, so a batch mixing Frobenius branches
is one call.

Both roll b_n = a_n * x^n directly, so no explicit powers of x are formed; a
shared scale factor (log) is renormalized periodically to keep all mantissas
inside double range even for strongly growing coefficient windows.
"""

from __future__ import annotations

import functools
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

    Returns (deriv_mantissas[order+1], scale_log, n_used, flags, tail_rel).

    deriv[k] * exp(scale_log) = sum_n n(n-1)..(n-k+1) a_n x^n  (divide by x^k
    outside to get the k-th derivative).
    """
    n_lags = L.shape[0]
    n_deg = L.shape[1]
    q = order - j_lead  # equation-index offset: eq m determines a_{m+q}
    n_seed = seeds.shape[0]  # >= q; longer seeds select a higher exponent
    span = n_lags - 1 - j_lead  # how many back terms the newest one needs

    window = np.zeros(span + 1)  # window[d] = b_{n-d}
    ds = np.zeros(order + 1)
    scale_log = 0.0
    flags = 0
    n_used = n_seed - 1
    tail_rel = 0.0

    # seed terms
    xp = 1.0
    for j in range(n_seed):
        b = seeds[j] * xp
        for d in range(span, 0, -1):
            window[d] = window[d - 1]
        window[0] = b
        ffv = 1.0
        for k in range(order + 1):
            ds[k] += ffv * b
            ffv *= (j - k)
        xp *= x

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
    return ds, scale_log, n_used, flags, tail_rel


#: most bytes of one block's weight values [n, lag, lane]; a block also ends
#: at each renormalization index, so this cuts blocks short only on wide grids
_LANE_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=16)
def _index_factors(q, n_deg, order, max_n):
    """Factors of the indices n = 0..max_n, multiplied up as ``roll`` does:
    the powers of m = n - q and of max(|m|, 1) as [n, d], the falling
    factorials as [n, k] and the gate's (n+1)^order amplification."""
    ns = np.arange(max_n + 1)
    m = ns - float(q)
    pw = [np.ones(ns.size)]
    pref = [np.ones(ns.size)]
    for _ in range(1, n_deg):
        pw.append(pw[-1] * m)
        pref.append(pref[-1] * np.maximum(np.abs(m), 1.0))
    amp = np.ones(ns.size)
    for _ in range(order):
        amp = amp * (ns + 1.0)
    out = (ns, np.array(pw).T, np.array(pref).T, _falling(ns, order), amp)
    for a in out:
        a.setflags(write=False)
    return out


def roll_lanes(L, j_lead, order, seeds, n_seed, x, max_n, tail_tol):
    """``roll`` for many lanes of one recurrence shape at once.

    ``L[i]`` holds lane i's weights (laid out as ``roll``'s L), ``x[i]`` its
    evaluation point and ``seeds[i, :n_seed[i]]`` its seed vector, with
    n_seed[i] <= max_n + 1; j_lead, order, max_n and tail_tol are shared.
    Every lane keeps ``roll``'s checks: the resonance guard and its
    compatible/incompatible flags, the convergence gate with the n^order
    amplification, renormalization every _RENORM_EVERY terms (per-lane
    scale_log) and the nonconverged flag.

    The index loop runs in blocks that end where ``roll`` renormalizes, or,
    after the first block, where the live lanes' tail decay predicts they
    all stop (a lane still live there runs another block).  Outside
    resonances and seed terms, a term takes three numpy operations:
    weights times the previous terms, a sum, and a division into the
    block's history rows.  The derivative sums, the gate, the resonance
    stops and renormalization run once per block; a lane that stops inside a
    block takes its state from the history rows.

    Returns (deriv_mantissas[lanes, order+1], scale_log, n_used, flags,
    tail_rel), each lane equal to ``roll``'s output on (L[i], x[i],
    seeds[i, :n_seed[i]]).
    """
    n_lanes, n_lags, n_deg = L.shape
    span = n_lags - 1 - j_lead
    ns, pw, pref, ff, amp = _index_factors(order - j_lead, n_deg, order, max_n)
    x = np.asarray(x, dtype=np.float64)
    xp = np.ones((seeds.shape[1], n_lanes))
    xp[1:] = x
    out = (np.zeros((order + 1, n_lanes)), np.zeros(n_lanes),
           np.zeros(n_lanes, dtype=np.int64), np.zeros(n_lanes, dtype=np.int64),
           np.zeros(n_lanes))
    # live-lane state, lane axis last: window[d] = b_{n-d}, the seed terms
    # seeds[i, j] x^j, the weights from lag j_lead on as [d, lag, lane] and
    # -x^d, the factor of lag j_lead + d (summed from 0.0, the products then
    # give roll's rhs bit for bit)
    state = [np.arange(n_lanes), np.zeros((span + 1, n_lanes)),
             np.zeros((order + 1, n_lanes)), np.zeros(n_lanes),
             np.zeros(n_lanes, dtype=np.int64), np.zeros(n_lanes, dtype=np.int64),
             np.zeros(n_lanes), seeds.T * np.cumprod(xp, axis=0),
             np.ascontiguousarray(L[:, j_lead:].transpose(2, 1, 0)),
             -np.cumprod(np.broadcast_to(x, (span, n_lanes)), axis=0),
             np.asarray(n_seed, dtype=np.int64)]
    hit = np.zeros(n_lanes, dtype=bool)
    n0, stride = 0, max_n + 1
    with np.errstate(all="ignore"):  # a lane stopped mid-block rolls on to its end
        while n0 <= max_n:
            if hit.any():
                keep = np.flatnonzero(~hit)
                if not keep.size:
                    break
                state = [a.take(keep, axis=-1) for a in state]
            lanes, window, ds, slog, flags, quiet, tail, seed_b, lt, nxd, n_seed = state
            n1 = min((n0 // _RENORM_EVERY + 1) * _RENORM_EVERY + 1, max_n + 1,
                     n0 + max(1, _LANE_BLOCK_BYTES // (8 * n_lags * lanes.size)),
                     n0 + stride)
            nb = n1 - n0
            # weight values W_j(n - q) for the block, summed in roll's order
            wv = np.add.reduce(lt * pw[n0:n1, :, None, None], axis=1, initial=0.0)
            lead = wv[:, 0]
            lref = np.add.reduce(np.abs(lt[:, 0]) * pref[n0:n1, :, None],
                                 axis=1, initial=0.0)
            main = ns[n0:n1, None] >= n_seed  # past the lane's seed terms
            res = (np.abs(lead) <= _RES_GUARD * lref) & main
            res_at = res.any(axis=1).tolist()
            wx = wv[:, 1:] * nxd
            compat = np.zeros((nb, lanes.size), dtype=bool)
            bad = np.zeros((nb, lanes.size), dtype=bool)
            seeding = int(n_seed.max()) - n0
            # term n0 + i goes to row nb - 1 - i, above the carried window
            h = np.empty((nb + span + 1, lanes.size))
            h[nb:] = window
            for i in range(nb):
                r = nb - 1 - i
                t = wx[i] * h[r + 1:r + 1 + span]
                rhs = np.add.reduce(t, axis=0, initial=0.0)
                np.divide(rhs, lead[i], out=h[r])
                if res_at[i]:
                    ok = np.abs(rhs) <= _COMPAT_TOL * (
                        np.add.reduce(np.abs(t), axis=0, initial=0.0) + 1e-300)
                    compat[i], bad[i] = res[i] & ok, res[i] & ~ok
                    h[r, res[i]] = 0.0
                if i < seeding:
                    np.copyto(h[r], seed_b[n0 + i], where=~main[i])
            window = h[:span + 1]

            # row j of dsum and tails: the state after j terms of the block;
            # cumsum adds in roll's order
            terms = h[nb - 1::-1]
            dsum = np.empty((nb + 1, order + 1, lanes.size))
            dsum[0] = ds
            np.multiply(ff[n0:n1, :, None], terms[:, None], out=dsum[1:])
            np.cumsum(dsum, axis=0, out=dsum)
            tails = np.empty((nb + 1, lanes.size))
            tails[0] = tail
            tails[1:] = np.where(main, np.abs(terms) * amp[n0:n1, None]
                                 / np.maximum(np.abs(dsum[1:, 0]), 1.0), 0.0)
            stop = bad
            if tail_tol > 0.0:
                idx = np.arange(nb)[:, None]
                loud = np.maximum.accumulate(
                    np.where((tails[1:] <= tail_tol) & main, -1, idx), axis=0)
                run = np.where(loud < 0, quiet + idx + 1, idx - loud)
                stop = stop | ((run > span + 2) & (ns[n0:n1, None] > n_seed + 8))
                quiet = run[-1]
            hit = stop.any(axis=0)
            s = np.argmax(stop, axis=0)
            cols = np.arange(lanes.size)
            k = np.where(hit, s + 1 - bad[s, cols], nb)  # terms each lane keeps
            ds, tail = dsum[k, :, cols].T, tails[k, cols]
            flags = flags | np.where(bad[s, cols], FLAG_RESONANT_INCOMPATIBLE, 0)
            if any(res_at):
                first = np.where(compat.any(axis=0), np.argmax(compat, axis=0), nb)
                flags = flags | np.where(first < k, FLAG_RESONANT_COMPATIBLE, 0)
            if (n1 - 1) % _RENORM_EVERY == 0:
                big = np.fmax(np.fmax.reduce(np.abs(window), axis=0),
                              np.fmax.reduce(np.abs(ds), axis=0))
                sel = (((big > 1e100) | ((big > 0.0) & (big < 1e-100)))
                       & ~hit & (n_seed < n1))
                if sel.any():
                    f = big[sel]
                    window[:, sel] /= f
                    ds[:, sel] /= f
                    slog[sel] += np.array([math.log(v) for v in f])
            if n1 > max_n:
                hit[:] = True
            # the next block ends where the live lanes' tails, decaying at
            # their rate over the last 8 terms, have been quiet for a span
            stride, live = max_n + 1, ~hit
            if tail_tol > 0.0 and nb > 8 and np.all(n_seed[live] <= n1 - 9):
                t1 = tails[-1, live]
                rate = (t1 / tails[-9, live]) ** 0.125
                quiet_now = t1 <= tail_tol
                if np.all(quiet_now | (rate < 1.0)):
                    steps = np.log(tail_tol / t1) / np.log(rate)
                    stride = int(np.ceil(np.max(steps, where=~quiet_now,
                                                initial=0.0))) + span + 4
            if hit.any():
                for o, v in zip(out, (ds, slog, n0 + k - 1, flags, tail)):
                    o[..., lanes[hit]] = v[..., hit]
            state = [lanes, window, ds, slog, flags, quiet, tail,
                     seed_b, lt, nxd, n_seed]
            n0 = n1

    out_ds, out_slog, out_n, out_flags, out_tail = out
    if tail_tol > 0.0:
        out_flags |= np.where((out_n >= max_n) & (out_tail > tail_tol),
                              FLAG_NONCONVERGED, 0)
    return out_ds.T, out_slog, out_n, out_flags, out_tail


def _falling(ns: np.ndarray, order: int) -> np.ndarray:
    """out[i, k] = n(n-1)..(n-k+1) at n = ns[i], multiplied up as ``roll``
    does."""
    out = np.ones((ns.size, order + 1))
    for k in range(1, order + 1):
        out[:, k] = out[:, k - 1] * (ns - (k - 1))
    return out
