"""Recurrence-rollout kernel.

``roll_lanes`` sums a batch of series of one recurrence shape at once (numpy
over the lane axis, looping over the index n) and returns the derivative
sums k = 0..derivs, and no coefficients; in the package only
``series.series_sums_lanes`` calls it.  The derivative count defaults to the
recurrence's order; a caller that reads fewer derivatives asks for fewer,
and the convergence gate then weighs each term by (n+1)^derivs, the growth
of the highest sum it returns, so no lane rolls on for a sum nobody reads.
Each lane carries its own seed vector, so a batch mixing Frobenius branches
is one call, and each lane's result does not depend on the batch it is
rolled in: the tests compare every lane bit for bit with a scalar reference
rollout that sums term by term, whatever the derivative count.  ``roll``,
its one-lane entry, has no caller in the package; it is kept because the
benchmark's hook table (``perfbench/tracing.py``) names it.

Lanes roll b_n = a_n * x^n directly, so no explicit powers of x are formed; a
per-lane scale factor (log) is renormalized periodically to keep all
mantissas inside double range even for strongly growing coefficient windows.
A lag that no lane of the batch weighs (the confluent Heun reduction's last
one) stays in the window and the gate's span but is left out of each term's
sum, where it could add only signed zeros.
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
    """One series: :func:`roll_lanes` on the single lane (L, seeds, x) with
    every derivative up to the order, and scalar outputs
    (deriv_mantissas[order+1], scale_log, n_used, flags, tail_rel)."""
    seeds = np.asarray(seeds, dtype=np.float64)
    ds, slog, n_used, flags, tail = roll_lanes(
        np.asarray(L, dtype=np.float64)[None], j_lead, order, seeds[None],
        [seeds.size], [x], int(max_n), tail_tol)
    return ds[0], float(slog[0]), int(n_used[0]), int(flags[0]), float(tail[0])


#: fewest index rows of a factor table; a roll past them takes the next
#: power of two
_FACTOR_ROWS = 64
#: most bytes of one block's weight values [n, lag, lane]; a block also ends
#: at each renormalization index, so this cuts blocks short only on wide grids
_LANE_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=16)
def _index_factors(q, n_deg, derivs, size):
    """Factors of the indices n = 0..size-1, multiplied up as the reference
    rollout does: the powers of m = n - q and of max(|m|, 1) as [n, d], the
    falling factorials as [n, k] and the gate's (n+1)^derivs amplification.
    Each row depends on its own index only, so a longer table repeats the
    rows of a shorter one bit for bit."""
    ns = np.arange(size)
    m = ns - float(q)
    pw = [np.ones(ns.size)]
    pref = [np.ones(ns.size)]
    for _ in range(1, n_deg):
        pw.append(pw[-1] * m)
        pref.append(pref[-1] * np.maximum(np.abs(m), 1.0))
    amp = np.ones(ns.size)
    for _ in range(derivs):
        amp = amp * (ns + 1.0)
    out = (ns, np.array(pw).T, np.array(pref).T, _falling(ns, derivs), amp)
    for a in out:
        a.setflags(write=False)
    return out


def roll_lanes(L, j_lead, order, seeds, n_seed, x, max_n, tail_tol, derivs=None):
    """Roll the recurrence sum_j L_j(m) a_{m+order-j} = 0 of many lanes at
    once and accumulate each lane's derivative sums k = 0..derivs (default:
    the order) at its point.

    ``L[i, j, d]`` is the d-th power coefficient of lane i's weight L_j,
    ``x[i]`` its evaluation point and ``seeds[i, :n_seed[i]]`` its seed
    vector (at least order - j_lead terms; a longer one selects a higher
    exponent), with n_seed[i] <= max_n + 1; j_lead, order, max_n, tail_tol
    and derivs are shared.  Every lane has a resonance guard with
    compatible/incompatible flags, a convergence gate (a full span of
    negligible terms, with the n^derivs amplification of the highest
    derivative summed accounted for), renormalization every _RENORM_EVERY
    terms (per-lane scale_log) and the nonconverged flag.

    The index loop runs in blocks that end at the renormalization indices,
    or, after the first block, where the live lanes' tail decay predicts
    they all stop (a lane still live there runs another block).  Outside
    resonances and seed terms, a term takes three numpy operations: weights
    times the previous terms, a sum, and a division into the block's
    history rows.  The weights, the derivative sums, the gate, the
    resonance stops and renormalization run once per block, the resonance
    bookkeeping only in a block with a resonant row; a lane that stops
    inside a block takes its state from the history rows.

    Returns (deriv_mantissas[lanes, derivs+1], scale_log, n_used, flags,
    tail_rel); deriv[i, k] * exp(scale_log[i]) = sum_n n..(n-k+1) a_n x[i]^n.
    """
    derivs = order if derivs is None else derivs
    n_lanes, n_lags, n_deg = L.shape
    span = n_lags - 1 - j_lead
    # the lags past the last one any lane weighs add only signed zeros (while
    # the window is finite) to a term sum that starts from 0.0, which leave
    # it as it is: they keep their place in the window and the gate's span,
    # but are not weighed
    used = span
    while used and not L[:, j_lead + used].any():
        used -= 1
    ns = ()  # index rows of the factor tables, taken as the blocks reach them
    x = np.asarray(x, dtype=np.float64)
    xp = np.ones((seeds.shape[1], n_lanes))
    xp[1:] = x
    out = (np.zeros((derivs + 1, n_lanes)), np.zeros(n_lanes),
           np.zeros(n_lanes, dtype=np.int64), np.zeros(n_lanes, dtype=np.int64),
           np.zeros(n_lanes))
    # live-lane state, lane axis last: window[d] = b_{n-d}, the seed terms
    # seeds[i, j] x^j, the weights of lags j_lead .. j_lead + used as
    # [d, lag, lane] and -x^d, the factor of lag j_lead + d (summed from 0.0,
    # the products then give the reference rollout's rhs bit for bit)
    state = [np.arange(n_lanes), np.zeros((span + 1, n_lanes)),
             np.zeros((derivs + 1, n_lanes)), np.zeros(n_lanes),
             np.zeros(n_lanes, dtype=np.int64), np.zeros(n_lanes, dtype=np.int64),
             np.zeros(n_lanes), seeds.T * np.cumprod(xp, axis=0),
             np.ascontiguousarray(L[:, j_lead:j_lead + used + 1].transpose(2, 1, 0)),
             -np.cumprod(np.ones((used, 1)) * x, axis=0),
             np.asarray(n_seed, dtype=np.int64)]
    hit = np.zeros(n_lanes, dtype=bool)
    n0, stride = 0, max_n + 1
    with np.errstate(all="ignore"):  # a lane stopped mid-block rolls on to its end
        while n0 <= max_n:
            if hit.any() or state[0].size < 2:
                keep = np.flatnonzero(~hit)
                if not keep.size:
                    break
                # numpy sums one lane's span pairwise from 8 terms on, and a
                # batch's row by row: a lone lane rolls beside its own copy
                keep = np.resize(keep, max(keep.size, 2))
                state = [a.take(keep, axis=-1) for a in state]
            lanes, window, ds, slog, flags, quiet, tail, seed_b, lt, nxd, n_seed = state
            n1 = min((n0 // _RENORM_EVERY + 1) * _RENORM_EVERY + 1, max_n + 1,
                     n0 + max(1, _LANE_BLOCK_BYTES // (8 * n_lags * lanes.size)),
                     n0 + stride)
            nb = n1 - n0
            if n1 > len(ns):
                ns, pw, pref, ff, amp = _index_factors(
                    order - j_lead, n_deg, derivs,
                    max(_FACTOR_ROWS, 1 << (n1 - 1).bit_length()))
            # weight values W_j(n - q) for the block and the leading weight's
            # magnitude reference, summed degree by degree from 0.0 as the
            # reference does
            wv = lt[0] + np.zeros((nb, 1, 1))
            lead_abs = np.abs(lt[:, 0])
            lref = lead_abs[0] + np.zeros((nb, 1))
            for d in range(1, n_deg):
                wv += lt[d] * pw[n0:n1, d, None, None]
                lref += lead_abs[d] * pref[n0:n1, d, None]
            lead = wv[:, 0]
            main = ns[n0:n1, None] >= n_seed  # past the lane's seed terms
            res = (np.abs(lead) <= _RES_GUARD * lref) & main
            res_at = res.any(axis=1).tolist()
            resonant = any(res_at)
            if resonant:
                compat = np.zeros((nb, lanes.size), dtype=bool)
                bad = np.zeros((nb, lanes.size), dtype=bool)
            wx = wv[:, 1:] * nxd
            seeding = int(n_seed.max()) - n0
            # term n0 + i goes to row nb - 1 - i, above the carried window
            h = np.empty((nb + span + 1, lanes.size))
            h[nb:] = window
            t = np.empty((used, lanes.size))
            for i in range(nb):
                r = nb - 1 - i
                np.multiply(wx[i], h[r + 1:r + 1 + used], out=t)
                rhs = np.add.reduce(t, axis=0, initial=0.0, out=h[r])
                if res_at[i]:
                    ok = np.abs(rhs) <= _COMPAT_TOL * (
                        np.add.reduce(np.abs(t), axis=0, initial=0.0) + 1e-300)
                    compat[i], bad[i] = res[i] & ok, res[i] & ~ok
                np.divide(rhs, lead[i], out=rhs)
                if res_at[i]:
                    rhs[res[i]] = 0.0
                if i < seeding:
                    np.copyto(h[r], seed_b[n0 + i], where=~main[i])
            window = h[:span + 1]

            # row j of dsum and tails: the state after j terms of the block;
            # cumsum adds in the reference order
            terms = h[nb - 1::-1]
            dsum = np.empty((nb + 1, derivs + 1, lanes.size))
            dsum[0] = ds
            np.multiply(ff[n0:n1, :, None], terms[:, None], out=dsum[1:])
            np.cumsum(dsum, axis=0, out=dsum)
            tails = np.empty((nb + 1, lanes.size))
            tails[0] = tail
            tails[1:] = np.where(main, np.abs(terms) * amp[n0:n1, None]
                                 / np.maximum(np.abs(dsum[1:, 0]), 1.0), 0.0)
            if tail_tol > 0.0:
                # run: the quiet terms up to each row, counted from the last
                # loud one, or from the quiet run carried in before the block
                idx = np.arange(nb)[:, None]
                loud = np.maximum.accumulate(
                    np.where((tails[1:] <= tail_tol) & main, -1 - quiet, idx), axis=0)
                run = idx - loud
                stop = (run > span + 2) & (ns[n0:n1, None] > n_seed + 8)
                quiet = run[-1]
            else:
                stop = np.zeros((nb, lanes.size), dtype=bool)
            if resonant:
                stop |= bad
            hit = stop.any(axis=0)
            s = np.argmax(stop, axis=0)
            cols = np.arange(lanes.size)
            k = np.where(hit, s + 1, nb)  # terms each lane keeps
            if resonant:
                stopped_bad = bad[s, cols]
                k -= stopped_bad
                first = np.where(compat.any(axis=0), np.argmax(compat, axis=0), nb)
                flags = (flags | np.where(stopped_bad, FLAG_RESONANT_INCOMPATIBLE, 0)
                         | np.where(first < k, FLAG_RESONANT_COMPATIBLE, 0))
            ds, tail = dsum[k, :, cols].T, tails[k, cols]
            if (n1 - 1) % _RENORM_EVERY == 0:
                big = np.fmax.reduce(np.abs(np.concatenate((window, ds))), axis=0)
                sel = (big > 1e100) | ((big > 0.0) & (big < 1e-100))
                if sel.any():
                    sel &= ~hit & (n_seed < n1)
                    f = big[sel]
                    window[:, sel] /= f
                    ds[:, sel] /= f
                    slog[sel] += np.array([math.log(v) for v in f])
            if n1 > max_n:
                hit[:] = True
            # the next block ends where the live lanes' tails, decaying at
            # their rate over the last 8 terms, have been quiet for a span
            stride, live = max_n + 1, ~hit
            if (tail_tol > 0.0 and nb > 8 and live.any()
                    and np.all(n_seed[live] <= n1 - 9)):
                t1 = tails[-1, live]
                rate = (t1 / tails[-9, live]) ** 0.125
                quiet_now = t1 <= tail_tol
                if np.all(quiet_now | (rate < 1.0)):
                    steps = np.log(tail_tol / t1) / np.log(rate)
                    stride = int(np.ceil(np.max(steps, where=~quiet_now,
                                                initial=0.0))) + span + 4
            if hit.any():
                src = np.flatnonzero(hit)
                dst = lanes[src]
                for o, v in zip(out, (ds, slog, n0 + k - 1, flags, tail)):
                    o[..., dst] = v[..., src]
            state = [lanes, window, ds, slog, flags, quiet, tail,
                     seed_b, lt, nxd, n_seed]
            n0 = n1

    out_ds, out_slog, out_n, out_flags, out_tail = out
    if tail_tol > 0.0:
        # a nan tail (a nan offset or weight) counts as not converged
        out_flags |= np.where((out_n >= max_n) & ~(out_tail <= tail_tol),
                              FLAG_NONCONVERGED, 0)
    return out_ds.T, out_slog, out_n, out_flags, out_tail


def _falling(ns: np.ndarray, order: int) -> np.ndarray:
    """out[i, k] = n(n-1)..(n-k+1) at n = ns[i], multiplied up as the
    reference rollout does."""
    out = np.ones((ns.size, order + 1))
    for k in range(1, order + 1):
        out[:, k] = out[:, k - 1] * (ns - (k - 1))
    return out
