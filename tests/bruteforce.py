"""Brute-force oracles: slow, direct computations used to check the library.

Everything here recomputes quantities from first principles with dense
linear algebra. No log-scaling tricks, no doubling schemes, no code shared
with the package internals beyond pointwise sequence evaluation. Keep it
dumb; the whole point is independence.
"""

import numpy as np
import scipy.linalg

from dichospec.errors import SpectrumConsistencyError


def dense_transition(seq, m, n):
    """X(m, n) as a plain product of factors (or inverse factors)."""
    d = seq.dimension
    x = np.eye(d)
    if m >= n:
        for j in range(n, m):
            x = seq.evaluate(j) @ x
    else:
        for j in range(m, n):
            x = x @ scipy.linalg.inv(seq.evaluate(j))
    return x


def window_norm(seq, m, g, gamma=1.0):
    """Spectral norm of the gamma-scaled window product X(m+g, m)."""
    x = dense_transition(seq, m + g, m)
    return scipy.linalg.svdvals(x)[0] / gamma ** g


def norm_scan(seq, lo, hi):
    """max over n in [lo, hi] of max(||A(n)||, ||A(n)^-1||), dense SVD."""
    worst = 0.0
    worst_n = lo
    for n in range(lo, hi + 1):
        a = seq.evaluate(n)
        s = scipy.linalg.svdvals(a)
        value = max(s[0], 1.0 / s[-1])
        if value > worst:
            worst, worst_n = value, n
    return worst, worst_n


def orbit_lognorm_table(seq, xi, lo, hi):
    """log ||X(n,0) xi|| for n in [lo, hi], renormalized stepwise.

    Forward steps multiply by A(n); backward steps solve A(n) x(n) = x(n+1).
    Returns an array indexed by n - lo.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty(hi - lo + 1)
    v = xi / np.linalg.norm(xi)
    acc = np.log(np.linalg.norm(xi))
    out[-lo] = acc
    run, w = acc, v
    for n in range(0, hi):
        w = seq.evaluate(n) @ w
        nrm = np.linalg.norm(w)
        run += np.log(nrm)
        w /= nrm
        out[n + 1 - lo] = run
    run, w = acc, v
    for n in range(0, lo, -1):
        w = scipy.linalg.solve(seq.evaluate(n - 1), w)
        nrm = np.linalg.norm(w)
        run += np.log(nrm)
        w /= nrm
        out[n - 1 - lo] = run
    return out


def qr_walk(seq, lo, hi):
    """Frames F(lo)..F(hi) and factors U(lo)..U(hi-1) of a QR sweep, n by n.

    F(0) is the identity.  Forward of zero U(n) is the positive-diagonal R
    of A(n) F(n); behind zero the walk runs on A(n-1)^-1 and inverts R, so
    A(n) F(n) = F(n+1) U(n) across the whole window.
    """
    def qr_positive(a):
        q, r = np.linalg.qr(a)
        s = np.sign(np.diag(r))
        s[s == 0] = 1.0
        return q * s, s[:, None] * r

    d = seq.dimension
    frames = np.empty((hi - lo + 1, d, d))
    factors = np.empty((hi - lo, d, d))
    frames[-lo] = np.eye(d)
    for n in range(0, hi):
        q, r = qr_positive(seq.evaluate(n) @ frames[n - lo])
        frames[n + 1 - lo] = q
        factors[n - lo] = r
    for n in range(0, lo, -1):
        q, r = qr_positive(seq.inverse_at(n - 1) @ frames[n - lo])
        frames[n - 1 - lo] = q
        factors[n - 1 - lo] = np.linalg.inv(r)
    return frames, factors


def bohl_enumerate(lognorms, base, window, gap_min, tail_fraction, two_sided):
    """Upper/lower Bohl estimates by direct enumeration over (m, g).

    ``lognorms[base + n]`` must be log ||X(n,0) xi||; offsets m run over
    [0, window - g], or [-window, window - g] when two_sided.
    """
    gaps = np.arange(gap_min, window + 1)
    max_rates = np.empty(len(gaps))
    min_rates = np.empty(len(gaps))
    for idx, g in enumerate(gaps):
        lo_m = -window if two_sided else 0
        ratios = [(lognorms[base + m + g] - lognorms[base + m]) / g
                  for m in range(lo_m, window - g + 1)]
        max_rates[idx] = np.exp(max(ratios))
        min_rates[idx] = np.exp(min(ratios))
    tail = max(1, int(round(tail_fraction * len(gaps))))
    return float(min_rates[-tail:].min()), float(max_rates[-tail:].max())


def scalar_bohl_enumerate(u, window, gap_min, tail_fraction, two_sided=True):
    """Scalar Bohl pair from direct window products of |u|."""
    lo = -window if two_sided else 0
    logs = np.array([np.log(abs(u.value_at(n))) for n in range(lo, window)])
    cum = np.concatenate([[0.0], np.cumsum(logs)])  # cum[i] = sum over [lo, lo+i)
    gaps = np.arange(gap_min, window + 1)
    max_rates = np.empty(len(gaps))
    min_rates = np.empty(len(gaps))
    for idx, g in enumerate(gaps):
        sums = (cum[g:] - cum[:-g]) / g
        max_rates[idx] = np.exp(sums.max())
        min_rates[idx] = np.exp(sums.min())
    tail = max(1, int(round(tail_fraction * len(gaps))))
    return float(min_rates[-tail:].min()), float(max_rates[-tail:].max())


def general_exponents_enumerate(seq, window, gap_min, tail_fraction, two_sided=False):
    """Senior/junior exponents from dense per-window products. O(window^2) SVDs.

    The smallest singular value of X(m+g, m) is evaluated as the reciprocal
    largest singular value of the dense inverse product X(m, m+g): once the
    window product gets ill conditioned, sigma_min of the forward
    accumulation drops below its rounding noise floor, while sigma_max of
    either orientation stays accurate.
    """
    gaps = np.arange(gap_min, window + 1)
    senior = np.empty(len(gaps))
    junior = np.empty(len(gaps))
    lo = -window if two_sided else 0
    for idx, g in enumerate(gaps):
        top, inv_top = -np.inf, -np.inf
        for m in range(lo, window - g + 1):
            top = max(top, scipy.linalg.svdvals(dense_transition(seq, m + g, m))[0])
            inv_top = max(inv_top, scipy.linalg.svdvals(dense_transition(seq, m, m + g))[0])
        senior[idx] = top ** (1.0 / g)
        junior[idx] = (1.0 / inv_top) ** (1.0 / g)
    tail = max(1, int(round(tail_fraction * len(gaps))))
    return float(junior[-tail:].min()), float(senior[-tail:].max())


def floquet_moduli(seq, p):
    """Sorted distinct |lambda|^(1/p) of the dense monodromy matrix."""
    lam = scipy.linalg.eigvals(dense_transition(seq, p, 0))
    moduli = np.sort(np.abs(lam)) ** (1.0 / p)
    points = []
    for m in moduli:
        if not points or abs(m - points[-1]) > 1e-12 * max(1.0, points[-1]):
            points.append(float(m))
    return points


def intersection_by_complements(a, b, dim, rtol=1e-8):
    """Basis of span(a) & span(b) for one pair, one SVD call at a time.

    Each span gets an orthonormal basis (relative cutoff 1e-12) and then
    the orthogonal complement of that basis; the intersection is the
    nullspace (relative cutoff rtol) of the stacked complement rows.
    """
    def complement(x):
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
        if rank == 0:
            return np.eye(dim)
        return np.linalg.svd(u[:, :rank], full_matrices=True)[0][:, rank:]

    rows = np.vstack([complement(a).T, complement(b).T])
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows)
    significant = np.zeros(dim, dtype=bool)
    if s[0] > 0:
        significant[: s.size] = s > rtol * s[0]
    return vt.T[:, ~significant]


def restricted_by_intersection(seq, r_below, r_above, window, burn_in=128):
    """Fiber frame at time 0 and k x k table of a fiber, one time at a time.

    The fiber between gap ranks r_below and r_above is framed by two
    partial QR walks: forward on the factors for the d - r_below most
    amplified directions, backward on the inverses for the r_above most
    contracted ones, each seeded from the SVD of a short product at its
    end of the window.  The fiber frame of every time in [-window, window]
    is the intersection of the two frames there, and the table entry at n
    is F(n+1)^T A(n) F(n).  A one-dimensional fiber's frame is turned so
    that its largest-magnitude entry is positive; wider frames keep the
    basis the intersection happens to give.
    """
    def qr_positive(a):
        q, r = np.linalg.qr(a)
        s = np.sign(np.diag(r))
        s[s == 0] = 1.0
        return q * s

    d = seq.dimension
    w, burn = window, burn_in
    log_m = max(np.log(max(norm_scan(seq, -w - burn, w + burn)[0], 1.0)), 0.05)
    binit = max(4, min(int(16.0 / log_m), burn))
    first, last = np.eye(d), np.eye(d)
    for j in range(binit):
        first = seq.evaluate(-w - burn + j) @ first
        last = seq.evaluate(w + burn - binit + j) @ last
    u = scipy.linalg.svd(first)[0][:, : d - r_below]
    s = scipy.linalg.svd(last)[2].T[:, d - r_above:]
    off = burn - binit
    unstable, stable = {}, {}
    for n in range(-w - off, w + 1):
        unstable[n] = u
        u = qr_positive(seq.evaluate(n) @ u)
    for n in range(w + off, -w - 1, -1):
        stable[n] = s
        s = qr_positive(scipy.linalg.solve(seq.evaluate(n - 1), s))
    frames = {n: intersection_by_complements(unstable[n], stable[n], d)
              for n in range(-w, w + 1)}
    if r_above - r_below == 1:
        frames = {n: f * np.sign(f[np.argmax(np.abs(f[:, 0])), 0]) for n, f in frames.items()}
    table = np.array([frames[n + 1].T @ seq.evaluate(n) @ frames[n] for n in range(-w, w)])
    return frames[0], table


def spectrum_by_merging(keys, verdicts, d, m_hat):
    """Intervals, gap ranks and gap certificates assembled from sorted probes.

    The assembly ``estimate_spectrum`` used before its level-set pass:
    raw brackets (the certificates around each in-spectrum run, or the
    grid edge, and each adjacent certificate pair of different ranks),
    merged where they overlap, then per-gap certificates re-collected and
    intervals merged again wherever one rank sits on both sides.
    Intervals come back as (a, b, low_confidence) tuples.
    """
    if not any(v.is_certificate for v in verdicts):
        return [(keys[0], keys[-1], True)], (0, d), ()
    raw = []
    i = 0
    while i < len(keys):
        if verdicts[i].outcome == "in_spectrum":
            j = i
            while j + 1 < len(keys) and verdicts[j + 1].outcome == "in_spectrum":
                j += 1
            lowc = False
            if i > 0:
                a = keys[i - 1]
            else:
                a, lowc = keys[i], True
            if j < len(keys) - 1:
                b = keys[j + 1]
            else:
                b, lowc = keys[j], True
            raw.append([a, b, lowc])
            i = j + 1
        else:
            i += 1
    for (x, vx), (y, vy) in zip(zip(keys, verdicts), zip(keys[1:], verdicts[1:])):
        if vx.is_certificate and vy.is_certificate and vx.rank != vy.rank:
            raw.append([x, y, False])
    raw.sort(key=lambda r: r[0])

    merged = []
    for r in raw:
        if merged and r[0] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], r[1])
            merged[-1][2] = True
        else:
            merged.append(list(r))

    def gap_certs(lo_edge, hi_edge):
        out = []
        for k, v in zip(keys, verdicts):
            if not v.is_certificate:
                continue
            if lo_edge is not None and k < lo_edge:
                continue
            if hi_edge is not None and k > hi_edge:
                continue
            if any(iv[0] < k < iv[1] for iv in merged):
                continue
            out.append(v)
        return out

    while True:
        edges = []
        prev = None
        for iv in merged:
            edges.append((prev, iv[0]))
            prev = iv[1]
        edges.append((prev, None))
        ranks, reps = [], []
        for lo_edge, hi_edge in edges:
            certs = gap_certs(lo_edge, hi_edge)
            found = sorted({v.rank for v in certs})
            if len(found) > 1:
                raise SpectrumConsistencyError(f"mixed certificate ranks {found}")
            if not found:
                ranks.append(None)
                reps.append(None)
            else:
                ranks.append(found[0])
                reps.append(max(certs, key=lambda v: (v.margin, -v.gamma)))
        if ranks[0] is None:
            ranks[0] = 0
            merged[0][2] = True
        if ranks[-1] is None:
            ranks[-1] = d
            merged[-1][2] = True
        if any(r is None for r in ranks):
            raise SpectrumConsistencyError("interior resolvent gap holds no certificate")
        bad = next((idx for idx in range(len(ranks) - 1)
                    if ranks[idx] >= ranks[idx + 1]), None)
        if bad is None:
            if ranks[0] != 0 or ranks[-1] != d:
                raise SpectrumConsistencyError("edge gap ranks differ from 0..d")
            break
        if ranks[bad] > ranks[bad + 1]:
            raise SpectrumConsistencyError("certificate rank decreases")
        if bad + 1 < len(merged):
            merged[bad][1] = merged[bad + 1][1]
            merged[bad][2] = True
            del merged[bad + 1]
        elif bad >= 1:
            merged[bad - 1][1] = merged[bad][1]
            merged[bad - 1][2] = True
            del merged[bad]
        else:
            raise SpectrumConsistencyError("single interval with equal ranks on both sides")

    intervals = []
    for i, (a, b, lowc) in enumerate(merged):
        lowc = lowc or any(v is not None and v.low_confidence for v in reps[i: i + 2])
        ca, cb = max(a, 1.0 / m_hat), min(b, m_hat)
        if ca > cb:
            ca = cb = min(max(a, 1.0 / m_hat), m_hat)
            lowc = True
        intervals.append((ca, cb, lowc))
    return intervals, tuple(ranks), tuple(reps)
