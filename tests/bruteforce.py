"""Brute-force oracles: slow, direct computations used to check the library.

Everything here recomputes quantities from first principles with dense
linear algebra. No log-scaling tricks, no doubling schemes, no code shared
with the package internals beyond pointwise sequence evaluation. Keep it
dumb; the whole point is independence.  The exceptions are earlier
constructions kept as references: ``split_candidate_by_rank_sweeps``
and ``refit_verdict`` reuse a ``DichotomyAnalyzer``'s window data, and
``max_log_norm_of_every_offset`` a ``WindowProducts``' products,
``orbit_chunk_walk`` takes its chunk length from the library,
``envelopes_by_gap`` is the per-gap loop ``bohl._envelopes`` once ran, and
``fiber_containment_by_fiber`` (with ``fiber_rows_by_sweep``) is the
per-fiber loop of ``verify_fiber_containment`` on the library's orbits
and envelopes.
"""

import decimal
import math

import numpy as np
import scipy.linalg

from dichospec import containment, dichotomy
from dichospec.bohl import _tail_rates, _unit
from dichospec.bundles import bundle_fibers, restricted_fiber_system
from dichospec.dichotomy import _candidate, _family_seeds
from dichospec.errors import SpectrumConsistencyError
from dichospec.linalg import batched_spectral_norm, frame_sweep
from dichospec.transition import _chunk_length, orbit_lognorms


def rng_at(seed, n):
    """numpy's own generator of the seeded stream at time index n."""
    zigzag = 2 * n if n >= 0 else -2 * n - 1
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(zigzag,)))


def scalar_value_by_index(u, n):
    """u(n) of a ScalarSequence, evaluated alone by the rule of its kind."""
    if u.kind == "constant":
        return u.value
    if u.kind == "periodic":
        return u.values[n % len(u.values)]
    if u.kind == "piecewise":
        side = u.negative if n < 0 else u.nonnegative
        return side[n % len(side)]
    if u.kind == "seeded-random":
        return math.exp(rng_at(u.seed, n).uniform(math.log(u.band[0]), math.log(u.band[1])))
    return float(u.table[n - u.start])  # tabulated


def matrix_window_by_index(seq, lo, hi):
    """A(lo)..A(hi) of a seeded-random, diagonal or upper-triangular
    MatrixSequence, one generator or scalar evaluation per index."""
    d = seq.dimension
    out = np.zeros((hi - lo + 1, d, d))
    for k, n in enumerate(range(lo, hi + 1)):
        if seq.kind == "seeded-random":
            rng = rng_at(seq.seed, n)
            diag = np.exp([rng.uniform(math.log(a), math.log(b)) for a, b in seq.bands])
            noise = rng.uniform(-1.0, 1.0, (d, d))
            out[k] = np.diag(diag) + seq.eps * noise
            continue
        entries = seq.entries if seq.kind == "diagonal" else seq.diagonal
        for i, entry in enumerate(entries):
            out[k, i, i] = scalar_value_by_index(entry, n)
        for i, j, entry in seq.offdiagonal or ():
            out[k, i, j] = scalar_value_by_index(entry, n)
    return out


def max_log_norm_of_every_offset(wp, g):
    """WindowProducts.max_log_norm with an SVD at every offset."""
    cores, logs = wp.products(g)
    vals = np.log(batched_spectral_norm(cores)) + logs
    pos = int(np.argmax(vals))
    return float(vals[pos]), pos


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


def orbit_walk(seq, xi, span):
    """``orbit_lognorms(seq, xi, span).lognorms`` by the walk that allocates
    every step: a fresh product, norms and quotient per factor.

    The steps and inverses are the library's, but the library carries the
    orbit through chunks of prefix products, so the two agree only up to
    rounding; ``orbit_chunk_walk`` is the walk that equals it bit for bit.
    """
    lo, hi = span
    xi = np.asarray(xi, dtype=float)
    block = xi.reshape(-1, 1) if xi.ndim != 2 else xi
    nrm0 = np.sqrt(np.einsum("ij,ij->j", block, block))
    u = block / nrm0
    out = np.empty((hi - lo + 1, block.shape[1]))
    out[-lo] = np.log(nrm0)
    walks = []
    if hi > 0:
        walks.append((seq.window(0, hi - 1), out[-lo:]))
    if lo < 0:
        walks.append((np.linalg.inv(seq.window(lo, -1))[::-1], out[-lo::-1]))
    for maps, part in walks:
        v = u
        for k, a in enumerate(maps, start=1):
            v = a @ v
            nrm = np.sqrt(np.einsum("ij,ij->j", v, v))
            v = v / nrm
            part[k] = nrm
        np.log(part[1:], out=part[1:])
        np.cumsum(part, axis=0, out=part)
    return out[:, 0] if xi.ndim != 2 else out


def orbit_chunk_walk(seq, xi, span):
    """``orbit_lognorms(seq, xi, span).lognorms`` by the chunked walk written
    one chunk and one step at a time, allocating every prefix, product and
    norm.

    Chunk length, products, power-of-two scalings and summation order are
    the library's, so the result should equal it bit for bit; only the
    batching across chunks and the buffers differ.
    """
    lo, hi = span
    xi = np.asarray(xi, dtype=float)
    block = xi.reshape(-1, 1) if xi.ndim != 2 else xi
    nrm0 = np.sqrt(np.einsum("ij,ij->j", block, block))
    u = block / nrm0
    out = np.empty((hi - lo + 1, block.shape[1]))
    out[-lo] = np.log(nrm0)
    walks = []
    if hi > 0:
        walks.append((seq.window(0, hi - 1), out[-lo:]))
    if lo < 0:
        walks.append((np.linalg.inv(seq.window(lo, -1))[::-1], out[-lo::-1]))
    for maps, part in walks:
        k = _chunk_length(maps)
        v, start = u, np.zeros(block.shape[1], dtype=np.int64)
        for c0 in range(0, len(maps), k):
            # prefix products of the chunk, each scaled to a max |entry| in
            # [1/2, 1); a one-step chunk keeps its map as given
            prefixes, prev, total = [], None, 0
            for a in maps[c0:c0 + k]:
                p = a if prev is None else a @ prev
                if k > 1:
                    _, e = np.frexp(np.abs(p).max())
                    p, total = np.ldexp(p, -e), total + int(e)
                prefixes.append((p, total))
                prev = p
            for j, (p, total) in enumerate(prefixes):
                w = p @ v
                _, e = np.frexp(np.abs(w).max(axis=0))
                w = np.ldexp(w, -e)
                e = e + total + start
                part[c0 + j + 1] = e * math.log(2.0) + 0.5 * np.log(np.einsum("ij,ij->j", w, w))
            v, start = w, e
        part[1:] += part[0]
    return out[:, 0] if xi.ndim != 2 else out


def orbit_walk_decimal(seq, xi, span, digits=40):
    """``orbit_lognorms(seq, xi, span).lognorms`` for one vector by a walk
    in ``digits``-digit decimal arithmetic.

    The maps are the library's floats (the forward window and numpy's
    inverses of the backward one), converted exactly, so the result
    differs from the exact orbit of those maps only in the 40th digit.
    """
    lo, hi = span
    ctx = decimal.Context(prec=digits)
    xi = [ctx.create_decimal(float(x)) for x in np.asarray(xi, dtype=float)]
    out = np.empty(hi - lo + 1)
    walks = []
    if hi > 0:
        walks.append((seq.window(0, hi - 1), range(-lo + 1, hi - lo + 1)))
    if lo < 0:
        walks.append((np.linalg.inv(seq.window(lo, -1))[::-1], range(-lo - 1, -1, -1)))
    nrm0 = ctx.sqrt(sum(ctx.multiply(x, x) for x in xi))
    start = ctx.ln(nrm0)
    out[-lo] = float(start)
    for maps, rows in walks:
        v, run = [ctx.divide(x, nrm0) for x in xi], start
        for a, row in zip(maps, rows):
            v = [sum(ctx.multiply(ctx.create_decimal(float(a_ij)), x) for a_ij, x in zip(a_i, v))
                 for a_i in a]
            nrm = ctx.sqrt(sum(ctx.multiply(x, x) for x in v))
            v = [ctx.divide(x, nrm) for x in v]
            run = ctx.add(run, ctx.ln(nrm))
            out[row] = float(run)
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


def envelopes_by_gap(lognorms, gaps):
    """bohl._envelopes as one min and one max over all offsets per gap,
    for one orbit (len,) or one orbit per column (len, S)."""
    lo = np.empty((len(gaps),) + lognorms.shape[1:])
    hi = np.empty_like(lo)
    for i, g in enumerate(gaps):
        diffs = lognorms[g:] - lognorms[:-g]
        lo[i] = diffs.min(axis=0) / g
        hi[i] = diffs.max(axis=0) / g
    return np.exp(lo), np.exp(hi)


def fiber_containment_by_fiber(seq, spectrum, *, samples_per_fiber=20, tolerance=None,
                               seed=0, params=None):
    """verify_fiber_containment's report as its per-fiber loop made it:
    one block per fiber, every column swept as given; a one-dimensional
    fiber is one row, on its basis vector, and draws no sample."""
    base_tol = containment._base_tolerance(tolerance, spectrum)
    params = params or containment.BohlParams()
    rng = np.random.default_rng(seed)
    rows = []
    for fiber in bundle_fibers(spectrum):
        coeffs = (np.ones((1, 1)) if fiber.dimension == 1 else
                  containment._unit_samples(rng, samples_per_fiber, fiber.dimension))
        rows += fiber_rows_by_sweep(seq, spectrum, fiber, coeffs, base_tol, params)
    return containment._report(seq, "fiber-containment", rows, base_tol, None)


def fiber_rows_by_sweep(seq, spectrum, fiber, coeffs, base_tol, params):
    """Rows of the vectors with coordinates ``coeffs`` (one per row) in
    ``fiber``'s basis, or in its tracked frame off the diagonal kind, from
    one orbit sweep of them all."""
    interval = spectrum.intervals[fiber.index - 1]
    a, b = interval.a, interval.b
    if seq.kind == "diagonal":
        basis, system = fiber.basis, seq
    else:
        basis, system = restricted_fiber_system(seq, spectrum, fiber.index,
                                                window=params.window)
    xis = np.array([basis @ c for c in coeffs])
    vecs = xis if system is seq else coeffs
    lower, upper, spread = _tail_rates(orbit_lognorms(
        system, _unit(vecs.T), params.orbit_span()).lognorms, params)
    tol = base_tol + spread
    margin = np.minimum(lower - a + tol, b + tol - upper)
    return [containment.SampleRow(
        label=f"fiber {fiber.index} sample {s}", fiber_index=fiber.index,
        xi=tuple(xi), lower=lo, upper=hi, target=(a, b), tolerance=t,
        margin=m, passed=m >= 0.0)
        for s, (xi, lo, hi, t, m) in enumerate(zip(
            xis, lower.tolist(), upper.tolist(), tol.tolist(), margin.tolist()), start=1)]


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
    is F(n+1)^T A(n) F(n).  A fiber with r_below = 0 is the stable walk's
    own frame and one with r_above = d the unstable walk's: intersecting
    with the whole space would take a complement of a complement, which
    costs about eps times the condition of the splitting.  A
    one-dimensional fiber's frame is turned so that its largest-magnitude
    entry is positive; wider frames keep the basis the intersection
    happens to give.
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
    if r_below == 0:
        frames = {n: stable[n] for n in range(-w, w + 1)}
    elif r_above == d:
        frames = {n: unstable[n] for n in range(-w, w + 1)}
    else:
        frames = {n: intersection_by_complements(unstable[n], stable[n], d)
                  for n in range(-w, w + 1)}
    if r_above - r_below == 1:
        frames = {n: f * np.sign(f[np.argmax(np.abs(f[:, 0])), 0]) for n, f in frames.items()}
    table = np.array([frames[n + 1].T @ seq.evaluate(n) @ frames[n] for n in range(-w, w)])
    return frames[0], table


def split_candidate_by_rank_sweeps(analyzer, s):
    """Rank-s splitting of a ``DichotomyAnalyzer`` from two sweeps of its own.

    The construction the analyzer used before all split ranks shared one
    flag pair: the stable family is swept backward on the inverses from
    +off, seeded with the s most contracted directions (most contracted
    last), and the unstable family forward on the factors from -off,
    seeded with the d - s most amplified.  It reuses the analyzer's window,
    seeds, fit gaps and table-entry builder, so it checks only that slicing
    one flag pair gives the same families and restricted factors.
    """
    d, ext, n_win = analyzer.seq.dimension, analyzer.params.extent, analyzer.params.window
    factors = analyzer.seq.window(-ext, ext - 1)
    inverses = np.linalg.inv(factors)
    binit, amplified, contracted = _family_seeds(
        factors, analyzer.m_hat, analyzer.params.burn_in // 2)
    off = ext - binit
    # flipped, qs[i] sits at time i - n_win; qu[i] sits at time i - off
    qs, gs = frame_sweep(inverses[ext - n_win: ext + off][::-1], contracted[:, d - s:])
    qs, gs = qs[::-1], gs[::-1]
    qu, ru = frame_sweep(factors[ext - off: ext + n_win], amplified[:, : d - s])
    return _candidate(s, qs[n_win], qu[off], np.linalg.inv(gs[:2 * n_win]),
                      np.linalg.inv(ru[off - n_win:])[::-1], *analyzer.params.fit_gaps())


def refit_verdict(analyzer, gamma):
    """``analyzer.verdict(gamma)`` with every decay law refitted at gamma.

    The verdict before the analyzer kept a per-rank table: for each tried
    rank it fits the scaled envelopes env - g log(gamma) (stable) and
    env + g log(gamma) (unstable) by least squares over the slope gaps,
    then applies the same gates in the same rank order.  It reuses the
    analyzer's rates and table envelopes, so it checks only that
    reading the table equals refitting, up to rounding.
    """
    gaps, mask = analyzer.params.fit_gaps()
    gaps = gaps.astype(float)
    d, lg = analyzer.seq.dimension, math.log(gamma)

    def fit(values):
        xs, ys = gaps[mask], values[mask]
        (intercept, slope), *_ = np.linalg.lstsq(np.stack([np.ones_like(xs), xs], axis=1), ys,
                                                 rcond=None)
        residual = float(np.max(np.abs(ys - (intercept + slope * xs))))
        return math.exp(slope), residual, math.exp(min(float(np.max(values - slope * gaps)), 700.0))

    s0 = int(np.sum(analyzer._forward_rates < lg))
    u0 = int(np.sum(analyzer._backward_rates < -lg))
    near = min(float(np.min(np.abs(analyzer._forward_rates - lg))),
               float(np.min(np.abs(analyzer._backward_rates + lg))))
    boundary_band = near <= -math.log(dichotomy.RHO_SPLIT)
    ranks = sorted({min(d, max(0, r)) for r in (s0 - 1, s0, s0 + 1, d - u0)},
                   key=lambda r: (abs(r - s0), r))
    certified, best, tangent = [], math.inf, False
    for s in ranks:
        cand = analyzer._table[s]
        fits = []
        if s > 0:
            fits.append(fit(cand.stable_env - gaps * lg))
        if s < d:
            fits.append(fit(cand.unstable_env + gaps * lg))
        rho = max(f[0] for f in fits)
        residual = max(f[1] for f in fits)
        k_const = max(1.0, *(f[2] for f in fits))
        violation = (max(0.0, rho - (1.0 - dichotomy.DELTA_FIT))
                     + max(0.0, residual - dichotomy.RESID_MAX))
        decay_ok = violation == 0.0
        angle_ok = not 0 < s < d or cand.angle >= dichotomy.THETA_MIN
        if not angle_ok:
            tangent = tangent or decay_ok
            violation += dichotomy.THETA_MIN - cand.angle
        if decay_ok and angle_ok:
            certified.append((s, rho, residual, k_const))
        best = min(best, violation)
    if certified:
        s, rho, residual, k_const = certified[0]
        return dichotomy.DichotomyVerdict(
            gamma=gamma, outcome="certificate", window=analyzer.params.window, rank=s,
            K=k_const, rho=rho, residual=residual, margin=(1.0 - dichotomy.DELTA_FIT) - rho,
            low_confidence=boundary_band or len(certified) > 1)
    reason = ("splitting-degenerate" if s0 + u0 != d
              else "transversality-lost" if tangent else "decay-fit-failed")
    return dichotomy.DichotomyVerdict(gamma=gamma, outcome="in_spectrum",
                                      window=analyzer.params.window, reason=reason,
                                      margin=best, low_confidence=boundary_band)


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
