"""Deterministic system rosters shared across test modules.

Builders take an integer seed and hand back the same system every run, so
tests stay reproducible without freezing matrices into the source.
"""

import numpy as np

from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.transition import transition


# band edges of seeded systems with d = 2, 3 and 6 well-separated bands
SEEDED_BANDS = {
    2: ((0.4, 0.55), (1.6, 1.9)),
    3: ((0.3, 0.4), (0.8, 1.0), (1.8, 2.2)),
    6: ((0.2, 0.25), (0.35, 0.42), (0.6, 0.7), (1.0, 1.15), (1.6, 1.8), (2.6, 3.0)),
}


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_factor(rng, d, spread=0.9):
    """Well-conditioned factor with singular values in e^[-spread, spread]."""
    left = random_orthogonal(rng, d)
    right = random_orthogonal(rng, d)
    sv = np.exp(rng.uniform(-spread, spread, size=d))
    return left @ np.diag(sv) @ right


def random_periodic(seed, d, p, spread=0.9):
    rng = np.random.default_rng(seed)
    return MatrixSequence.periodic([random_factor(rng, d, spread) for _ in range(p)])


def separated_banded_diagonal(seed, d=3):
    """Seeded diagonal system with d spectral bands at edge ratio >= 1.5.

    Band centers grow by factors in [1.7, 2.4] while each band spans a
    factor of at most 1.05^2, keeping the gaps wide open.
    """
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.25, 0.45)
    width = rng.uniform(1.03, 1.05)
    entries = []
    for i in range(d):
        entries.append(ScalarSequence.seeded(int(rng.integers(1, 2**31)),
                                             (center / width, center * width)))
        center *= rng.uniform(1.7, 2.4)
    return MatrixSequence.diagonal(entries)


def mixed_kind_roster(count=25):
    """(name, system) pairs cycling through every kind with d in {1,2,3}."""
    roster = []
    for i in range(count):
        rng = np.random.default_rng(1000 + i)
        d = 1 + i % 3
        style = i % 6
        if style == 0:
            seq = MatrixSequence.constant(random_factor(rng, d, 0.7))
            name = f"constant-d{d}-{i}"
        elif style == 1:
            p = 2 + i % 3
            seq = MatrixSequence.periodic([random_factor(rng, d, 0.7) for _ in range(p)])
            name = f"periodic-d{d}-p{p}-{i}"
        elif style == 2:
            left = MatrixSequence.constant(random_factor(rng, d, 0.6))
            right = MatrixSequence.periodic([random_factor(rng, d, 0.6),
                                             random_factor(rng, d, 0.6)])
            seq = MatrixSequence.piecewise(left, right)
            name = f"piecewise-d{d}-{i}"
        elif style == 3:
            entries = [ScalarSequence.seeded(int(rng.integers(1, 2**31)),
                                             tuple(sorted(rng.uniform(0.4, 2.5, size=2))))
                       for _ in range(d)]
            seq = MatrixSequence.diagonal(entries)
            name = f"diagonal-d{d}-{i}"
        elif style == 4:
            diag = [ScalarSequence.periodic(list(rng.uniform(0.5, 2.0, size=2)))
                    for _ in range(d)]
            off = {(r, c): ScalarSequence.constant(float(rng.uniform(-0.8, 0.8)))
                   for r in range(d) for c in range(r + 1, d)}
            seq = MatrixSequence.upper_triangular(diag, off)
            name = f"triangular-d{d}-{i}"
        else:
            bands = []
            lo = 0.4
            for _ in range(d):
                hi = lo * rng.uniform(1.1, 1.4)
                bands.append((lo, hi))
                lo = hi * rng.uniform(1.3, 1.8)
            seq = MatrixSequence.seeded(int(rng.integers(1, 2**31)), tuple(bands))
            name = f"seeded-d{d}-{i}"
        roster.append((name, seq))
    return roster


# hard-system roster: constant A = Q T Q^T with exact Floquet points |T[k, k]|
ROSTER_DIMENSIONS = (2, 3, 6)
ROSTER_RATIOS = (1.5, 1.1, 1.02)
ROSTER_COUPLINGS = (0.1, 1e2, 1e4)


def hard_roster(seed):
    """(name, system, oracle points) for every hard constant system of a seed.

    Loops over d, ratio r, coupling c and the Jordan flag in that order;
    each system draws U = uniform(-1, 1, (d, d)) and then
    G = standard_normal((d, d)) from the roster's one ``default_rng(seed)``.
    T = diag(0.5 r^k) + c triu(U, 1); the Jordan variant sets
    T[0, 1] = max(1, c) and T[1, 1] = T[0, 0].  A = Q T Q^T with Q the Q
    factor of G, signs as numpy returns them.
    T is triangular, so the oracle, the sorted distinct |T[k, k]|, is
    exact; ``np.linalg.eigvals`` would split the Jordan pair by about 1e-8.
    """
    rng = np.random.default_rng(seed)
    roster = []
    for d in ROSTER_DIMENSIONS:
        for r in ROSTER_RATIOS:
            for c in ROSTER_COUPLINGS:
                for jordan in (False, True):
                    u = rng.uniform(-1.0, 1.0, (d, d))
                    g = rng.standard_normal((d, d))
                    t = np.diag(0.5 * r ** np.arange(d)) + c * np.triu(u, 1)
                    if jordan:
                        t[0, 1] = max(1.0, c)
                        t[1, 1] = t[0, 0]
                    q = np.linalg.qr(g)[0]
                    name = f"d{d}-r{r:g}-c{c:g}-{'jordan' if jordan else 'plain'}-s{seed}"
                    points = tuple(sorted(set(np.abs(np.diag(t)).tolist())))
                    roster.append((name, MatrixSequence.constant(q @ t @ q.T), points))
    return roster


def complex_pair_roster():
    """(name, system, has a complex pair) for the 300 systems
    ``random_periodic(5000 + 100 d + 10 p + i, d, p, spread=0.6)``, in the
    order of d, p and then i < 25.  The flag is True when the eigenvalues
    of the monodromy X(p, 0) include a complex pair."""
    roster = []
    for d in (2, 3, 6):
        for p in (1, 2, 3, 4):
            for i in range(25):
                seq = random_periodic(5000 + 100 * d + 10 * p + i, d, p, spread=0.6)
                monodromy = transition(seq, p, 0).to_matrix()
                pair = bool(np.any(np.linalg.eigvals(monodromy).imag != 0.0))
                roster.append((f"d{d}-p{p}-i{i}", seq, pair))
    return roster
