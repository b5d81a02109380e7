"""Periodic systems with complex monodromy pairs against the Floquet oracle.

Each system of :func:`systems.complex_pair_roster` is classified by
:func:`test_roster.classify` against :func:`periodic_spectrum_oracle`.
On a rotating pair a one-dimensional restricted factor grows like |λ|^g
times a bounded oscillation, so a decay fit can split the pair's one
Floquet point into two intervals about 1e-3 apart (a false gap).  Every
case carries the category it had when the roster was pinned; false gaps,
silent merges and misplaced intervals are strict xfails naming it, so a
fix turns them into XPASS failures and removes their marks.  The roster
is never re-seeded or trimmed.
"""
from collections import Counter

import pytest

from dichospec.dichotomy import estimate_spectrum, periodic_spectrum_oracle

from systems import complex_pair_roster
from test_roster import classify

# one letter per system, i = 0..24, per (d, p)
PINNED = {
    (2, 1): "cccccccccccccccccccgccccs",
    (2, 2): "ccccccccccccccccgcccccccc",
    (2, 3): "ccccccgccgccccccccccccccc",
    (2, 4): "cgcccccccgcccgcggcccccccc",
    (3, 1): "gccccggccccccccccccgccgcc",
    (3, 2): "gcfcccccccgccccgcccgcccgg",
    (3, 3): "cccccccgcccgccccccgccgccc",
    (3, 4): "cccgccgccgccgcccccccgcccc",
    (6, 1): "gggcccccgccccgccgccccsfgc",
    (6, 2): "ccccggggcggcgcccggcggcccg",
    (6, 3): "gcccgcfgcccgcmcfccgccggcc",
    (6, 4): "gccgmcgccgccccgggcccgcggc",
}
CATEGORIES = {"c": "correct", "g": "false-gap", "f": "flagged-merge",
              "s": "silent-merge", "m": "misplaced"}
KNOWN_DEFECTS = ("false-gap", "silent-merge", "misplaced")
ROSTER = complex_pair_roster()
PINNED_CATEGORIES = [CATEGORIES[letter] for letters in PINNED.values() for letter in letters]


def test_pinned_counts_per_kind_of_monodromy():
    # the table of the roster as measured when it was pinned: monodromies
    # with a complex pair, then those with real eigenvalues only
    tally = Counter((pair, category) for (_, _, pair), category in zip(ROSTER, PINNED_CATEGORIES))
    assert len(ROSTER) == len(PINNED_CATEGORIES) == 300
    assert {c: tally[True, c] for c in CATEGORIES.values()} == {
        "correct": 141, "false-gap": 65, "flagged-merge": 4, "silent-merge": 1, "misplaced": 2}
    assert {c: tally[False, c] for c in CATEGORIES.values()} == {
        "correct": 86, "false-gap": 0, "flagged-merge": 0, "silent-merge": 1, "misplaced": 0}


def _case(name, seq, pinned):
    marks = ()
    if pinned in KNOWN_DEFECTS:
        marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=pinned)
    return pytest.param(seq, pinned, id=name, marks=marks)


@pytest.mark.parametrize("seq,pinned", [_case(name, seq, pinned) for (name, seq, _), pinned
                                        in zip(ROSTER, PINNED_CATEGORIES)])
def test_periodic_system_against_its_floquet_points(seq, pinned):
    category = classify(estimate_spectrum(seq), periodic_spectrum_oracle(seq))
    if pinned == "flagged-merge":
        assert category in ("flagged-merge", "correct")
    else:
        assert category == "correct"
