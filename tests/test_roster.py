"""Hard constant systems against exact Floquet oracles.

Each system of :func:`systems.hard_roster` (Jordan blocks, strongly
non-normal factors, nearly touching points, d up to 6) has the distinct
|T[k, k]| of its triangular form as its exact spectrum.  An estimate is
classified by its interval count against those oracle points:

* ``refused``: :class:`SingularMatrixError` is raised;
* ``false-gap``: more intervals than points;
* ``flagged-merge``: fewer intervals than points, and every interval that
  holds two or more points is low-confidence;
* ``silent-merge``: fewer intervals than points, otherwise;
* ``correct``: one interval per point, each point in its own interval;
* ``misplaced``: one interval per point, but some point outside its own.

A point lies in an interval when it is within ``POINT_RTOL`` relative of
it.  Every case carries the category it had when the roster was pinned.
Failing categories are strict xfails naming it, so a fix turns them into
XPASS failures and removes their marks; the roster itself is never
re-seeded or trimmed.
"""
import numpy as np
import pytest

from dichospec.dichotomy import estimate_spectrum, periodic_spectrum_oracle
from dichospec.errors import SingularMatrixError
from dichospec.sequences import MatrixSequence

from systems import ROSTER_DIMENSIONS, hard_roster, random_periodic

POINT_RTOL = 2e-3

# one letter per roster system in generator order: per (seed, d), one group
# per ratio r in (1.5, 1.1, 1.02), each holding c = 0.1, 1e2, 1e4 without
# and then with a Jordan block
PINNED = {
    (0, 2): "cgccsc cgccsc cgscsc",
    (0, 3): "cgsfss cgssfs cgffss",
    (0, 6): "cgssrr ccfrrr cfrrrr",
    (1, 2): "cgccsc cgscsc cgscsc",
    (1, 3): "cgsssr cgsfsr cgfssr",
    (1, 6): "cgffrr ccsfrr ccrrrr",
}
CATEGORIES = {"c": "correct", "g": "false-gap", "s": "silent-merge",
              "f": "flagged-merge", "r": "refused"}
KNOWN_DEFECTS = ("false-gap", "silent-merge")


def _holds(interval, point):
    return max(interval.a - point, point - interval.b, 0.0) <= POINT_RTOL * point


def classify(estimate, points):
    intervals = estimate.intervals
    if len(intervals) > len(points):
        return "false-gap"
    if len(intervals) < len(points):
        merged = [iv for iv in intervals if sum(_holds(iv, p) for p in points) >= 2]
        return "flagged-merge" if all(iv.low_confidence for iv in merged) else "silent-merge"
    if all(_holds(iv, p) for iv, p in zip(intervals, points)):
        return "correct"
    return "misplaced"


def _case(name, seq, points, pinned):
    marks = ()
    if pinned in KNOWN_DEFECTS:
        marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=pinned)
    return pytest.param(seq, points, pinned, id=name, marks=marks)


def _cases():
    cases = []
    for seed in sorted({s for s, _ in PINNED}):
        letters = "".join(PINNED[seed, d].replace(" ", "") for d in ROSTER_DIMENSIONS)
        roster = hard_roster(seed)
        assert len(letters) == len(roster)
        cases += [_case(name, seq, points, CATEGORIES[letter])
                  for (name, seq, points), letter in zip(roster, letters)]
    # two points 0.2% apart, which every sampled rate separates
    cases.append(_case("diag-1.002-1", MatrixSequence.constant(np.diag([1.002, 1.0])),
                       (1.0, 1.002), "silent-merge"))
    return cases


@pytest.mark.parametrize("seq,points,pinned", _cases())
def test_hard_system_against_its_oracle(seq, points, pinned):
    if pinned == "refused":
        with pytest.raises(SingularMatrixError):
            estimate_spectrum(seq)
        return
    category = classify(estimate_spectrum(seq), points)
    if pinned == "flagged-merge":
        assert category in ("flagged-merge", "correct")
    else:
        assert category == "correct"


# acceptance criterion 3 draws these 20 periodic systems and passes all of
# them within its 5e-3 symmetric containment, which is wider than the two
# false gaps below: each splits a complex pair's one Floquet point in two
CRITERION_3_FALSE_GAPS = (13, 17)


def _criterion_3_case(i):
    d, p = 1 + i % 3, 1 + i % 4
    marks = ()
    if i in CRITERION_3_FALSE_GAPS:
        marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason="false-gap")
    return pytest.param(random_periodic(100 + i, d, p, spread=0.6), id=f"i{i}-d{d}-p{p}",
                        marks=marks)


@pytest.mark.parametrize("seq", [_criterion_3_case(i) for i in range(20)])
def test_criterion_3_system_has_one_interval_per_floquet_point(seq):
    assert classify(estimate_spectrum(seq), periodic_spectrum_oracle(seq)) == "correct"
