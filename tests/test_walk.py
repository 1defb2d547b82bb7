"""The non-void subset walk behind `delta` and `classify`, against the full scan.

The scan below is the walk these front ends used before: every one of the
2^q - 1 subsets, by size and then lexicographically, void ones included,
with `classify` ending a size at its first subset of full dimension n.  The
non-void walk must give the same reports and classes and send the same
`projective_dimension` queries, so `DIMENSION_COUNTS` match as well.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_form
from test_dimension import (criterion_01_families, criterion_03_families, family_of,
                            other_gate_families)

from hyperpos import cli, position
from hyperpos.errors import DomainError
from hyperpos.groebner import DIMENSION_COUNTS, EMPTY
from hyperpos.polyring import HomoPoly, parse_poly, poly_to_json
from hyperpos.position import (
    DistributiveReport,
    HypersurfaceFamily,
    PositionClass,
    SubsetCapExceeded,
    UnboundedRatio,
    build_family,
    build_variety,
    classify_position,
    distributive_constant,
    intersection_dimension,
)


# ---------------------------------------------------------------------------
# the full scan, kept as the oracle

def scan_distributive_constant(v, fam):
    n = v.dim_n
    best = None
    witness = None
    table = {}
    for size in range(1, fam.q + 1):
        for combo in combinations(range(fam.q), size):
            dim = intersection_dimension(v, fam, combo)
            if dim is EMPTY:
                continue
            drop = n - dim
            if drop <= 0:
                raise UnboundedRatio(
                    f"subset {combo} meets the variety in dimension {dim}, not below {n}")
            ratio = Fraction(size, drop)
            table[combo] = (size, dim, ratio)
            if best is None or ratio > best:
                best = ratio
                witness = combo
    return DistributiveReport(best, witness, table)


def scan_max_dims_by_size(v, fam):
    n = v.dim_n
    out = {}
    for size in range(1, fam.q + 1):
        best = EMPTY
        for combo in combinations(range(fam.q), size):
            dim = intersection_dimension(v, fam, combo)
            if dim is EMPTY:
                continue
            if best is EMPTY or dim > best:
                best = dim
            if best == n:
                break
        out[size] = best
    return out


def scan_classify_position(v, fam):
    n = v.dim_n
    max_dims = scan_max_dims_by_size(v, fam)
    s_max = max(m for m, d in max_dims.items() if d is not EMPTY)
    l_value = s_max if s_max < fam.q else None
    kappa = 0
    for m in range(1, n + 1):
        d = max_dims.get(m, EMPTY)
        if d is not EMPTY and d > n - m:
            break
        kappa = m
    t_vector = []
    for s in range(1, n + 1):
        t_s = 0
        for m in range(1, fam.q + 1):
            d = max_dims[m]
            if d is not EMPTY and d > n - s - 1:
                t_s = m
        t_vector.append(t_s)
    return PositionClass(l_value, l_value == n, kappa, tuple(t_vector))


# ---------------------------------------------------------------------------
# walk against scan

def fresh(fam):
    """The same members with an empty memo."""
    return HypersurfaceFamily(fam.members, fam.degrees, fam.lcm_d)


def counted(run, v, fam):
    """run's answer or error, the dimension counts and the memo it leaves."""
    fam = fresh(fam)
    DIMENSION_COUNTS.clear()
    try:
        out = run(v, fam)
    except DomainError as exc:
        out = (exc.code, exc.message)
    return out, dict(DIMENSION_COUNTS), fam._memo


def walk_visits(scan_memo):
    """The non-void sets and the minimal void ones, from a memo of every subset."""
    dims = {s: d for (_, s), d in scan_memo.items()}
    return {s for s, d in dims.items()
            if d is not EMPTY or all(dims.get(s - {i}) is not EMPTY for i in s)}


def assert_walk_matches_scan(v, fam, whole_lattice=True):
    """Same answers and counts; when the scan stored every subset (no member
    vanishes on a component of V), a memo of just the walk's visits."""
    pairs = ((lambda v, f: distributive_constant(v, f, include_table=True),
              scan_distributive_constant),
             (classify_position, scan_classify_position))
    for walk, scan in pairs:
        walked, walk_counts, walk_memo = counted(walk, v, fam)
        scanned, scan_counts, scan_memo = counted(scan, v, fam)
        assert walked == scanned, [str(m) for m in fam.members]
        assert walk_counts == scan_counts, [str(m) for m in fam.members]
        if whole_lattice:
            assert len(scan_memo) == 2 ** fam.q - 1
            assert {s for _, s in walk_memo} == walk_visits(scan_memo)


@pytest.mark.parametrize("families", [criterion_01_families, criterion_03_families,
                                      other_gate_families])
def test_walk_matches_scan_on_gate_families(families):
    checked = 0
    for v, fam in families():
        assert_walk_matches_scan(v, fam)
        checked += 1
    assert checked >= 6


def on_line(k):
    """A conic through the line {x1 = 0} of V = {x1*x2 = 0}."""
    return f"x0*x1 + {k}*x1*x2"


def test_reducible_variety_matches_scan():
    # x1 vanishes on the line {x1 = 0} of V: delta refuses it, and classify
    # ends each size at its first subset of dimension n, as the scan did
    v, fam = family_of(3, ("x1", "x0 + x2", "x0"), variety=("x1*x2",))
    assert_walk_matches_scan(v, fam, whole_lattice=False)
    assert counted(distributive_constant, v, fam)[0][0] == "UnboundedRatio"
    # past the members through a common line, the walk scans the next size
    v, fam = family_of(3, [on_line(k) for k in range(6)] + ["x0 + x1 + 2*x2", "x2"],
                       variety=("x1*x2",))
    assert_walk_matches_scan(v, fam, whole_lattice=False)


def test_classify_many_members_on_a_component(runj_classify):
    # all 2^15 - 1 subsets have dimension n, past the budget; one query a size
    code, payload, counts = runj_classify([on_line(k) for k in range(15)])
    assert code == 0
    assert payload == {"bounds": {"index": None, "subgeneral": None, "t_vector": "15/1"},
                       "general_position": False, "kappa": 0, "l_value": None,
                       "t_vector": [15]}
    assert counts == {"exact": 15}
    code, payload, _ = runj_classify([on_line(k) for k in range(15)]
                                     + ["x0^2 + x1*x2 + 3*x2^2", "x0 + x1 + 2*x2"])
    assert code == 0
    assert (payload["l_value"], payload["t_vector"]) == (16, [16])


@pytest.fixture()
def runj_classify(tmp_path, capsys):
    def invoke(family):
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps({"ambient": 2, "variety": ["x1*x2"], "family": family}))
        DIMENSION_COUNTS.clear()
        code = cli.main(["classify", "--config", str(path), "--no-cache"])
        return code, json.loads(capsys.readouterr().out)["payload"], dict(DIMENSION_COUNTS)
    return invoke


@st.composite
def walk_families(draw):
    nvars = draw(st.integers(2, 4))
    variety = draw(st.sampled_from({2: ((),), 3: ((), ("x0*x2 - x1^2",)),
                                    4: ((), ("x0^2 + x1^2 + x2^2 - x3^2",))}[nvars]))
    return nvars, variety, draw(walk_members(nvars))


@st.composite
def walk_members(draw, nvars, lines=()):
    """1 to 8 random forms, each optionally times one of the given lines."""
    members = []
    for _ in range(draw(st.integers(1, 8))):
        degree = draw(st.integers(1, 2))
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        member = random_form(rng, nvars, degree, spread=draw(st.integers(1, 3)))
        line = draw(st.sampled_from((None,) + lines))
        members.append(member if line is None else member * parse_poly(line, nvars))
    return members


def check_small_family(nvars, variety, members):
    v = build_variety([parse_poly(t, nvars) for t in variety], num_vars=nvars)
    try:
        fam = build_family(v, members)
    except DomainError:
        return False
    on_component = any(intersection_dimension(v, fam, (i,)) == v.dim_n for i in range(fam.q))
    assert_walk_matches_scan(v, fam, whole_lattice=not on_component)
    return on_component


@settings(derandomize=True, max_examples=60, deadline=None)
@given(walk_families())
def test_walk_matches_scan_on_small_families(case):
    check_small_family(*case)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(walk_members(3, lines=("x1", "x2")))
def test_walk_matches_scan_on_two_lines(members):
    # V = {x1*x2 = 0}: members through one line, the other, or neither
    check_small_family(3, ("x1*x2",), members)


# ---------------------------------------------------------------------------
# what the walk visits

PLANE_QUADRIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def dense_plane_family(q, seed=11):
    """q plane conics with every monomial, coefficients drawn wide enough that
    no three share a point (with coefficients in -3..3, five of 30 met in one)."""
    rng = random.Random(seed)
    v = build_variety([], num_vars=3)
    members = [HomoPoly(3, {exp: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
                            for exp in PLANE_QUADRIC_MONOMIALS})
               for _ in range(q)]
    return v, build_family(v, members)


def test_memo_holds_nonvoid_sets_and_minimal_void_ones():
    # 11 curves, 55 pairs of curves meeting in points, 165 void triples; the
    # scan stored all 2047 subsets
    v, fam = dense_plane_family(11)
    assert distributive_constant(v, fam).delta == 1
    assert len(fam._memo) == 11 + 55 + 165 == 231
    classify_position(v, fam)
    assert len(fam._memo) == 231


def test_thirty_plane_quadrics_within_default_budget(tmp_path, capsys):
    v, fam = dense_plane_family(30)
    path = tmp_path / "thirty.json"
    path.write_text(json.dumps({"ambient": 2, "variety": [],
                                "family": [poly_to_json(m) for m in fam.members]}))
    assert cli.main(["delta", "--config", str(path), "--no-cache"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"delta": "1/1", "witness": [1]}


def test_budget_refuses_a_level_before_its_first_query(monkeypatch):
    # the coordinate lines of P^2 visit 3 lines, 3 points, then 1 void triple
    v, fam = family_of(3, ("x0", "x1", "x2"))
    monkeypatch.setattr(position, "MAX_WALK_SUBSETS", 6)
    walk = position._nonvoid_subsets(v, fam)
    assert [combo for combo, _ in (next(walk) for _ in range(6))] == \
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    DIMENSION_COUNTS.clear()
    with pytest.raises(SubsetCapExceeded):
        next(walk)
    assert DIMENSION_COUNTS == {}
    assert len(fam._memo) == 6
    # one more visit in the budget and the triple is queried
    monkeypatch.setattr(position, "MAX_WALK_SUBSETS", 7)
    assert distributive_constant(v, fam).delta == 1
    assert fam._memo[(v, frozenset((0, 1, 2)))] is EMPTY
