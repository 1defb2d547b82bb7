"""Position invariants: distributive constant, classes, profiles, bounds."""

import pickle
from fractions import Fraction

import pytest
from conftest import parse_many

from hyperpos import position
from hyperpos.groebner import DIMENSION_COUNTS, EMPTY
from hyperpos.polyring import EmptyInput, parse_poly
from hyperpos.position import (
    ConstantMember,
    EmptyVariety,
    IndexOutOfRange,
    NeverEmpty,
    ProfileInvalid,
    SubsetCapExceeded,
    UnboundedRatio,
    VanishingMember,
    ZeroDimensional,
    build_family,
    build_variety,
    classify_position,
    dimension_profile,
    distributive_constant,
    intersection_dimension,
    load_configuration,
    power_lift,
    remark_bounds,
)


def plane():
    return build_variety([], num_vars=3)


def family(v, texts):
    return build_family(v, parse_many(texts, v.num_vars))


class TestBuildVariety:
    def test_ambient_plane(self):
        v = plane()
        assert (v.dim_n, v.degree_delta, v.ambient) == (2, 1, 2)

    def test_conic(self):
        v = build_variety(parse_many(["x0*x2 - x1^2"], 3))
        assert (v.dim_n, v.degree_delta) == (1, 2)

    def test_empty(self):
        with pytest.raises(EmptyVariety):
            build_variety(parse_many(["x0", "x1", "x2"], 3))

    def test_zero_dimensional(self):
        with pytest.raises(ZeroDimensional):
            build_variety(parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3))


class TestBuildFamily:
    def test_degrees_and_lcm(self):
        v = plane()
        fam = family(v, ["x0", "x1^2 + x2^2", "x0^3 + x1^3"])
        assert fam.degrees == (1, 2, 3)
        assert fam.lcm_d == 6
        assert fam.q == 3

    def test_vanishing_member(self):
        v = build_variety(parse_many(["x0*x2 - x1^2"], 3))
        with pytest.raises(VanishingMember):
            build_family(v, parse_many(["x0", "x0*x2 - x1^2"], 3))

    def test_empty_family(self):
        with pytest.raises(EmptyInput):
            build_family(plane(), [])

    def test_constant_member(self):
        v = build_variety([], num_vars=2)
        with pytest.raises(ConstantMember, match="member 0"):
            build_family(v, parse_many(["2", "x0"], 2))

    def test_power_lift_degrees(self):
        v = plane()
        fam = family(v, ["x0", "x1^2 + x2^2"])
        lifted = power_lift(v, fam)
        assert lifted.degrees == (2, 2)
        assert lifted.members[0] == parse_poly("x0^2", 3)


class TestIntersectionDimension:
    def test_line_in_plane(self):
        v = plane()
        fam = family(v, ["x0"])
        assert intersection_dimension(v, fam, [0]) == 1

    def test_concurrent_lines_point(self):
        v = plane()
        fam = family(v, ["x1", "x2", "x1 + x2"])
        assert intersection_dimension(v, fam, [0, 1, 2]) == 0

    def test_coordinate_triple_empty(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2"])
        assert intersection_dimension(v, fam, [0, 1, 2]) is EMPTY

    def test_index_out_of_range(self):
        v = plane()
        fam = family(v, ["x0"])
        with pytest.raises(IndexOutOfRange):
            intersection_dimension(v, fam, [1])

    def test_empty_subset_rejected(self):
        v = plane()
        fam = family(v, ["x0"])
        with pytest.raises(EmptyInput):
            intersection_dimension(v, fam, [])

    def test_memo_not_observable(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2"])
        first = intersection_dimension(v, fam, [0, 1])
        assert intersection_dimension(v, fam, [0, 1]) == first == 0


class TestDistributiveConstant:
    def test_coordinate_lines(self):
        v = plane()
        rep = distributive_constant(v, family(v, ["x0", "x1", "x2"]))
        assert rep.delta == 1
        assert rep.witness == (0,)

    def test_four_concurrent_lines(self):
        v = plane()
        rep = distributive_constant(v, family(v, ["x1", "x2", "x1 + x2", "x1 - x2"]))
        assert rep.delta == 2
        assert rep.witness == (0, 1, 2, 3)

    def test_two_lines(self):
        v = plane()
        assert distributive_constant(v, family(v, ["x0", "x1"])).delta == 1

    def test_table(self):
        v = plane()
        rep = distributive_constant(v, family(v, ["x0", "x1"]), include_table=True)
        assert rep.per_subset[(0,)] == (1, 1, Fraction(1))
        assert rep.per_subset[(0, 1)] == (2, 0, Fraction(1))

    def test_cap(self, monkeypatch):
        # 15 lines in general position: past the old 14-member cap, but the
        # walk visits only 15 lines, 105 points and 455 void triples, and
        # settles the points from the triples with no query
        v = plane()
        fam = family(v, [f"x0 + {k}*x1 + {k * k}*x2" for k in range(15)])
        DIMENSION_COUNTS.clear()
        assert distributive_constant(v, fam).delta == 1
        assert len(fam._memo) == 15 + 105 + 455
        assert DIMENSION_COUNTS["modp"] == 15 + 455
        monkeypatch.setattr(position, "MAX_WALK_SUBSETS", 2)
        with pytest.raises(SubsetCapExceeded):
            distributive_constant(v, family(v, ["x0", "x1", "x2"]))

    def test_at_least_one(self):
        v = build_variety(parse_many(["x0*x2 - x1^2"], 3))
        fam = family(v, ["x0", "x2", "x0 + x2"])
        assert distributive_constant(v, fam).delta >= 1

    def test_monotone_in_family(self):
        v = plane()
        small = distributive_constant(v, family(v, ["x1", "x2", "x1 + x2"])).delta
        big = distributive_constant(v, family(v, ["x1", "x2", "x1 + x2", "x1 - x2"])).delta
        assert big >= small

    def test_permutation_invariance(self):
        v = plane()
        a = distributive_constant(v, family(v, ["x1", "x2", "x1 + x2", "x0"])).delta
        b = distributive_constant(v, family(v, ["x0", "x1 + x2", "x2", "x1"])).delta
        assert a == b

    def test_scalar_invariance(self):
        v = plane()
        a = distributive_constant(v, family(v, ["x1", "x2", "x1 + x2"])).delta
        b = distributive_constant(v, family(v, ["3*x1", "1/2*x2", "5*x1 + 5*x2"])).delta
        assert a == b

    def test_power_lift_invariance(self):
        v = plane()
        fam = family(v, ["x0", "x1^2 + x2^2", "x1"])
        assert distributive_constant(v, power_lift(v, fam)).delta == \
            distributive_constant(v, fam).delta

    def test_unbounded_ratio_on_reducible(self):
        v = build_variety(parse_many(["x1*x2"], 3))  # two lines, dim 1
        fam = build_family(v, parse_many(["x1"], 3))
        with pytest.raises(UnboundedRatio):
            distributive_constant(v, fam)

    def test_reducible_variety_with_clean_members(self):
        # both lines of the reducible conic are cut transversally: fine
        v = build_variety(parse_many(["x1*x2"], 3))
        fam = build_family(v, parse_many(["x0 + x1 + x2", "x0"], 3))
        rep = distributive_constant(v, fam)
        assert rep.delta >= 1


class TestClassify:
    def test_coordinate_lines(self):
        v = plane()
        cls = classify_position(v, family(v, ["x0", "x1", "x2"]))
        assert cls.l_value == 2
        assert cls.general_position
        assert cls.kappa == 2
        assert cls.t_vector == (1, 2)

    def test_three_concurrent_plus_generic(self):
        v = plane()
        cls = classify_position(v, family(v, ["x1", "x2", "x1 + x2", "x0"]))
        assert cls.l_value == 3
        assert not cls.general_position
        assert cls.t_vector == (1, 3)

    def test_no_subgeneral_class(self):
        v = plane()
        cls = classify_position(v, family(v, ["x1", "x2", "x1 + x2", "x1 - x2"]))
        assert cls.l_value is None
        assert not cls.general_position
        assert cls.t_vector == (1, 4)

    def test_kappa_one_family(self):
        # pairs of split conics share a line, so the index stalls at 1
        v = plane()
        cls = classify_position(v, family(v, ["x1*x2", "x1*x0", "x2*x0", "x0 + x1 + x2"]))
        assert cls.l_value == 3
        assert cls.kappa == 1
        assert cls.t_vector == (2, 3)


class TestRemarkBounds:
    def test_general_position_bound(self):
        v = plane()
        cls = classify_position(v, family(v, ["x0", "x1", "x2"]))
        bounds = remark_bounds(v, cls)
        assert bounds.subgeneral == 1
        assert bounds.t_vector == 1
        assert bounds.index == 1

    def test_subgeneral_three(self):
        v = plane()
        cls = classify_position(v, family(v, ["x1", "x2", "x1 + x2", "x0"]))
        assert remark_bounds(v, cls).subgeneral == 2

    def test_index_formula(self):
        v = plane()
        cls = classify_position(v, family(v, ["x1*x2", "x1*x0", "x2*x0", "x0 + x1 + x2"]))
        bounds = remark_bounds(v, cls)
        assert bounds.index == Fraction(3 - 2 + 1, 1) == 2

    def test_none_for_unplaced_family(self):
        v = plane()
        cls = classify_position(v, family(v, ["x1", "x2", "x1 + x2", "x1 - x2"]))
        bounds = remark_bounds(v, cls)
        assert bounds.subgeneral is None
        assert bounds.index is None
        assert bounds.t_vector == 2

    def test_bounds_dominate_delta(self):
        v = plane()
        for texts in (["x0", "x1", "x2"],
                      ["x1", "x2", "x1 + x2", "x0"],
                      ["x1", "x2", "x1 + x2", "x1 - x2"],
                      ["x1*x2", "x1*x0", "x2*x0", "x0 + x1 + x2"],
                      ["x0", "x1", "x0 + x1", "x2"]):
            fam = family(v, texts)
            delta = distributive_constant(v, fam).delta
            bounds = remark_bounds(v, classify_position(v, fam))
            for bound in (bounds.subgeneral, bounds.t_vector, bounds.index):
                if bound is not None:
                    assert delta <= bound, texts


class TestDimensionProfile:
    def test_concurrent_then_completing(self):
        v = plane()
        fam = family(v, ["x1", "x2", "x1 + x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        assert prof.prefix_dims == (1, 0, 0, EMPTY)
        assert prof.t_values == (0, 1, 3)
        assert prof.l_value == 3

    def test_general_position_steps(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        assert prof.prefix_dims == (1, 0, EMPTY)
        assert prof.t_values == (0, 1, 2)
        assert prof.l_value == 2

    def test_void_prefix_survives_a_pickle(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2"])
        prof = pickle.loads(pickle.dumps(dimension_profile(v, fam, (0, 1, 2))))
        assert prof.prefix_dims[-1] is EMPTY

    def test_never_empty(self):
        v = plane()
        fam = family(v, ["x1", "x2", "x1 + x2", "x1 - x2"])
        with pytest.raises(NeverEmpty):
            dimension_profile(v, fam, (0, 1, 2, 3))

    def test_not_a_permutation(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2"])
        with pytest.raises(IndexOutOfRange):
            dimension_profile(v, fam, (0, 1, 1))

    def test_profile_invalid_on_reducible(self):
        # two planes in P^3: the first member contains a whole component
        v = build_variety(parse_many(["x1*x2"], 4))
        fam = build_family(v, parse_many(["x1", "x0", "x2", "x3"], 4))
        with pytest.raises(ProfileInvalid):
            dimension_profile(v, fam, (0, 1, 2, 3))

    def test_early_empty_stops_scan(self):
        v = plane()
        fam = family(v, ["x0", "x1", "x2", "x0 + x1"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        assert prof.l_value == 2
        assert len(prof.prefix_dims) == 3


class TestLoadConfiguration:
    def test_round_trip(self):
        v, fam = load_configuration({
            "ambient": 2,
            "variety": [],
            "family": ["x0", "x1", "x2"],
        })
        assert v.dim_n == 2
        assert fam.q == 3
        assert distributive_constant(v, fam).delta == 1

    def test_conic_config(self):
        v, fam = load_configuration({
            "ambient": 2,
            "variety": ["x0*x2 - x1^2"],
            "family": ["x0", "x2"],
        })
        assert v.dim_n == 1
        assert fam.degrees == (1, 1)

    def test_missing_key(self):
        with pytest.raises(Exception):
            load_configuration({"ambient": 2, "variety": []})
