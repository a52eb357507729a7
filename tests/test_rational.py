import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch.rational import (
    format_rat,
    parse_rat,
    perturb,
    rat,
)


class TestRat:
    def test_canonical_lowest_terms(self):
        x = rat(2, 4)
        assert x == rat(1, 2)
        assert x.numerator == 1 and x.denominator == 2

    def test_half_plus_half(self):
        assert rat(1, 2) + rat(1, 2) == 1

    def test_exact_comparison(self):
        assert rat(63, 128) < rat(1, 2)
        assert not (rat(65, 128) < rat(1, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rat(1, 0)

    def test_negative_denominator_normalized(self):
        x = rat(1, -2)
        assert x.denominator == 2 and x.numerator == -1

    def test_format_parse_roundtrip(self):
        for p, q in [(0, 1), (5, 1), (-3, 7), (1347, 128)]:
            assert parse_rat(format_rat(rat(p, q))) == rat(p, q)


@given(
    st.lists(st.fractions(), min_size=2, max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_association_order_irrelevant(values, rnd):
    vals = [rat(v.numerator, v.denominator) for v in values]
    left = vals[0]
    for v in vals[1:]:
        left = left + v
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    right = shuffled[0]
    for v in shuffled[1:]:
        right = v + right
    assert left == right


class TestPerturb:
    def test_unit_costs(self):
        assert perturb([1, 1, 1]).scaled == (12, 10, 9)

    def test_single_edge(self):
        assert perturb([5]).scaled == (11,)

    def test_pure_perturbation(self):
        assert perturb([0, 0]).scaled == (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perturb([])

    def test_exact_offsets(self):
        pc = perturb([7, -2, 0, 9])
        for i in range(4):
            assert pc.perturbed_total([i]) - pc.base[i] == rat(1, 2 ** (i + 1))
        total_bump = sum(pc.perturbed_total([i]) - pc.base[i] for i in range(4))
        assert total_bump < 1

    def test_scale(self):
        assert perturb([0] * 7).scale == 128


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_perturbation_separates_edge_subsets(costs):
    # distinct edge subsets always get distinct perturbed totals
    pc = perturb(costs)
    m = len(costs)
    seen = {}
    for mask in range(1 << min(m, 8)):
        ids = [i for i in range(min(m, 8)) if mask >> i & 1]
        total = pc.perturbed_total(ids)
        assert total not in seen or seen[total] == tuple(ids)
        seen[total] = tuple(ids)
