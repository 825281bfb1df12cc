"""Intersection pairing, adjunction, and scroll geometry."""

from itertools import product

import pytest

from extremalcurves import (
    DivisorClass,
    InvalidInput,
    DomainError,
    ScrollEmbedding,
    adjunction_genus,
    canonical_class,
    class_in_HL,
    formal_genus,
    h0_unisecant,
    intersect,
    intersect_on_scroll,
    is_irreducible_smoothable,
    is_very_ample,
    scroll_canonical_class,
    scroll_from_rn,
)
from extremalcurves.selfcheck import (
    adjunction_parity,
    bilinearity,
    genus_closed_form,
    random_triples,
    tally,
)


def test_generator_pairings():
    for n in range(6):
        c0 = DivisorClass(n, 1, 0)
        fiber = DivisorClass(n, 0, 1)
        assert intersect(c0, c0) == -n
        assert intersect(c0, fiber) == 1
        assert intersect(fiber, fiber) == 0


def test_intersection_example():
    x = DivisorClass(2, 2, 5)
    y = DivisorClass(2, 1, 3)
    assert intersect(x, y) == 7


def test_mismatched_surfaces_are_rejected():
    x = DivisorClass(2, 1, 1)
    y = DivisorClass(3, 1, 1)
    with pytest.raises(InvalidInput):
        intersect(x, y)
    with pytest.raises(InvalidInput):
        _ = x + y
    with pytest.raises(InvalidInput):
        _ = x - y


def test_intersect_refuses_an_operand_that_is_not_a_class():
    # a plain tuple's fields passed no check: a float would give 3.5
    x = DivisorClass(0, 1, 1)
    for a, b in ((x, (0, 2.5, 1)), ((0, 2.5, 1), x), (x, [0, 1, 1]), (x, None)):
        with pytest.raises(InvalidInput, match="intersect needs two DivisorClass operands"):
            intersect(a, b)


def test_negative_invariant_rejected():
    with pytest.raises(InvalidInput):
        DivisorClass(-1, 1, 0)
    with pytest.raises(InvalidInput):
        canonical_class(-2)


def test_algebra_operations():
    x = DivisorClass(1, 2, 5)
    y = DivisorClass(1, -1, 3)
    assert x + y == DivisorClass(1, 1, 8)
    assert x - y == DivisorClass(1, 3, 2)
    assert -y == DivisorClass(1, 1, -3)
    assert 3 * x == DivisorClass(1, 6, 15)
    assert x * 3 == DivisorClass(1, 6, 15)
    assert str(DivisorClass(2, 3, -4)) == "3*C0 + -4*L on F2"


def test_canonical_classes():
    assert canonical_class(0) == DivisorClass(0, -2, -2)
    assert canonical_class(3) == DivisorClass(3, -2, -5)
    # the canonical class of the plane quadric model: K^2 = 8 on every surface
    for n in range(8):
        k = canonical_class(n)
        assert intersect(k, k) == 8


def test_bilinearity_seeded():
    assert tally(bilinearity(random_triples(1105, 300, 8, 20, 5))) == (900, [])


def test_adjunction_pairing_parity_full_grid():
    classes = product(range(11), range(-40, 41), range(-40, 41))
    assert tally(adjunction_parity(classes)) == (144_342, [])


def test_formal_genus_values():
    assert formal_genus(DivisorClass(3, 4, 12)) == 15
    assert formal_genus(DivisorClass(0, -1, -1)) == 4
    assert formal_genus(DivisorClass(2, 0, 0)) == 1


def test_adjunction_genus_examples():
    assert adjunction_genus(DivisorClass(3, 4, 12)) == 15
    assert adjunction_genus(DivisorClass(2, 1, 5)) == 0
    assert adjunction_genus(DivisorClass(0, 5, 8)) == 28


def test_adjunction_genus_closed_form_grid():
    classes = ((n, a, b) for n in range(7)
               for a in range(1, 9) for b in range(a * n + 1, a * n + 12))
    assert tally(genus_closed_form(classes)) == (616, [])


def test_adjunction_genus_rejects_bad_classes():
    with pytest.raises(DomainError):
        adjunction_genus(DivisorClass(2, -1, 5))
    with pytest.raises(DomainError):
        adjunction_genus(DivisorClass(0, 3, 0))


@pytest.mark.parametrize(
    "n,a,b,smoothable,very_ample",
    [
        (2, 0, 1, True, False),
        (2, 1, 0, True, False),
        (2, 1, 3, True, True),
        (2, 3, 6, True, False),
        (2, 3, 7, True, True),
        (0, 3, 0, False, False),
        (0, 2, 1, True, True),
        (1, -1, 5, False, False),
        (3, 0, 2, False, False),
        (0, 1, 1, True, True),
    ],
)
def test_smoothable_and_very_ample_table(n, a, b, smoothable, very_ample):
    x = DivisorClass(n, a, b)
    assert is_irreducible_smoothable(x) is smoothable
    assert is_very_ample(x) is very_ample


def test_ruling_normalization():
    assert DivisorClass(0, 7, 2).normalized_ruling() == DivisorClass(0, 2, 7)
    assert DivisorClass(0, 2, 7).normalized_ruling() == DivisorClass(0, 2, 7)
    assert DivisorClass(3, 4, 5).normalized_ruling() == DivisorClass(3, 4, 5)


def test_unisecant_dimension():
    assert h0_unisecant(4, 3) == 7
    assert h0_unisecant(2, 0) == 6
    assert h0_unisecant(2, 2) == 4
    with pytest.raises(InvalidInput):
        h0_unisecant(1, 3)
    with pytest.raises(InvalidInput, match=r"surface invariant must be >= 0, got n=-1$"):
        h0_unisecant(2, -1)


def test_scroll_round_trips():
    s = ScrollEmbedding.from_unisecant(3, 4)
    assert (s.n, s.beta, s.r) == (3, 4, 6)
    assert s.degree == 5
    assert not s.is_cone
    assert s.hyperplane_class == DivisorClass(3, 1, 4)
    assert s.r == h0_unisecant(4, 3) - 1

    cone = ScrollEmbedding.from_unisecant(2, 2)
    assert cone.r == 3 and cone.degree == 2 and cone.is_cone

    t = scroll_from_rn(6, 3)
    assert t == s
    assert scroll_from_rn(5, 0).beta == 2


def test_scroll_validation():
    with pytest.raises(InvalidInput):
        scroll_from_rn(6, 2)  # r+n-1 odd
    with pytest.raises(InvalidInput):
        scroll_from_rn(3, 3)  # r+n-1 odd again
    with pytest.raises(InvalidInput):
        scroll_from_rn(2, 1)  # too small
    with pytest.raises(InvalidInput):
        scroll_from_rn(5, 6)  # beta=5 < n=6
    with pytest.raises(InvalidInput):
        ScrollEmbedding(n=3, beta=2, r=2)  # beta < n
    with pytest.raises(InvalidInput, match=r"surface invariant must be >= 0, got n=-1$"):
        ScrollEmbedding(n=-1, beta=0, r=2)


def test_class_in_HL():
    s = ScrollEmbedding.from_unisecant(3, 4)
    assert class_in_HL(DivisorClass(3, 4, 12), s) == (4, -4)
    assert class_in_HL(s.hyperplane_class, s) == (1, 0)
    with pytest.raises(InvalidInput):
        class_in_HL(DivisorClass(2, 4, 12), s)


def test_scroll_canonical_and_pairing():
    assert scroll_canonical_class(6) == (-2, 3)
    with pytest.raises(InvalidInput):
        scroll_canonical_class(2)
    assert intersect_on_scroll(6, (1, 0), (1, 0)) == 5
    assert intersect_on_scroll(6, (1, 0), (0, 1)) == 1
    assert intersect_on_scroll(6, (0, 1), (0, 1)) == 0
    with pytest.raises(InvalidInput, match=r"scrolls need r >= 3, got r=2$"):
        intersect_on_scroll(2, (1, 0), (1, 0))
    # adjunction in the scroll basis reproduces the genus of a known model
    x = (4, -3)
    kx = (-2 + 4, 2 - 3)
    assert intersect_on_scroll(5, kx, x) == 22  # 2g-2 for g=12


def test_degree_matches_surface_pairing():
    for n in range(4):
        for beta in range(max(n, 1), n + 5):
            if 2 * beta + 1 - n < 3:
                continue
            s = ScrollEmbedding.from_unisecant(n, beta)
            h = s.hyperplane_class
            for a in range(1, 6):
                for b in range(a * n, a * n + 8):
                    x = DivisorClass(n, a, b)
                    hh, ll = class_in_HL(x, s)
                    assert intersect(x, h) == hh * (s.r - 1) + ll


def test_large_magnitudes_exact():
    big = 10**9
    x = DivisorClass(2, big, 3 * big)
    y = DivisorClass(2, big - 1, big + 7)
    expected = -2 * big * (big - 1) + big * (big + 7) + (big - 1) * 3 * big
    assert intersect(x, y) == expected
    assert formal_genus(x) == (3 * big - 1) * (big - 1) - big * (big - 1)
    assert adjunction_genus(x) == formal_genus(x)
