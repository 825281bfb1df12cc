"""Exact intersection theory on Hirzebruch surfaces and their scroll models.

The Picard lattice of the surface with invariant n >= 0 is Z[C0] + Z[L],
where C0 is the section of self-intersection -n and L a ruling fiber:

    C0.C0 = -n,    C0.L = 1,    L.L = 0.

A unisecant system |C0 + beta*L| with beta >= n maps the surface to a
rational normal scroll of degree 2*beta - n in P^r, r = 2*beta + 1 - n
(a cone over a rational normal curve exactly when beta = n).  On the
scroll we work in the (H, L) basis with

    H.H = r - 1,   H.L = 1,   L.L = 0,   K ~ -2H + (r-3)L.

The surface canonical class is -2*C0 - (n+2)*L and the genus of a curve
class X comes from adjunction, 2g - 2 = (K + X).X; the pairing is
provably even, which is asserted rather than truncated.  All arithmetic
is exact (Python integers), and every operation is pure.

The ruling cuts out the gonality pencil of X = a*C0 + b*L, of degree
X.L = a, except on n=0, where the other ruling competes, and for the
multiples of C0+L on n=1, which blow down to plane curves.
``gonality_from_class`` is the one statement of that fact.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, InvalidInput, need_int


def _different_surfaces(n: int, m: int) -> InvalidInput:
    return InvalidInput(f"classes live on different surfaces (n={n} vs n={m})")


class DivisorClass(namedtuple("DivisorClass", "n a b")):
    """A class a*C0 + b*L on the surface with invariant n.  The arithmetic
    builds its results with ``tuple.__new__``: the operands' fields already
    passed this constructor's checks."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        if type(n) is not int or type(a) is not int or type(b) is not int:
            need_int(n=n, a=a, b=b)
        if n < 0:
            raise InvalidInput(f"surface invariant must be >= 0, got n={n}")
        return tuple.__new__(cls, (n, a, b))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass:  # a plain tuple's fields passed no check
            return NotImplemented
        (n, a, b), (m, c, e) = self, other
        if n != m:
            raise _different_surfaces(n, m)
        return tuple.__new__(DivisorClass, (n, a + c, b + e))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass:  # a plain tuple's fields passed no check
            return NotImplemented
        (n, a, b), (m, c, e) = self, other
        if n != m:
            raise _different_surfaces(n, m)
        return tuple.__new__(DivisorClass, (n, a - c, b - e))

    def __neg__(self) -> "DivisorClass":
        n, a, b = self
        return tuple.__new__(DivisorClass, (n, -a, -b))

    def __rmul__(self, c: int) -> "DivisorClass":
        if type(c) is not int:
            need_int(c=c)
        n, a, b = self
        return tuple.__new__(DivisorClass, (n, c * a, c * b))

    __mul__ = __rmul__

    def normalized_ruling(self) -> "DivisorClass":
        """On n=0 the two rulings play symmetric roles; swap so that a <= b."""
        if self.n == 0 and self.a > self.b:
            return DivisorClass(0, self.b, self.a)
        return self

    def __str__(self) -> str:
        return f"{self.a}*C0 + {self.b}*L on F{self.n}"


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two ``DivisorClass`` operands on the same surface."""
    if type(d1) is not DivisorClass or type(d2) is not DivisorClass:  # unchecked fields
        raise InvalidInput(f"intersect needs two DivisorClass operands, got {d1!r} and {d2!r}")
    (n, a, b), (m, c, e) = d1, d2
    if n != m:
        raise _different_surfaces(n, m)
    return -n * a * c + a * e + c * b


def canonical_class(n: int) -> DivisorClass:
    """Canonical class -2*C0 - (n+2)*L of the surface with invariant n."""
    return _canonical(n)


@lru_cache(maxsize=64, typed=True)  # formal_genus asks for K on every call
def _canonical(n: int) -> DivisorClass:
    return DivisorClass(n, -2, -(n + 2))


def is_irreducible_smoothable(x: DivisorClass) -> bool:
    """Whether the class contains an irreducible curve, smooth for generic
    members: the fiber, the negative section, or a > 0 with b > a*n
    (b = a*n also qualifies when n > 0; those members pass through the
    vertex side of the cone model)."""
    a, b, n = x.a, x.b, x.n
    if (a, b) == (0, 1) or (a, b) == (1, 0):
        return True
    if is_very_ample(x):
        return True
    if a > 0 and b == a * n and n > 0:
        return True
    return False


def is_very_ample(x: DivisorClass) -> bool:
    """Very ample exactly when a > 0 and b > a*n (so b > 0 when n = 0)."""
    return x.a > 0 and x.b > x.a * x.n


def formal_genus(x: DivisorClass) -> int:
    """Adjunction genus computed formally, with no effectivity checks.

    May be negative; useful as a raw oracle.  The pairing (K+X).X is even
    for every class, which is asserted.
    """
    pairing = intersect(_canonical(x.n) + x, x)
    if pairing % 2:
        raise ArithmeticError(f"adjunction pairing {pairing} is odd for {x}")
    return pairing // 2 + 1


def adjunction_genus(x: DivisorClass) -> int:
    """Genus of a general member of |X|, via 2g - 2 = (K + X).X.

    Requires the class to be irreducible-smoothable.  Such a class never
    has a negative genus, g = (a-1)(b-1-n*a/2): for a > 0 and b >= a*n+1,
    g >= (a-1)*n*a/2 >= 0; for b = a*n with n > 0, g = (a-1)(a*n/2-1) >= 0;
    the fiber and the section have g = 0.  So a negative value is a fault
    of ``formal_genus``, raised as an ``ArithmeticError``, not a bad input.
    """
    if not is_irreducible_smoothable(x):
        raise DomainError(f"{x} is not an irreducible-smoothable class")
    g = formal_genus(x)
    if g < 0:
        raise ArithmeticError(f"negative genus {g} for {x}")
    return g


def gonality_from_class(x: DivisorClass) -> int:
    """Gonality of a general member of |X|, read off the ruling.

    The ruling cuts a pencil of degree X.L = a, and that is the gonality
    except in two situations: on n=0 the two rulings compete (min(a, b)),
    and on n=1 the multiples alpha*(C0+L), alpha >= 2, blow down to plane
    curves of degree alpha with gonality alpha-1.
    """
    if not is_irreducible_smoothable(x):
        raise DomainError(f"{x} is not an irreducible-smoothable class")
    a, b, n = x.a, x.b, x.n
    if (a, b) == (0, 1) or (n == 0 and (a, b) == (1, 0)):
        raise DomainError(f"{x} is a ruling fiber; its members are lines")
    if n == 0:
        return min(a, b)
    if n == 1 and a == b and a >= 2:
        return a - 1
    return a


def h0_unisecant(beta: int, n: int) -> int:
    """Number of sections of |C0 + beta*L|, namely 2*beta + 2 - n."""
    if n < 0:
        raise InvalidInput(f"surface invariant must be >= 0, got n={n}")
    if beta < n:
        raise InvalidInput(f"unisecant systems need beta >= n, got beta={beta}, n={n}")
    return 2 * beta + 2 - n


class ScrollEmbedding(namedtuple("ScrollEmbedding", "n beta r")):
    """The surface with invariant n embedded by |C0 + beta*L| in P^r."""

    __slots__ = ()

    def __new__(cls, n: int, beta: int, r: int):
        if type(n) is not int or type(beta) is not int or type(r) is not int:
            need_int(n=n, beta=beta, r=r)
        if n < 0:
            raise InvalidInput(f"surface invariant must be >= 0, got n={n}")
        if beta < n:
            raise InvalidInput(
                f"unisecant systems need beta >= n, got beta={beta}, n={n}"
            )
        if r != 2 * beta + 1 - n:
            raise InvalidInput(f"r={r} inconsistent with beta={beta}, n={n}")
        if r < 3:
            raise InvalidInput(f"scrolls need r >= 3, got r={r}")
        return tuple.__new__(cls, (n, beta, r))

    @classmethod
    def from_unisecant(cls, n: int, beta: int) -> "ScrollEmbedding":
        return cls(n, beta, 2 * beta + 1 - n)

    @property
    def degree(self) -> int:
        """Scroll degree H.H = 2*beta - n = r - 1."""
        return self.r - 1

    @property
    def is_cone(self) -> bool:
        """beta = n contracts the negative section to the vertex of a cone."""
        return self.beta == self.n

    @property
    def hyperplane_class(self) -> DivisorClass:
        return DivisorClass(self.n, 1, self.beta)


def scroll_from_rn(r: int, n: int) -> ScrollEmbedding:
    """The scroll in P^r built from the surface with invariant n.

    Needs r + n - 1 even, so that beta = (r+n-1)/2; ``ScrollEmbedding``
    then refuses n < 0, beta < n and r < 3.
    """
    if (r + n - 1) % 2:
        raise InvalidInput(f"r+n-1 must be even, got r={r}, n={n}")
    return ScrollEmbedding(n, (r + n - 1) // 2, r)


def class_in_HL(x: DivisorClass, scroll: ScrollEmbedding) -> tuple[int, int]:
    """Rewrite a*C0 + b*L as h*H + l*L on the scroll: (h, l) = (a, b - a*beta)."""
    if x.n != scroll.n:
        raise InvalidInput(
            f"class lives on n={x.n} but the scroll embeds n={scroll.n}"
        )
    return (x.a, x.b - x.a * scroll.beta)


def scroll_canonical_class(r: int) -> tuple[int, int]:
    """Scroll canonical class -2H + (r-3)L in the (H, L) basis."""
    if r < 3:
        raise InvalidInput(f"scrolls need r >= 3, got r={r}")
    return (-2, r - 3)


def intersect_on_scroll(r: int, c1: tuple[int, int], c2: tuple[int, int]) -> int:
    """Intersection number of h*H + l*L classes on the degree r-1 scroll."""
    if r < 3:
        raise InvalidInput(f"scrolls need r >= 3, got r={r}")
    h1, l1 = c1
    h2, l2 = c2
    return h1 * h2 * (r - 1) + h1 * l2 + h2 * l1
