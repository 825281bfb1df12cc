"""Extremal-curve models: classification, verification, construction.

An extremal curve of degree d >= 2r+1 in P^r (genus equal to the maximal
genus pi(d, r)) is, up to the classical trichotomy, one of

  * a plane curve of degree k embedded by conics (only r = 5, d = 2k),
  * a curve in |m*H + L| on a scroll (remainder eps = 0),
  * a curve in |(m+1)*H - (r-eps-2)*L| on a scroll,

and the scroll classes are what the gonality theory consumes: the ruling
cuts out the gonality pencil, so type-II models are m-gonal and type-III
models are (m+1)-gonal, while the plane model of degree k is (k-1)-gonal.

``ExtremalModel(kind, d, r)`` refuses d < 2r+1 and derives every other
field: the split (m, eps) and the genus pi(d, r) from ``profile``, gamma,
the scroll class and k from the kind.  Those per-kind formulas live in
one private helper that the constructor and ``classify_extremal`` share;
callers that computed a field another way pass it as a claim for the
constructor to confirm.

``classify_extremal`` enumerates the candidate models for (d, r); they
are candidates, not a unique answer.  ``verify_extremal_class`` checks a
scroll class by adjunction against the genus bound.  ``embed_extremal``
runs the constructive direction: it takes a class gamma*C0 + lambda*L on
a Hirzebruch surface and produces its unisecant embedding, an extremal
model when gamma >= 4 (gamma = 3 lands at d = 2r-1, below the regime).
These two and ``gonality_from_class`` are the lattice layer's only users
here, and they import it when called, so classifying and scanning never
load it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .castelnuovo import CurveProfile, profile
from .errors import (
    DomainError,
    EmbeddingError,
    InvalidInput,
    PlaneCurveContraction,
    UnsupportedInput,
)


class ModelKind(Enum):
    TYPE_II = "type_ii"
    TYPE_III = "type_iii"
    PLANE_VERONESE = "plane_veronese"

    def __str__(self) -> str:  # serialization token, as for ``Status``
        return self._value_


class ExtremalModel(namedtuple("ExtremalModel", "kind d r m eps gamma g scroll_class k")):
    """One candidate model of an extremal curve of degree d in P^r.

    (kind, d, r) determine the rest, and d < 2r+1 is refused.  m, eps and
    the genus g = pi(d, r) come from ``profile``; the kind gives gamma,
    the scroll class in the (H, L) basis (scroll kinds) and the plane
    degree k (plane kind only).  The fields after r are optional claims:
    each one given is checked on its own against the derived value, and a
    disagreement is refused.
    """

    __slots__ = ()

    def __new__(cls, kind: ModelKind, d: int, r: int, m: int | None = None,
                eps: int | None = None, gamma: int | None = None, g: int | None = None,
                scroll_class: tuple[int, int] | None = None, k: int | None = None):
        p = profile(d, r)
        if m not in (None, p.m) or eps not in (None, p.eps):
            given = tuple.__new__(cls, (kind, d, r, m, eps, gamma, g, scroll_class, k))
            raise InvalidInput(f"(m, eps) do not split d-1 for {given}")
        if g not in (None, p.pi):
            raise InvalidInput(f"genus {g} is not the maximal genus {p.pi}")
        model = _model(kind, p)
        if kind is ModelKind.TYPE_II:
            if p.eps != 0 or gamma not in (None, model.gamma):
                raise InvalidInput("type-II models need eps=0 and gamma=m")
            if scroll_class not in (None, model.scroll_class) or k is not None:
                raise InvalidInput("type-II models live in |m*H + L|")
        elif kind is ModelKind.TYPE_III:
            if gamma not in (None, model.gamma):
                raise InvalidInput("type-III models need gamma=m+1")
            if scroll_class not in (None, model.scroll_class) or k is not None:
                raise InvalidInput("type-III models live in |(m+1)*H - (r-eps-2)*L|")
        else:  # the plane kind: ``_model`` refused every other
            if r != 5 or d % 2 or k not in (None, model.k):
                raise InvalidInput("plane models need r=5 and d=2k")
            if gamma not in (None, model.gamma) or scroll_class is not None:
                raise InvalidInput("plane models of degree k are (k-1)-gonal")
        return model

    @property
    def class_label(self) -> str:
        """Human-readable class, e.g. '4H+L', '5H-4L', or '' for plane models."""
        if self.scroll_class is None:
            return ""
        h, l = self.scroll_class
        head = "H" if h == 1 else f"{h}H"
        if l == 0:
            return head
        if l == 1:
            return head + "+L"
        if l == -1:
            return head + "-L"
        return f"{head}{l:+d}L"

    def record(self) -> dict:
        return {
            "kind": self.kind.value,
            "gamma": self.gamma,
            "m": self.m,
            "eps": self.eps,
            "d": self.d,
            "r": self.r,
            "genus": self.g,
            "class": self.class_label,
            "k": self.k,
        }


# The kinds as globals for the per-model paths below: EnumType defines
# __getattr__, which takes every read of a member off the class
# (ModelKind.TYPE_II) off the fast path, at about ten times a global read.
_TYPE_II, _TYPE_III, _PLANE_VERONESE = ModelKind


def _model(kind: ModelKind, p: CurveProfile) -> ExtremalModel:
    """The model of ``kind`` on the profile p, unchecked: the one place
    that derives gamma, the scroll class and the plane degree k."""
    d, r, m, eps, pi = p
    if kind is _TYPE_II:
        gamma, scroll, k = m, (m, 1), None
    elif kind is _TYPE_III:
        gamma, scroll, k = m + 1, (m + 1, -(r - eps - 2)), None
    elif kind is _PLANE_VERONESE:
        gamma, scroll, k = d // 2 - 1, None, d // 2
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")
    return tuple.__new__(ExtremalModel, (kind, d, r, m, eps, gamma, pi, scroll, k))


def classify_extremal(d: int, r: int) -> list[ExtremalModel]:
    """Candidate models for an extremal curve of degree d in P^r.

    Always contains the type-III model; adds the type-II model when
    eps = 0 (listed first, it has the lower gonality) and the plane model
    when r = 5 and d = 2k is even (listed last; k >= 6 holds automatically
    once d >= 2r+1).  One ``profile`` call serves every model, and its
    strict mode refuses r < 3 and d < 2r+1 as the model constructor does.
    """
    p = profile(d, r)
    models = [_model(_TYPE_II, p)] if p.eps == 0 else []
    models.append(_model(_TYPE_III, p))
    if r == 5 and d % 2 == 0:
        models.append(_model(_PLANE_VERONESE, p))
    return models


def verify_extremal_class(h: int, l: int, scroll: ScrollEmbedding) -> bool:
    """Whether the class h*H + l*L on the scroll is an extremal-curve class.

    Computes the degree d = h*(r-1) + l and the adjunction genus of the
    class h*C0 + (l + h*beta)*L on the surface, and compares with the
    maximal genus.  Classes with d < 2r+1 are outside the extremal regime
    and verify False; d <= 0 is a domain error.
    """
    from .lattice import DivisorClass, formal_genus

    r = scroll.r
    d = h * (r - 1) + l
    if d <= 0:
        raise DomainError(f"class {h}H{l:+d}L has non-positive degree {d}")
    if d < 2 * r + 1:
        return False
    return formal_genus(DivisorClass(scroll.n, h, l + h * scroll.beta)) == profile(d, r).pi


class EmbedResult(namedtuple(
        "EmbedResult", "gamma lam n scroll eps profile genus model hypothesis_met")):
    """Output of ``embed_extremal``.

    ``gamma``, ``lam``, ``n`` are the inputs after ruling normalization on
    n=0.  ``eps`` is the division remainder lambda - n - 1 = beta*(gamma-2)
    + eps.  When the hypothesis 2*lambda >= gamma*(gamma+n-2) holds,
    ``hypothesis_met`` is True and ``model`` carries the type-III model,
    except for gamma = 3: that image has d = 2r-1, below the regime, and
    no model.  Without the hypothesis ``model`` is None too (unproven).
    ``scroll`` is the ``ScrollEmbedding``, ``profile`` the image's
    ``CurveProfile`` and ``genus`` the adjunction genus of the class.
    """

    __slots__ = ()

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def r(self) -> int:
        return self.profile.r


def embed_extremal(gamma: int, lam: int, n: int) -> EmbedResult:
    """Embed the curve class gamma*C0 + lambda*L by a unisecant system under
    which it becomes an extremal curve.

    Sets beta = (lambda-n-1) div (gamma-2) and eps the remainder, embeds by
    |C0 + beta*L| into P^r with r = 2*beta+1-n, and the image has degree
    d = gamma*(beta-n) + lambda.  Under 2*lambda >= gamma*(gamma+n-2) the
    image attains pi(d, r) with ratio gamma-1 and remainder eps; it is
    extremal for gamma >= 4, as d - (2r+1) = (gamma-3)(r-1) - 2 + eps >= 0,
    and lands at d = 2r-1 for gamma = 3 (eps = 0), so no model is built.
    Without the hypothesis the embedding is returned unproven.

    Refuses gamma < 3 (after the n=0 ruling swap), classes that are not
    irreducible-smoothable, and multiples of C0+L on n=1, which blow down
    to plane curves instead of embedding.  beta = n is allowed exactly
    when lambda = gamma*n: the unisecant model is then a cone, but the
    curve misses the contracted section and still embeds.
    """
    from .lattice import (
        DivisorClass,
        ScrollEmbedding,
        adjunction_genus,
        class_in_HL,
        is_irreducible_smoothable,
    )

    x = DivisorClass(n, gamma, lam).normalized_ruling()
    gamma, lam, n = x.a, x.b, x.n
    if not is_irreducible_smoothable(x):
        raise DomainError(f"{x} is not an irreducible-smoothable class")
    if gamma < 3:
        raise UnsupportedInput(
            f"gonality coefficient {gamma} < 3: the unisecant split divides by gamma-2"
        )
    if n == 1 and lam == gamma:
        raise PlaneCurveContraction(
            f"{x} is a multiple of C0+L on the n=1 surface: the unisecant map"
            f" contracts C0 and the image is a plane curve of degree {gamma}"
            f" with gonality {gamma - 1}, not cut out by the ruling"
        )
    beta, eps = divmod(lam - n - 1, gamma - 2)
    if beta < n:
        raise EmbeddingError(
            f"beta={beta} < n={n}: |C0 + beta*L| has no unisecant model"
        )
    if beta == n and lam > gamma * n:
        # the cone case: |C0 + n*L| contracts C0, and the curve meets it
        # in lam - gamma*n > 0 points, so the image is singular
        raise EmbeddingError(
            f"beta={beta} = n: the unisecant model is a cone and the curve"
            f" meets the contracted section (intersection {lam - gamma * n})"
        )
    scroll = ScrollEmbedding.from_unisecant(n, beta)
    d = gamma * (beta - n) + lam
    prof = profile(d, scroll.r, strict=False)
    genus = adjunction_genus(x)
    hypothesis = 2 * lam >= gamma * (gamma + n - 2)
    model = None
    if hypothesis:
        if (prof.m, prof.eps) != (gamma - 1, eps) or genus != prof.pi:
            raise ArithmeticError(
                f"embedding invariants broke for {x}: "
                f"m={prof.m} eps={prof.eps} g={genus} pi={prof.pi}"
            )
        if gamma > 3:
            model = ExtremalModel(ModelKind.TYPE_III, d, scroll.r, m=gamma - 1, eps=eps,
                                  gamma=gamma, g=genus, scroll_class=class_in_HL(x, scroll))
    return EmbedResult(
        gamma=gamma,
        lam=lam,
        n=n,
        scroll=scroll,
        eps=eps,
        profile=prof,
        genus=genus,
        model=model,
        hypothesis_met=hypothesis,
    )


def gonality_from_class(x: DivisorClass) -> int:
    """Gonality of a general member of |X|, read off the ruling.

    The ruling cuts a pencil of degree X.L = a, and that is the gonality
    except in two situations: on n=0 the two rulings compete (min(a, b)),
    and on n=1 the multiples alpha*(C0+L), alpha >= 2, blow down to plane
    curves of degree alpha with gonality alpha-1.
    """
    from .lattice import is_irreducible_smoothable

    if not is_irreducible_smoothable(x):
        raise DomainError(f"{x} is not an irreducible-smoothable class")
    a, b, n = x.a, x.b, x.n
    if n == 0:
        if (a, b) in ((0, 1), (1, 0)):
            raise DomainError(f"{x} is a ruling fiber; its members are lines")
        return min(a, b)
    if (a, b) == (0, 1):
        raise DomainError(f"{x} is a ruling fiber; its members are lines")
    if n == 1 and a == b and a >= 2:
        return a - 1
    return a
