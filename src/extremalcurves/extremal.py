"""Extremal-curve models: classification, verification, construction.

An extremal curve of degree d >= 2r+1 in P^r (genus equal to the maximal
genus pi(d, r)) is, up to the classical trichotomy, one of

  * a plane curve of degree k embedded by conics (only r = 5, d = 2k),
  * a curve in |m*H + L| on a scroll (remainder eps = 0),
  * a curve in |(m+1)*H - (r-eps-2)*L| on a scroll,

and the scroll classes are what the gonality theory consumes: the ruling
cuts out the gonality pencil, so type-II models are m-gonal and type-III
models are (m+1)-gonal, while the plane model of degree k is (k-1)-gonal.

``classify_extremal`` lists the candidate models for (d, r); they are
candidates, not a unique answer.  ``classify_runs`` walks the degrees of
one r a run at a time: it checks (d, r) once, then steps the split
(m, eps) by ``divmod`` and lists each run's models.  Both list through
one private helper, the one place that says when a kind exists and
derives each kind's fields, and ``ExtremalModel(kind, d, r)`` is the
model of that kind the list holds.  ``verify_extremal_class`` checks a
scroll class by adjunction against the genus bound.  ``embed_extremal``
runs the constructive direction: it takes a class gamma*C0 + lambda*L on
a Hirzebruch surface and produces its unisecant embedding, an extremal
model when gamma >= 4 (gamma = 3 lands at d = 2r-1, below the regime).
Its private ``_unisecant_images`` is the one computation of a class's
images under |C0 + beta*L|: it yields each scroll and the image's
degree, and the caller profiles the image.  The foursecant sweep
re-embeds through it too, and its type-III model is each image's only
profile.  These two and ``verify_extremal_class`` are the lattice
layer's only users here, and each imports it inside the function, so
classifying and scanning never load it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .castelnuovo import max_genus, profile
from .errors import (
    DomainError,
    EmbeddingError,
    InvalidInput,
    PlaneCurveContraction,
    UnsupportedInput,
    need_int,
)


class ModelKind(Enum):
    TYPE_II = "type_ii"
    TYPE_III = "type_iii"
    PLANE_VERONESE = "plane_veronese"

    def __str__(self) -> str:  # serialization token, as for ``Status``
        return self._value_


class ExtremalModel(namedtuple("ExtremalModel", "kind d r m eps gamma g scroll_class k")):
    """One candidate model of an extremal curve of degree d in P^r.

    (kind, d, r) determine the rest: the constructor returns the model of
    ``kind`` that ``classify_extremal(d, r)`` lists, and refuses d < 2r+1
    and a kind absent at (d, r).  m, eps and the genus g = pi(d, r) come
    from ``profile``; the kind gives gamma, the scroll class in the
    (H, L) basis (scroll kinds) and the plane degree k (plane kind only).
    The fields after r are optional claims: each one given is compared
    with the model's field, and a disagreement is refused with a message
    naming the field, the claim and the model.
    """

    __slots__ = ()

    def __new__(cls, kind: ModelKind, d: int, r: int, m: int | None = None,
                eps: int | None = None, gamma: int | None = None, g: int | None = None,
                scroll_class: tuple[int, int] | None = None, k: int | None = None):
        for model in classify_extremal(d, r):
            if model.kind is kind:
                break
        else:
            raise InvalidInput(
                f"no {kind} model at d={d} r={r}: type-II models need eps=0"
                " and plane models need r=5 and d=2k"
                if isinstance(kind, ModelKind) else f"unknown model kind {kind!r}")
        claims = (m, eps, gamma, g, scroll_class, k)
        for name, claim, value in zip(cls._fields[3:], claims, model[3:]):
            if claim is not None and claim != value:
                raise InvalidInput(f"claimed {name}={claim!r}, but the model is {model}")
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
            "kind": str(self.kind),
            "gamma": self.gamma,
            "m": self.m,
            "eps": self.eps,
            "d": self.d,
            "r": self.r,
            "genus": self.g,
            "class": self.class_label,
            "k": self.k,
        }


def classify_extremal(d: int, r: int) -> list[ExtremalModel]:
    """Candidate models for an extremal curve of degree d in P^r, as
    ``classify_runs`` lists them; ``profile`` refuses r < 3 and d < 2r+1."""
    return _models(*profile(d, r))


def _models(d: int, r: int, m: int, eps: int, pi: int) -> list[ExtremalModel]:
    """The candidate models on the split (m, eps) of (d, r), unchecked.

    Always the type-III model, of gamma m+1 and class (m+1)H - (r-eps-2)L.
    First the type-II model, of gamma m and class mH + L, when eps = 0 (it
    has the lower gonality).  Last the plane model of degree k = d/2 and
    gamma k-1 when r = 5 and d is even (k >= 6 holds once d >= 2r+1).
    These are the only existence conditions: the model constructor refuses
    any kind this list omits."""
    new = tuple.__new__
    models = [] if eps else [
        new(ExtremalModel, (ModelKind.TYPE_II, d, r, m, eps, m, pi, (m, 1), None))]
    models.append(new(ExtremalModel, (ModelKind.TYPE_III, d, r, m, eps, m + 1, pi,
                                      (m + 1, -(r - eps - 2)), None)))
    if r == 5 and d % 2 == 0:
        models.append(new(ExtremalModel, (ModelKind.PLANE_VERONESE, d, r, m, eps, d // 2 - 1,
                                          pi, None, d // 2)))
    return models


def classify_runs(r: int, d: int, stop: int) -> Iterator[tuple[list[ExtremalModel], int]]:
    """The candidate models over the degrees d up to stop in P^r, a run at a
    time: the list at the run's first degree and the run's end (at most
    stop).  The kinds change only at eps = 0 and, at r = 5, with the parity
    of d, so a run is one degree there, else the rest of the period of m,
    over which m, the kinds and gamma stay and eps steps by one.  One
    ``profile`` call checks (d, r) and splits d; later runs step the split."""
    _, _, m, eps, pi = profile(d, r)
    while d < stop:
        end = d + 1 if eps == 0 or r == 5 else d + r - 1 - eps
        yield _models(d, r, m, eps, pi), min(end, stop)
        d = end
        m, eps = divmod(d - 1, r - 1)
        pi = max_genus(m, eps, r)


def verify_extremal_class(h: int, l: int, scroll: ScrollEmbedding) -> bool:
    """Whether the class h*H + l*L on the scroll is an extremal-curve class.

    Computes the degree d = h*(r-1) + l and the adjunction genus of the
    class h*C0 + (l + h*beta)*L on the surface, and compares with the
    maximal genus.  Classes with d < 2r+1 are outside the extremal regime
    and verify False; d <= 0 is a domain error.
    """
    from . import lattice

    r = scroll.r
    d = h * (r - 1) + l
    if d <= 0:
        raise DomainError(f"class {h}H{l:+d}L has non-positive degree {d}")
    if d < 2 * r + 1:
        return False
    x = lattice.DivisorClass(scroll.n, h, l + h * scroll.beta)
    return lattice.formal_genus(x) == profile(d, r).pi


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


def _unisecant_images(x: DivisorClass, betas) -> Iterator[tuple[ScrollEmbedding, int]]:
    """For each beta in turn, the scroll of |C0 + beta*L| on x's surface and
    the degree X.H of x's image on it, which the caller profiles once."""
    from . import lattice

    for beta in betas:
        scroll = lattice.ScrollEmbedding.from_unisecant(x.n, beta)
        yield scroll, lattice.intersect(x, scroll.hyperplane_class)


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

    Refuses classes that are not irreducible-smoothable, gamma < 3 (after
    the n=0 ruling swap) and classes whose gonality is not gamma: on n=1
    the multiples of C0+L blow down to plane curves.  As lambda >= gamma*n,
    beta >= n; beta = n is allowed exactly when lambda = gamma*n: the
    unisecant model is then a cone, but the curve misses its vertex.
    """
    need_int(gamma=gamma, lam=lam, n=n)
    from . import lattice

    x = lattice.DivisorClass(n, gamma, lam).normalized_ruling()
    gamma, lam, n = x.a, x.b, x.n
    genus = lattice.adjunction_genus(x)
    if gamma < 3:
        raise UnsupportedInput(
            f"gonality coefficient {gamma} < 3: the unisecant split divides by gamma-2"
        )
    if (gonality := lattice.gonality_from_class(x)) != gamma:
        raise PlaneCurveContraction(
            f"{x} is a multiple of C0+L on the n=1 surface: the unisecant map"
            f" contracts C0 and the image is a plane curve of degree {gamma}"
            f" with gonality {gonality}, not cut out by the ruling"
        )
    beta, eps = divmod(lam - n - 1, gamma - 2)
    if beta == n and lam > gamma * n:
        # the cone case: |C0 + n*L| contracts C0, and the curve meets it
        # in lam - gamma*n > 0 points, so the image is singular
        raise EmbeddingError(
            f"beta={beta} = n: the unisecant model is a cone and the curve"
            f" meets the contracted section (intersection {lam - gamma * n})"
        )
    [(scroll, d)] = _unisecant_images(x, [beta])
    prof = profile(d, scroll.r, strict=False)
    hypothesis = 2 * lam >= gamma * (gamma + n - 2)
    model = None
    if hypothesis:
        if gamma > 3:
            model = ExtremalModel(ModelKind.TYPE_III, prof.d, prof.r)
        got = (prof.m, prof.eps, prof.pi, model and model.scroll_class)
        want = (gamma - 1, eps, genus, model and lattice.class_in_HL(x, scroll))
        if got != want:
            raise ArithmeticError(
                f"embedding invariants broke for {x}: (m, eps, g, scroll_class)"
                f" is {got} for the image but {want} for the class")
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
