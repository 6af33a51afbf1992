"""Adaptive quadrature on the unit disc.

Integrals are taken against the normalized area measure dA (total mass
one) or its weighted variant dA_eta = (eta+1)*(1-|z|)**eta dA.  One
engine serves every integral.  A box is a segment (for radial
integrals) or a rectangle (for polar panels); a coordinate map carries
the tensor Gauss-Legendre rule on the box to points and weights.  Seed
boxes are aligned with the boundary of the requested region, a
coarse/fine estimate pair (the box against its children) gives every
box an error indicator, and the box with the worst indicator is bisected
along every axis until the summed indicators drop below
``tol * (1 + |result|)`` or the evaluation budget runs out, in which case
:class:`ToleranceNotReached` carries the best estimate out.

Polar rectangles are bands in the exact coordinate u = 1 - |z|: the
region u_out < 1 - |z| <= u_in, t0 <= arg z < t1.  A level-n top half
is the band (2**-n, 2**-(n+1)), a Carleson square (2**-n, 0) and the
whole disc (1, 0), each exact at every level, although 1 - 2**-n rounds
to 1 from level 54 on; ``integrate_polar_rect`` takes radii and converts
them to u once.

A field is a sum of radial profiles times constant matrices, its
``terms`` (see :class:`MatrixField`), and takes one band route on every
polar rectangle: the whole disc, Carleson squares, top halves, annuli
and the squares of the weight checker.  Its integral is the arc fraction
times the band mass; a dyadic arc's fraction is the exact 2**-n.  A
power term's mass is taken in closed form at u_in and u_out, and a
function term's mass from the engine on its scalar profile over a
segment; the result is the sum of mass times matrix, so the cost does
not grow with the dimension and the evaluator is never called.  Every
other region goes through the evaluator.

Every polar rectangle uses one map, (v, t) -> (1 - v**p) e^{it} with
u = v**p.  The integer p is chosen from the combined exponent q of the
measure and the field's declared boundary power (1-|z|)**s, q = eta + s,
so that the transplanted power p*(1+q)-1 of v is a non-negative integer
whenever q is rational with a moderate denominator; q = 0 gives p = 1.
The radial factor then turns into a polynomial and integrable
singularities (q > -1) converge at the smooth-panel rate instead of
stalling the refinement loop.  The other maps are local polar rectangles
about the center of a HyperbolicDisc and the exact TildeDisc map
(t, phi) -> c + t s*(phi) e^{i phi} with t in [0, 1] and Jacobian
t s*(phi)**2.  Its edge is s*(phi) = C / (B + sqrt(B**2 - A C)) with
A = 1/rho**2 - 1, B = 1/rho + Re(conj(c) e^{i phi}) and C = 1 - |c|**2,
so every node lies in the region and the integrand stays smooth up to
the edge.

Panels are evaluated in batches: a box is measured together with its
children, the seeds in one sweep and the children of each refined box in
one sweep, with one call of the integrand and one einsum per chunk of at
most BATCH_ENTRIES value entries.  The cap keeps memory flat for wide
matrix fields: uncapped, the average of the 64x64 identity over a
hyperbolic disc raised the peak resident set by 255 MB instead of 13 MB.
The refined boxes, the arithmetic at each node and the order of every
sum are those of one panel at a time, and reductions are performed in a
fixed panel order, so repeated calls with identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .disc_geometry import (
    CarlesonSquare,
    HyperbolicDisc,
    Region,
    TildeDisc,
    TopHalf,
    TWO_PI,
    WholeDisc,
)
from .errors import ToleranceNotReached

DEFAULT_TOL = 1e-8
#: Node evaluation budget per integrate call.
DEFAULT_BUDGET = 2_000_000
GAUSS_ORDER = 10
#: Most value entries (nodes times entries per value) one evaluator call
#: receives; a panel larger than that is evaluated alone.
BATCH_ENTRIES = 2 ** 14
#: Points mapped closer to the boundary than this are clamped before the
#: field evaluator or a profile reads r; keeps panels clear of 1-|z| == 0.
_BOUNDARY_CLAMP = 1e-15


@functools.cache
def _gauss() -> tuple[np.ndarray, np.ndarray]:
    # on first use: importing numpy.polynomial costs about 1 MB of memory
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on the segments [a, b], one row per panel."""
    x, w = _gauss()
    half = (0.5 * (b - a))[:, None]
    return half * x + (0.5 * (a + b))[:, None], half * w


@dataclass(frozen=True)
class MeasureSpec:
    """Reference measure dA_eta; eta = 0 is the plain normalized area."""

    eta: float = 0.0

    def __post_init__(self):
        if not self.eta > -1.0:
            raise ValueError(f"eta must exceed -1, got {self.eta}")


PLAIN = MeasureSpec(0.0)


@dataclass(frozen=True)
class MatrixField:
    """Hermitian-matrix-valued radial function on the disc.

    ``terms`` define the field as a sum W(z) = sum_j phi_j(|z|) M_j of
    (profile, matrix) pairs: a profile is an exponent s, meaning
    (1-r)**s, or a vectorized function of r, and every matrix is
    dim x dim.  Polar rectangles read the terms, see
    ``integrate_polar_rect``; every other region reads the evaluator,
    which takes a complex array of shape (m,) and returns values of
    shape (m, dim, dim).  It is sum_j phi_j(|z|) M_j, summed from the
    first term; an evaluator passed with the terms must agree with them.
    Only the tilted ``DiagonalPowerWeight`` passes one, see there, and an
    instrumented copy is ``dataclasses.replace(field, evaluator=...)``.

    ``singular_exponent`` declares boundary behavior like (1-|z|)**s so
    quadrature can pick the substituted radial variable; the field keeps
    the least of the declared value and its power exponents.  Each of
    them must be finite and exceed -1.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    singular_exponent: float = 0.0
    terms: tuple[tuple[float | Callable, np.ndarray], ...] = dataclass_field(
        default=(), compare=False
    )

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        terms = tuple(
            (p if callable(p) else float(p), np.asarray(m, dtype=complex))
            for p, m in self.terms or ()
        )
        if not terms:
            raise ValueError("a field needs terms")
        if any(m.shape != (self.dim, self.dim) for _, m in terms):
            raise ValueError("terms need square matrices of the field dimension")
        object.__setattr__(self, "terms", terms)
        exponents = [self.singular_exponent] + [p for p, _ in terms if not callable(p)]
        for s in exponents:
            if not math.isfinite(s):
                raise ValueError(f"exponent {s} must be finite")
            if not s > -1.0:
                raise ValueError("singular exponent must exceed -1 to be integrable")
        object.__setattr__(self, "singular_exponent", min(exponents))
        if self.evaluator is None:
            object.__setattr__(self, "evaluator", _terms_evaluator(terms))


def _terms_evaluator(terms):
    """The evaluator sum_j phi_j(|z|) M_j of a field's terms."""

    def evaluator(z: np.ndarray) -> np.ndarray:
        r = np.abs(z)
        # from the first term, not from zeros: a one-term field evaluates
        # to profile times matrix, and a constant field to its matrix
        total = None
        for profile, matrix in terms:
            prof = profile(r) if callable(profile) else (1.0 - r) ** profile
            value = prof[:, None, None] * matrix
            total = value if total is None else total + value
        return total

    return evaluator


def _square_matrix(matrix: np.ndarray, label: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{label} needs a square matrix")
    return m


def constant_field(matrix: np.ndarray) -> MatrixField:
    """Field taking a single constant Hermitian value."""
    m = _square_matrix(matrix, "constant field")
    return MatrixField(dim=m.shape[0], terms=((0.0, m),))


def identity_field(dim: int) -> MatrixField:
    return constant_field(np.eye(dim))


def radial_power_field(exponent: float, matrix: np.ndarray) -> MatrixField:
    """Field (1-|z|)**exponent * M for a constant Hermitian M."""
    m = _square_matrix(matrix, "radial power field")
    return MatrixField(dim=m.shape[0], terms=((exponent, m),))


# ---------------------------------------------------------------------------
# adaptive engine


def _rule(fn, shape, nodes):
    """Panel estimator: the tensor Gauss rule on boxes pushed through a map.

    ``nodes(boxes)`` maps a (P, 2) or (P, 4) array of boxes to
    points with a leading panel axis, the weight factors and the einsum
    subscripts contracting them with the values of fn.  Returns the
    (P, *shape) estimates, chunked under BATCH_ENTRIES, and the count of
    evaluations.
    """
    size = math.prod(shape)

    def estimate(boxes):
        per_panel = GAUSS_ORDER ** (len(boxes[0]) // 2)
        step = max(1, BATCH_ENTRIES // (per_panel * size))
        parts = []
        for k in range(0, len(boxes), step):
            z, weights, subscripts = nodes(np.array(boxes[k:k + step]))
            vals = np.asarray(fn(z.ravel())).reshape(*z.shape, *shape)
            parts.append(np.einsum(subscripts, *weights, vals))
        return np.concatenate(parts), len(boxes) * per_panel

    return estimate


def _line(boxes):
    """Segments [a, b] of the real line, unit weight."""
    x, w = _panel_nodes(boxes[:, 0], boxes[:, 1])
    return x, (w,), "pi,pi...->p..."


def _power_substitution(q: float) -> int:
    """Integer p for the boundary substitution 1-r = u**p.

    Preference: smallest p <= 128 making p*(1+q) a positive integer, so
    the transplanted radial power u**(p*(1+q)-1) is polynomial.  When no
    such p exists the power stays fractional but is kept non-negative,
    which leaves the integrand bounded.
    """
    power = 1.0 + q
    for p in range(1, 129):
        t = p * power
        if round(t) >= 1 and abs(t - round(t)) < 1e-9 * max(1.0, t):
            return p
    return max(1, math.ceil(1.0 / power))


def _polar(eta, p):
    """Polar rectangles in (v, t) with 1 - |z| = u = v**p.

    The measure factor (eta+1)*(1-r)**eta r dr becomes
    (eta+1)*p*v**(p*(1+eta)-1) r dv, exact powers of v; see the module
    docstring for the choice of p.
    """

    def nodes(boxes):
        v0, v1, t0, t1 = boxes.T
        v, wv = _panel_nodes(v0, v1)
        r = np.minimum(1.0 - v ** p, 1.0 - _BOUNDARY_CLAMP)
        radial_w = wv * (eta + 1.0) * p * v ** (p * (1.0 + eta) - 1.0) * r / math.pi
        t, wt = _panel_nodes(t0, t1)
        z = r[:, :, None] * np.exp(1j * t)[:, None, :]
        return z, (radial_w, wt), "pi,pj,pij...->p..."

    return nodes


def _local_polar(eta, center, edge):
    """(s, phi) -> center + s*edge(phi)*e^{i phi}, Jacobian s*edge(phi)**2.

    The measure weight is evaluated at the global modulus of each mapped
    node.
    """

    def nodes(boxes):
        s0, s1, p0, p1 = boxes.T
        s, ws = _panel_nodes(s0, s1)
        phi, wp = _panel_nodes(p0, p1)
        e = edge(phi)
        z = center + (s[:, :, None] * e[:, None, :]) * np.exp(1j * phi)[:, None, :]
        safe = np.minimum(np.abs(z), 1.0 - _BOUNDARY_CLAMP)
        weight = (ws * s)[:, :, None] * (wp * e * e)[:, None, :] / math.pi
        weight = weight * (eta + 1.0) * (1.0 - safe) ** eta
        return z, (weight,), "pij,pij...->p..."

    return nodes


def _tilde_edge(center: complex, ratio: float):
    """Distance s*(phi) from the center to the edge of a TildeDisc.

    On the edge |z - c| = ratio*(1 - |z|) with z = c + s*e^{i phi}, which
    is the quadratic A s**2 - 2 B s + C = 0; s* is its smaller root.
    """
    a = 1.0 / ratio ** 2 - 1.0
    c = 1.0 - abs(center) ** 2

    def edge(phi):
        b = 1.0 / ratio + np.real(np.conj(center) * np.exp(1j * phi))
        # B**2 - A*C vanishes at the corner the edge has when it passes
        # through the origin; keep roundoff from turning it negative
        return c / (b + np.sqrt(np.maximum(b * b - a * c, 0.0)))

    return edge


def _value_norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v).ravel()))


def _split(box):
    """Bisect every axis: 2 children of a segment, 4 of a rectangle."""
    halves = []
    for lo, hi in zip(box[::2], box[1::2]):
        mid = 0.5 * (lo + hi)
        halves.append(((lo, mid), (mid, hi)))
    return [sum(parts, ()) for parts in itertools.product(*halves)]


def _adapt(estimate, boxes, tol, budget):
    """Greedy worst-box refinement over seed boxes.

    A box is a segment (a, b) or a rectangle (x0, x1, y0, y1), and
    ``estimate(boxes)`` returns the estimates of a list of boxes and
    their evaluation count.  A box is measured with its children, in
    sweeps: all seeds, then all children of each refined box, each sweep
    in chunks under BATCH_ENTRIES (see the module docstring).  Returns
    (value, error_estimate, evaluations).  The reported value is re-summed
    over surviving boxes in a fixed order for bit stability.
    """
    # heap entries (-err, counter, seed index, box, estimate): the unique
    # counter breaks ties, so boxes and estimates are never compared
    heap = []
    counter = itertools.count()
    evals = 0
    total = None
    err_sum = 0.0

    def measure(boxes):
        nonlocal evals
        families = [[box] + _split(box) for box in boxes]
        values, n = estimate([b for family in families for b in family])
        evals += n
        size = len(families[0])
        for k in range(0, len(values), size):
            coarse, fine, *rest = values[k:k + size]
            for v in rest:
                fine = fine + v
            yield fine, _value_norm(coarse - fine)

    for pid, (box, (fine, err)) in enumerate(zip(boxes, measure(boxes))):
        heapq.heappush(heap, (-err, next(counter), pid, box, fine))
        total = fine if total is None else total + fine
        err_sum += err

    while err_sum > tol * (1.0 + _value_norm(total)):
        if evals >= budget:
            raise ToleranceNotReached(
                f"error estimate {err_sum:.3e} above requested {tol:.3e} "
                f"after {evals} evaluations",
                value=total,
                achieved=err_sum,
                evaluations=evals,
            )
        neg_err, _, pid, box, fine = heapq.heappop(heap)
        total = total - fine
        err_sum += neg_err
        children = _split(box)
        for child, (cfine, cerr) in zip(children, measure(children)):
            heapq.heappush(heap, (-cerr, next(counter), pid, child, cfine))
            total = total + cfine
            err_sum += cerr

    ordered = sorted(heap, key=lambda entry: (entry[2], entry[3]))
    final = ordered[0][4]
    for entry in ordered[1:]:
        final = final + entry[4]
    return final, err_sum, evals


def _cuts(a, b, breaks):
    return [a] + sorted(p for p in breaks if a < p < b) + [b]


def _seed_rects(x0, x1, xbreaks, y0, y1, ybreaks, max_y_span=0.5 * math.pi):
    xs = _cuts(x0, x1, xbreaks)
    ys = _cuts(y0, y1, ybreaks)
    refined = []
    for a, b in zip(ys[:-1], ys[1:]):
        pieces = max(1, math.ceil((b - a) / max_y_span))
        step = (b - a) / pieces
        refined.extend(a + i * step for i in range(pieces))
    refined.append(y1)
    ys = refined
    return [
        (xa, xb, ya, yb)
        for xa, xb in zip(xs[:-1], xs[1:])
        for ya, yb in zip(ys[:-1], ys[1:])
    ]


def _polar_rect_integrate(
    fn, shape, eta, singular_exponent, u_in, u_out, t0, t1, tol, budget,
    radial_breaks=(), angular_breaks=(),
):
    """The band u_out < 1-|z| <= u_in, t0 <= arg z < t1, seeded in v = u**(1/p)."""
    p = _power_substitution(eta + singular_exponent)
    inv_p = 1.0 / p
    vbreaks = [(1.0 - rb) ** inv_p for rb in radial_breaks if u_out < 1.0 - rb < u_in]
    estimate = _rule(fn, shape, _polar(eta, p))
    rects = _seed_rects(u_out ** inv_p, u_in ** inv_p, vbreaks, t0, t1, angular_breaks)
    return _adapt(estimate, rects, tol, budget)


def _local_polar_integrate(fn, shape, eta, region, tol, budget):
    """HyperbolicDisc or TildeDisc in polar coordinates about its center."""
    center = region.center
    if isinstance(region, HyperbolicDisc):
        rho = region.euclidean_radius
        # a Euclidean disc: the box's first axis is the distance s itself
        nodes = _local_polar(eta, center, np.ones_like)
        rects = _seed_rects(0.0, rho, [0.5 * rho], 0.0, TWO_PI, ())
    else:
        # the edge has its only corner in the direction of the origin, so
        # the angular period starts there
        phi0 = cmath.phase(-center)
        nodes = _local_polar(eta, center, _tilde_edge(center, region.ratio))
        rects = _seed_rects(0.0, 1.0, (), phi0, phi0 + TWO_PI, ())
    estimate = _rule(fn, shape, nodes)
    return _adapt(estimate, rects, tol, budget)


# ---------------------------------------------------------------------------
# one-dimensional radial integrals


def radial_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    q: float = 0.0,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
):
    """Integral of fn(r) * (1-r)**q over [a, b] for smooth vectorized fn.

    The power factor is applied by the integrator itself in the
    substituted variable 1-r = u**p, where it becomes the polynomial
    p * u**(p*(1+q)-1): no (1-r)**q is ever formed near r = 1, so power
    weights integrate without cancellation.
    """
    if not q > -1.0:
        raise ValueError("q must exceed -1 for an integrable power")
    if not a < b <= 1.0:
        raise ValueError("need a < b <= 1")
    probe = np.asarray(fn(np.array([0.5 * (a + b)])))
    shape = probe.shape[1:]
    p = _power_substitution(q)
    alpha = p * (1.0 + q) - 1.0

    def integrand(u: np.ndarray) -> np.ndarray:
        vals = np.asarray(fn(1.0 - u ** p))
        w = p * u ** alpha
        return vals * w.reshape((-1,) + (1,) * (vals.ndim - 1))

    seg = ((1.0 - b) ** (1.0 / p), (1.0 - a) ** (1.0 / p))
    value, _, _ = _adapt(_rule(integrand, shape, _line), [seg], tol, budget)
    return value if shape else complex(value).real


def _profile_mass(profile, eta, singular_exponent, u_in, u_out, tol, budget):
    """Integral of profile(r) * w_eta(r) * 2r dr over the band
    u_out < 1-r <= u_in: the dA_eta mass of a function term there.

    With q = eta + s != 0 the nodes lie in v with 1-r = v**p, as in
    ``_polar``; with q = 0 they lie in r, where the ``random`` density's
    recorded bits were taken.
    """
    q = eta + singular_exponent
    if q != 0.0:
        p = _power_substitution(q)

        def integrand(v):
            r = np.minimum(1.0 - v ** p, 1.0 - _BOUNDARY_CLAMP)
            w = (eta + 1.0) * p * v ** (p * (1.0 + eta) - 1.0) * 2.0 * r
            return profile(r) * w

        seg = (u_out ** (1.0 / p), u_in ** (1.0 / p))
    else:

        def integrand(r):
            return profile(r) * ((eta + 1.0) * (1.0 - r) ** eta * 2.0 * r)

        seg = (1.0 - u_in, 1.0 - u_out)
    value, _, _ = _adapt(_rule(integrand, (), _line), [seg], tol, budget)
    return value


def _band(field, u_in, u_out, eta, tol, budget) -> np.ndarray:
    """sum_j mass_j M_j over the terms of a field: its integral over the
    band u_out < 1-|z| <= u_in against dA_eta.

    A power term (1-r)**s has the closed-form mass
    (eta+1) * 2[u**(q+1)/(q+1) - u**(q+2)/(q+2)] from u_out to u_in,
    with q = eta+s, evaluated at the exact band bounds, so no 1-|z| is
    formed.  A function term's mass comes from the engine on its scalar
    profile, at the field's singular exponent.
    """
    total = np.zeros((field.dim, field.dim), dtype=complex)
    for profile, matrix in field.terms:
        if callable(profile):
            mass = _profile_mass(
                profile, eta, field.singular_exponent, u_in, u_out, tol, budget
            )
        else:
            q = eta + profile
            if not q > -1.0:
                raise ValueError(f"radial power {q} is not integrable")

            def primitive(u):
                return u ** (q + 1.0) / (q + 1.0) - u ** (q + 2.0) / (q + 2.0)

            mass = (eta + 1.0) * 2.0 * (primitive(u_in) - primitive(u_out))
        total = total + mass * matrix
    return total


# ---------------------------------------------------------------------------
# public entry points


def _dyadic_bounds(region) -> tuple[float, float, float, float]:
    """(u_in, u_out, t0, t1) of a dyadic region, exact in u = 1 - |z|."""
    if isinstance(region, WholeDisc):
        return 1.0, 0.0, 0.0, TWO_PI
    if isinstance(region, CarlesonSquare):
        n = region.index.level
        lo, hi = region.index.theta_bounds()
        return 2.0 ** -n, 0.0, lo, hi
    if isinstance(region, TopHalf):
        n = region.index.level
        lo, hi = region.index.theta_bounds()
        return 2.0 ** -n, 2.0 ** -(n + 1), lo, hi
    raise TypeError(f"not a polar-rectangle region: {region!r}")


def integrate_values(
    fn: Callable[[np.ndarray], np.ndarray],
    value_shape: Sequence[int],
    region: Region,
    spec: MeasureSpec = PLAIN,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    singular_exponent: float = 0.0,
    radial_breaks: Sequence[float] = (),
    angular_breaks: Sequence[float] = (),
) -> np.ndarray:
    """Integrate an array-valued function over a region against dA_eta.

    This is the generic engine entry: ``integrate_scalar`` wraps it for
    scalars, and ``integrate`` for a field's evaluator on every region
    that is not a polar rectangle.
    """
    shape = tuple(value_shape)
    eta = spec.eta
    if isinstance(region, (WholeDisc, CarlesonSquare, TopHalf)):
        u_in, u_out, t0, t1 = _dyadic_bounds(region)
        value, _, _ = _polar_rect_integrate(
            fn, shape, eta, singular_exponent, u_in, u_out, t0, t1, tol, budget,
            radial_breaks=radial_breaks, angular_breaks=angular_breaks,
        )
        return np.asarray(value)
    if isinstance(region, (HyperbolicDisc, TildeDisc)):
        value, _, _ = _local_polar_integrate(fn, shape, eta, region, tol, budget)
        return np.asarray(value)
    raise TypeError(f"not a region: {region!r}")


def integrate(
    field: MatrixField,
    region: Region,
    spec: MeasureSpec = PLAIN,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Matrix integral of a field over a region against dA_eta.

    Returns a Hermitian matrix; positive semidefiniteness of the field
    survives up to roundoff because all quadrature weights are positive.
    The whole disc, Carleson squares and top halves are polar rectangles
    and take the route of ``integrate_polar_rect`` on their exact band
    bounds and arc fraction, 1 or 2**-n; the other regions read the
    evaluator.
    """
    if isinstance(region, (WholeDisc, CarlesonSquare, TopHalf)):
        u_in, u_out, _, _ = _dyadic_bounds(region)
        fraction = 1.0 if isinstance(region, WholeDisc) else 2.0 ** -region.index.level
        return _rect(field, u_in, u_out, fraction, spec, tol, budget)
    value = integrate_values(
        field.evaluator, (field.dim, field.dim), region, spec=spec, tol=tol,
        budget=budget, singular_exponent=field.singular_exponent,
    )
    return 0.5 * (value + value.conj().T)


def integrate_scalar(
    fn: Callable[[np.ndarray], np.ndarray],
    region: Region,
    spec: MeasureSpec = PLAIN,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Scalar integral over a region against dA_eta; returns the real part."""
    value = integrate_values(fn, (), region, spec=spec, tol=tol, budget=budget)
    return float(np.real(value))


def integrate_polar_rect(
    field: MatrixField,
    r0: float,
    r1: float,
    t0: float,
    t1: float,
    spec: MeasureSpec = PLAIN,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Matrix integral over the polar rectangle [r0, r1] x [t0, t1).

    The band route: (t1 - t0) / 2 pi times the annulus integral from
    ``_band``, so a full annulus (t0, t1) = (0, 2 pi) is the band itself.
    The radii are converted to the band bounds u = 1 - r once, here.  An
    empty band, r0 == r1, has mass zero.
    """
    if not 0.0 <= r0 <= r1 <= 1.0:
        raise ValueError("need 0 <= r0 <= r1 <= 1")
    return _rect(field, 1.0 - r0, 1.0 - r1, (t1 - t0) / TWO_PI, spec, tol, budget)


def _rect(field, u_in, u_out, fraction, spec, tol, budget=DEFAULT_BUDGET) -> np.ndarray:
    """The integral over the band u_out < 1-|z| <= u_in restricted to an
    arc that is ``fraction`` of the circle."""
    value = fraction * _band(field, u_in, u_out, spec.eta, tol, budget)
    return 0.5 * (value + value.conj().T)
