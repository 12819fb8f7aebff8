"""Pointwise exterior calculus on flat coordinate charts.

A degree-k form is stored as its coefficient function over the lexicographic
basis of k-element index subsets.  Coefficient callables are vectorised: they
take coordinate arrays of shape ``(..., dim)`` and return ``(..., C(dim, k))``.
Every manifold in scope is a flat chart with optional periodic coordinates
(tori), so pointwise coefficients are a complete description.

Nothing here assigns to a chart, form or map after construction, so each is
safe to share and to evaluate concurrently.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: coefficient function of a form: coords (..., dim) -> (..., n_coeffs)
CoeffFn = Callable[[np.ndarray], np.ndarray]
#: vector field function: coords (..., dim) -> components (..., dim)
FieldFn = Callable[[np.ndarray], np.ndarray]

FD_STEP = 1e-5      # central-difference step of the exterior derivative
CLOSED_TOL = 1e-6   # a form passes as closed when its sampled |d form| is below it


class Rng:
    """Seeded uniform sampler on the standard library's Mersenne Twister.

    ``uniform`` reads ``random.Random(seed).randbytes`` as little-endian
    uint64 words and keeps the top 53 bits of each, as NumPy builds its
    doubles, so draws for a given seed are the same on every platform.  It
    spares every process the import of ``numpy.random``.  Samplers in this
    package take any object with this ``uniform`` method, a NumPy
    ``Generator`` included.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Array of the given shape (an int or a tuple) uniform on [low, high);
        as in NumPy, rounding in ``low + (high - low) * u`` can reach ``high``
        when low is not 0."""
        words = np.frombuffer(self._random.randbytes(8 * int(np.prod(size))), dtype="<u8")
        return (low + (high - low) * ((words >> 11) * 2.0 ** -53)).reshape(size)


@lru_cache(maxsize=None)
def basis_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographic k-subsets of {0..dim-1} indexing form coefficients."""
    return tuple(combinations(range(dim), degree))


@lru_cache(maxsize=None)
def basis_rank(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    """Position of each sorted k-subset in ``basis_indices(dim, degree)``."""
    return {idx: r for r, idx in enumerate(basis_indices(dim, degree))}


def n_coeffs(dim: int, degree: int) -> int:
    return math.comb(dim, degree)


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two disjoint sorted index tuples; returns (merged, parity sign).

    Returns None if the tuples overlap (the wedge term vanishes).
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for i in left for j in right if i > j)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


def _wrap(values: np.ndarray, period: float) -> None:
    """Reduce values to [0, period) in place.  NumPy's remainder of a value
    just below 0 rounds up to the period itself; that value becomes 0."""
    np.remainder(values, period, out=values)
    np.subtract(values, period, out=values, where=values >= period)


class ChartManifold:
    """Flat coordinate model: dimension plus per-coordinate periodicity.

    ``periods`` has one entry per coordinate; it is only meaningful where the
    ``periodic`` mask is set (default period 2*pi).  ``cotangent_model`` is
    declared metadata for catalog entries, never inferred.
    """

    def __init__(self, dim: int, periodic: tuple[bool, ...] = (),
                 periods: tuple[float, ...] = (), cotangent_model: bool = False):
        if dim < 1:
            raise ValueError(f"chart dimension must be >= 1, got {dim}")
        periodic = tuple(periodic) or (False,) * dim
        if len(periodic) != dim:
            raise ValueError("periodic mask length != dim")
        periods = tuple(periods) or (TWO_PI,) * dim
        if len(periods) != dim:
            raise ValueError("periods length != dim")
        if any(p <= 0 for p in periods):
            raise ValueError("periods must be positive")
        self.dim, self.periodic, self.periods = dim, periodic, periods
        self.cotangent_model = cotangent_model

    @property
    def is_torus(self) -> bool:
        return all(self.periodic)

    def reduce(self, coords: np.ndarray) -> np.ndarray:
        """Reduce periodic coordinates to [0, period); reducing twice changes
        nothing."""
        out = np.array(coords, dtype=float, copy=True)
        for i, (per, p) in enumerate(zip(self.periodic, self.periods)):
            if per:
                _wrap(out[..., i], p)
        return out

    def wrapped_delta(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinate difference a - b with periodic entries wrapped to the
        shortest representative [-period/2, period/2)."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        for i, (per, p) in enumerate(zip(self.periodic, self.periods)):
            if per:
                col = d[..., i]
                col += 0.5 * p
                _wrap(col, p)
                col -= 0.5 * p
        return d

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """Uniform sample of n coordinate tuples; non-periodic coordinates are
        drawn from [-1, 1]."""
        cols = []
        for i in range(self.dim):
            if self.periodic[i]:
                cols.append(rng.uniform(0.0, self.periods[i], size=n))
            else:
                cols.append(rng.uniform(-1.0, 1.0, size=n))
        return np.stack(cols, axis=-1)


class KForm:
    """Degree-k differential form on a dim-dimensional chart.

    ``coeffs`` maps coordinates to the coefficient vector over the
    lexicographic basis.  ``constant_value`` marks a form whose coefficients
    do not depend on the point; the algebra propagates it so that constant
    inputs stay on a fast evaluation path and differentiate to exact zeros.
    """

    def __init__(self, degree: int, dim: int, coeffs: CoeffFn,
                 constant_value: Optional[np.ndarray] = None):
        if not (0 <= degree <= dim):
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        self.degree, self.dim, self.coeffs = degree, dim, coeffs
        self.constant_value = constant_value

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("can only add forms of equal degree and dimension")
        if self.constant_value is not None and other.constant_value is not None:
            return constant_form(self.dim, self.degree,
                                 self.constant_value + other.constant_value)
        ca, cb = self.coeffs, other.coeffs
        return KForm(self.degree, self.dim, lambda x: ca(x) + cb(x))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "KForm":
        s = float(scalar)
        if self.constant_value is not None:
            return constant_form(self.dim, self.degree, s * self.constant_value)
        c = self.coeffs
        return KForm(self.degree, self.dim, lambda x: s * c(x))

    def __neg__(self) -> "KForm":
        return (-1.0) * self


def constant_form(dim: int, degree: int, coefficients: Sequence[float]) -> KForm:
    """Form with constant coefficients (hence closed)."""
    vec = np.asarray(coefficients, dtype=float)
    if vec.shape != (n_coeffs(dim, degree),):
        raise ValueError(f"expected {n_coeffs(dim, degree)} coefficients, got {vec.shape}")

    def coeffs(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(vec, x.shape[:-1] + vec.shape).copy()

    return KForm(degree, dim, coeffs, constant_value=vec)


def coordinate_form(dim: int, index: int) -> KForm:
    """The coordinate one-form dx_index."""
    vec = np.zeros(dim)
    vec[index] = 1.0
    return constant_form(dim, 1, vec)


# -- evaluation ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _laplace_tables(dim: int, size: int) -> tuple:
    """Cofactor expansion of each size x size minor along its last column.

    Entry c belongs to the c-th row subset I of ``basis_indices(dim, size)``.
    It lists one term (row I[p], rank of I without I[p] among the
    (size-1)-subsets, cofactor sign (-1)^(p + size - 1)) per p, with the
    positive p = size - 1 term first.
    """
    rank = basis_rank(dim, size - 1)
    return tuple(
        tuple((I[p], rank[I[:p] + I[p + 1:]], (-1) ** (p + size - 1))
              for p in (size - 1, *range(size - 1)))
        for I in basis_indices(dim, size))


def frame_minors(frame: np.ndarray) -> np.ndarray:
    """All k x k minors of a frame of shape (..., dim, k), k >= 1.

    Entry c of the result, shape (..., C(dim, k)), is the determinant of the
    rows ``basis_indices(dim, k)[c]``.  The minors are built by Laplace
    expansion one column at a time: each minor on the first j columns is a
    signed sum of minors on the first j - 1 columns times entries of column
    j.  Every product is one batch-length vector operation, so no
    (..., C, k, k) block is ever gathered.
    """
    frame = np.asarray(frame, dtype=float)
    dim, k = frame.shape[-2:]
    if not 1 <= k <= dim:
        raise ValueError(f"frame of {k} vectors in dimension {dim} has no k x k minors")
    entries = np.moveaxis(frame, (-2, -1), (0, 1))   # entries[i, j]: (...,) batch
    batch = frame.shape[:-2]
    minors = entries[:, 0]
    term = np.empty(batch)
    for j in range(1, k):
        table = _laplace_tables(dim, j + 1)
        nxt = np.empty((len(table),) + batch)
        for c, ((row, rest, _), *others) in enumerate(table):
            out = nxt[c, ...]
            np.multiply(entries[row, j, ...], minors[rest, ...], out=out)
            for row, rest, sign in others:
                np.multiply(entries[row, j, ...], minors[rest, ...], out=term)
                if sign > 0:
                    out += term
                else:
                    out -= term
        minors = nxt
    return np.moveaxis(minors, 0, -1)


def evaluate_frame(f: KForm, coords: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Evaluate f at coords on the columns of ``frame``.

    coords has shape (..., dim), or is None for a constant form of degree >= 1;
    frame has shape (..., dim, k) with k equal to the form degree.  Returns
    values of shape (...,).
    """
    coords = np.asarray(coords, dtype=float)
    frame = np.asarray(frame, dtype=float)
    k = f.degree
    if frame.shape[-1] != k:
        raise ValueError(f"degree-{k} form needs {k} vectors, got {frame.shape[-1]}")
    if frame.shape[-2] != f.dim:
        raise ValueError(f"vector dimension {frame.shape[-2]} != form dimension {f.dim}")
    if k == 0:
        return f.coeffs(coords)[..., 0]
    minors = frame_minors(frame)
    if f.constant_value is not None:
        return np.einsum("...c,c->...", minors, f.constant_value)
    return np.einsum("...c,...c->...", f.coeffs(coords), minors)


# -- wedge, interior, derivative, pullback ------------------------------------


def _signed_product(terms, n_out: int) -> Callable:
    """The bilinear map of a product table: ``terms`` lists (out, i, j, sign),
    and ``product(left, right)`` sums sign * left[..., i] * right[..., j] into
    entry out of an (..., n_out) coefficient vector."""
    out, left_idx, right_idx, signs = (np.array(col) for col in zip(*terms))
    scatter = np.zeros((len(terms), n_out))
    scatter[np.arange(len(terms)), out] = 1.0

    def product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return signs * left[..., left_idx] * right[..., right_idx] @ scatter

    return product


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product; graded-commutative with sign (-1)^(kl)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    k, l = a.degree, b.degree
    if k + l > a.dim:
        raise ValueError(f"wedge degree {k + l} exceeds chart dimension {a.dim}")
    dim = a.dim
    rank = basis_rank(dim, k + l)
    terms = [(rank[merged[0]], ra, rb, float(merged[1]))
             for ra, ia in enumerate(basis_indices(dim, k))
             for rb, ib in enumerate(basis_indices(dim, l))
             if (merged := _merge_sign(ia, ib)) is not None]
    product = _signed_product(terms, n_coeffs(dim, k + l))
    ca, cb = a.coeffs, b.coeffs

    def coeffs(x: np.ndarray) -> np.ndarray:
        return product(ca(x), cb(x))

    if a.constant_value is not None and b.constant_value is not None:
        return constant_form(dim, k + l, coeffs(np.zeros(dim)))
    return KForm(k + l, dim, coeffs)


def interior(X: FieldFn, f: KForm) -> KForm:
    """Interior product of a vector field into f; degree drops by one."""
    if f.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    dim, k = f.dim, f.degree
    in_rank = basis_rank(dim, k)
    terms = [(rj, i, in_rank[merged[0]], float(merged[1]))
             for rj, J in enumerate(basis_indices(dim, k - 1)) for i in range(dim)
             if (merged := _merge_sign((i,), J)) is not None]
    product = _signed_product(terms, n_coeffs(dim, k - 1))
    cf = f.coeffs

    def coeffs(x: np.ndarray) -> np.ndarray:
        return product(np.asarray(X(x), dtype=float), cf(x))

    return KForm(k - 1, dim, coeffs)


def exterior_derivative(f: KForm) -> KForm:
    """Exterior derivative: exactly zero for a constant form, else central
    finite differences with step FD_STEP."""
    if f.degree >= f.dim:
        raise ValueError("exterior derivative of a top-degree form")
    dim, k = f.dim, f.degree
    if f.constant_value is not None:
        return constant_form(dim, k + 1, np.zeros(n_coeffs(dim, k + 1)))
    in_rank = basis_rank(dim, k)
    terms = []  # (out_rank, diff_direction, in_rank, sign)
    for ro, K in enumerate(basis_indices(dim, k + 1)):
        for pos, j in enumerate(K):
            rest = K[:pos] + K[pos + 1:]
            terms.append((ro, j, in_rank[rest], (-1.0) ** pos))
    cf = f.coeffs

    def coeffs(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        partials = []
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = FD_STEP
            partials.append((cf(x + e) - cf(x - e)) / (2.0 * FD_STEP))
        out = np.zeros(x.shape[:-1] + (n_coeffs(dim, k + 1),))
        for ro, j, ri, sign in terms:
            out[..., ro] += sign * partials[j][..., ri]
        return out

    return KForm(k + 1, dim, coeffs)


class ChartMap:
    """Affine map x -> A x + c between charts.

    ``matrix`` is A, shaped (target_dim, source_dim), and ``offset`` is c
    (default 0).  Every map in scope (a coordinate projection or inclusion)
    is affine, so its Jacobian is the constant A.
    """

    def __init__(self, matrix, offset=None):
        self.matrix = np.asarray(matrix, dtype=float)
        self.target_dim, self.source_dim = self.matrix.shape
        self.offset = np.zeros(self.target_dim) if offset is None else np.asarray(offset, float)

    def value(self, x: np.ndarray) -> np.ndarray:
        """(..., source_dim) -> (..., target_dim)."""
        return np.asarray(x, dtype=float) @ self.matrix.T + self.offset

    @staticmethod
    def coordinate_projection(source_dim: int, kept: Sequence[int]) -> "ChartMap":
        """Projection selecting the listed source coordinates."""
        return ChartMap(np.eye(source_dim)[list(kept)])

    @staticmethod
    def coordinate_inclusion(target_dim: int, free: Sequence[int],
                             fixed: dict[int, float]) -> "ChartMap":
        """Inclusion filling ``free`` target slots from the source coordinates
        and pinning the ``fixed`` slots to constants."""
        free = list(free)
        if sorted(free + list(fixed)) != list(range(target_dim)):
            raise ValueError("free and fixed indices must partition the target coordinates")
        return ChartMap(np.eye(target_dim)[:, free],
                        [fixed.get(i, 0.0) for i in range(target_dim)])


def pullback(phi: ChartMap, f: KForm) -> KForm:
    """Pullback of f along phi; commutes with wedge and with d.

    The k x k minors of phi's matrix, one row per source basis element, are
    computed once; a constant form pulls back to a constant form."""
    if phi.target_dim != f.dim:
        raise ValueError(f"map target dimension {phi.target_dim} != form dimension {f.dim}")
    k = f.degree
    src = phi.source_dim
    if k > src:
        raise ValueError(f"cannot pull a degree-{k} form back to a {src}-dimensional chart")
    # dets[s, t]: the minor of A on the t-th target and s-th source index subsets
    dets = (frame_minors(np.moveaxis(phi.matrix[:, np.array(basis_indices(src, k))], 0, 1))
            if k else np.ones((1, 1)))
    if f.constant_value is not None:
        return constant_form(src, k, dets @ f.constant_value)
    cf, val = f.coeffs, phi.value
    return KForm(k, src, lambda x: cf(val(x)) @ dets.T)


def power(f: KForm, m: int) -> KForm:
    """Iterated wedge f^m; f^0 is the constant function 1."""
    if m < 0:
        raise ValueError("power exponent must be >= 0")
    if m * f.degree > f.dim:
        raise ValueError(f"degree {m * f.degree} exceeds chart dimension {f.dim}")
    if m == 0:
        return constant_form(f.dim, 0, [1.0])
    out = f
    for _ in range(m - 1):
        out = wedge(out, f)
    return out


@lru_cache(maxsize=None)
def _pair_rows_cols(dim: int):
    pairs = basis_indices(dim, 2)
    return (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


def _assemble_antisymmetric(dim: int, c: np.ndarray) -> np.ndarray:
    rows, cols = _pair_rows_cols(dim)
    out = np.zeros(c.shape[:-1] + (dim, dim))
    out[..., rows, cols] = c
    out[..., cols, rows] = -c
    return out


def two_form_matrix(f: KForm, coords: np.ndarray) -> np.ndarray:
    """Antisymmetric coefficient matrix M[i, j] = f(e_i, e_j) at coords.

    Vectorised: coords (..., dim) -> (..., dim, dim).
    """
    if f.degree != 2:
        raise ValueError("two_form_matrix needs a degree-2 form")
    coords = np.asarray(coords, dtype=float)
    if f.constant_value is not None:
        m = _assemble_antisymmetric(f.dim, f.constant_value)
        return np.broadcast_to(m, coords.shape[:-1] + m.shape).copy()
    return _assemble_antisymmetric(f.dim, f.coeffs(coords))


def covector_values(f: KForm, coords: np.ndarray) -> np.ndarray:
    """Coefficient vector of a one-form at coords, shape (..., dim)."""
    if f.degree != 1:
        raise ValueError("covector_values needs a degree-1 form")
    return f.coeffs(np.asarray(coords, dtype=float))


def check_periodic(f: KForm, chart: ChartManifold, samples: np.ndarray, name: str) -> None:
    """Raise ValueError, naming the form, unless f is a form on the chart: its
    coefficients are finite at the samples, and its sampled
    |f(x + L_i e_i) - f(x)| is below CLOSED_TOL along every periodic
    coordinate i, L_i its period.  A constant form passes unevaluated."""
    axes = np.flatnonzero(chart.periodic)
    if f.constant_value is not None or not axes.size:
        return
    samples = np.asarray(samples, dtype=float)
    shifts = np.zeros((axes.size, chart.dim))
    shifts[np.arange(axes.size), axes] = np.asarray(chart.periods)[axes]
    with np.errstate(all="ignore"):  # a NaN fails the checks below
        at_samples = f.coeffs(samples)
        if not np.isfinite(at_samples).all():
            raise ValueError(f"{name} is not finite at a sample")
        jump = float(np.max(np.abs(f.coeffs(samples + shifts[:, None]) - at_samples),
                            initial=0.0))
    if not jump < CLOSED_TOL:
        raise ValueError(f"{name} is not periodic on the chart (sampled |{name}(x + L_i e_i) - "
                         f"{name}(x)| = {jump:.3e}); it is not a form on this chart")


def certification_samples(chart: ChartManifold) -> np.ndarray:
    """The fixed samples of the certificates that must not depend on a run's
    seed: 32 draws of `Rng(0)`."""
    return chart.sample(Rng(0), 32)


def closed_residual(f: KForm, samples: np.ndarray, refusal: Optional[str] = None,
                    minus: Optional[KForm] = None) -> float:
    """Sampled max |d f - minus| (`max_coeff_magnitude`, so a NaN gives NaN),
    minus zero by default; a top-degree f is closed, with residual 0.  Given
    a ``refusal``, raises ValueError("<refusal> = <residual>") unless the
    residual is below CLOSED_TOL; NaN is not."""
    residual = 0.0
    if f.degree < f.dim or minus is not None:
        df = exterior_derivative(f)
        residual = max_coeff_magnitude(df if minus is None else df - minus, samples)
    if refusal is not None and not residual < CLOSED_TOL:
        raise ValueError(f"{refusal} = {residual:.3e}")
    return residual


def max_coeff_magnitude(f: KForm, samples: np.ndarray) -> float:
    """Largest coefficient magnitude over a batch of sample coordinates.

    A constant form over a non-empty batch reads its coefficient vector, so
    no (samples, n_coeffs) array is built.  Evaluated without floating-point
    warnings: a NaN coefficient gives a NaN maximum, which fails every bound
    a caller compares it with."""
    samples = np.asarray(samples, dtype=float)
    if f.constant_value is not None and samples.size:
        return float(np.max(np.abs(f.constant_value)))
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(f.coeffs(samples))))
