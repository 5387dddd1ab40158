"""Covariance kernels and covariance-matrix construction.

Families
--------
* ``gff(d)``            lattice Green's function of simple random walk on Z^d, d >= 3
* ``bargmann_fock(d)``  K(0,x) = exp(-|x|^2/2)
* ``cauchy(alpha, d)``  K(0,x) = (1+|x|^2)^(-alpha/2)
* ``monochromatic_wave(d)``  normalized Fourier transform of the unit-sphere measure
* ``polylog_decay(gamma, d)``  K(0,x) = (log(e+|x|))^(-gamma)
* ``iid_standard(d)``   identity covariance
* ``explicit(matrix)``  user-supplied symmetric matrix on integer indices

A stationary kernel depends on the displacement alone.  ``build_cov_matrix``
ranks each axis's differences between its distinct coordinate values, keys
each point pair by its ranks and runs ``cov_of_offsets`` once per distinct
displacement x_i - x_j, then gathers the matrix; K(x,y) == K(y,x) exactly.

GFF offsets must be integers to 1e-8 (absolute); their sorted absolute
coordinates become one int64 key per row in lexicographic order (mixed radix,
re-ranked before it could overflow), deduplicated by a presence table when the
largest key is below their number, else by one 1-d ``np.unique``.  Each
distinct row is evaluated with one ``scipy.special.ive`` table per batch over
its distinct |coordinate| values and reduced over the quadrature nodes on its
own, so G_d(x) depends on x alone; ``gff_green`` is the same path on one row.

Every covariance matrix that is built here, factored (``sampler.plan_dense``)
or given to ``measures.capacity`` or ``measures.max_corr`` passes one PSD gate,
``repair_psd``: finite, and indefinite only up to roundoff, or a typed error.
A matrix ``build_cov_matrix`` returns passes the gate once; its factor is
reused: it is read-only, and the gate's Cholesky factor is kept for it, by
identity, as long as it lives, so ``plan_dense``, ``capacity`` and
``max_corr`` do not gate or factor it again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, InputError, ModelError, ParameterError

Point = tuple

# relative eigenvalue tolerance treated as roundoff in the PSD check
PSD_REL_TOL = 1e-10
# clipped eigenvalue mass above this fraction of the trace means "not PSD"
PSD_CLIP_LIMIT = 1e-6
# The most entries n^2 of a matrix build_cov_matrix makes.  It peaks at about 24 bytes an
# entry (tracemalloc, GFF and Bargmann-Fock balls of 925 to 2,109 points), so 9e7 entries,
# n = 9,486, is about 2.2 GB, the budget of sampler.MAX_SITES.
MAX_COV_ENTRIES = 90_000_000


@dataclass(frozen=True)
class CovarianceModel:
    """A kernel family with parameters, evaluable at point pairs.

    Models are immutable and safe to share.
    """

    family: str
    dim: int
    alpha: float = 0.0
    gamma: float = 0.0
    matrix: np.ndarray | None = field(default=None, compare=False)

    @property
    def stationary(self) -> bool:
        return self.family != "explicit"

    def __post_init__(self):
        if self.family == "gff" and self.dim < 3:
            raise DomainError(f"gff requires dimension >= 3, got d={self.dim}")
        if self.family == "cauchy" and not 0 < self.alpha < math.inf:  # written so that NaN fails
            raise ParameterError(f"cauchy requires a finite alpha > 0, got {self.alpha}")
        if self.family == "monochromatic_wave" and self.dim < 2:
            raise DomainError("monochromatic_wave requires dimension >= 2")
        if self.family == "polylog_decay" and not 0 < self.gamma < math.inf:  # written so that NaN fails
            raise ParameterError(f"polylog_decay requires a finite gamma > 0, got {self.gamma}")
        if self.family == "explicit":
            m = self.matrix
            if m is None or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError("explicit model needs a square matrix")
            if not np.array_equal(m, m.T):
                raise InputError("explicit covariance matrix must be symmetric")


def gff(d: int = 3) -> CovarianceModel:
    return CovarianceModel("gff", d)


def bargmann_fock(d: int = 2) -> CovarianceModel:
    return CovarianceModel("bargmann_fock", d)


def cauchy(alpha: float, d: int = 2) -> CovarianceModel:
    return CovarianceModel("cauchy", d, alpha=alpha)


def monochromatic_wave(d: int = 2) -> CovarianceModel:
    return CovarianceModel("monochromatic_wave", d)


def polylog_decay(gamma: float, d: int = 1) -> CovarianceModel:
    return CovarianceModel("polylog_decay", d, gamma=gamma)


def iid_standard(d: int = 1) -> CovarianceModel:
    return CovarianceModel("iid_standard", d)


def explicit(matrix) -> CovarianceModel:
    m = np.asarray(matrix, dtype=float)
    return CovarianceModel("explicit", 1, matrix=m)


# ---------------------------------------------------------------------------
# lattice Green's function of simple random walk (expected-visits normalization)
#
# G_d(x) = int_0^inf prod_k ive(|x_k|, s/d) ds, which satisfies
#   (1/2d) sum_{y~x} G_d(y) - G_d(x) = -delta_{x,0}
# and G_3(0) = 1.5163860591...  The integral is split at s=T with the tail
# mapped through s = 1/u^2 so both pieces are smooth for Gauss-Legendre.

_GREEN_T = 40.0


def _gauss_legendre_panels(b: float, npanels: int, order: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``order``-point Gauss-Legendre on ``npanels`` equal panels of [0, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, b, npanels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


# (nodes s, weights) of the body on [0, T] and of the tail, whose weights carry
# ds = 2 u^-3 du; they do not depend on d, so they are built once here
_U, _WU = _gauss_legendre_panels(1.0 / math.sqrt(_GREEN_T), 12)
_GREEN_RULES = (_gauss_legendre_panels(_GREEN_T, 24), (1.0 / _U**2, _WU * (2.0 / _U**3)))


def _green_batch(offsets: np.ndarray, d: int) -> np.ndarray:
    """Green's function values for an (m, d) array of integer offsets.

    Each Bessel factor depends on one |coordinate| and one node only, so ``ive``
    runs once per distinct |coordinate| and the table is gathered into the
    (m, d, nodes) factors.  Each row is reduced over the nodes on its own, so
    its value does not depend on the other rows of the batch.
    """
    a, idx = np.unique(np.abs(offsets).astype(float), return_inverse=True)
    idx = idx.reshape(offsets.shape)  # (m, d) rows of the table a
    body, tail = ((np.prod(special.ive(a[:, None], s / d)[idx], axis=1) * w).sum(axis=1)
                  for s, w in _GREEN_RULES)
    return body + tail


def _lattice_rows(offsets: np.ndarray) -> np.ndarray:
    """Sorted absolute coordinates of each row as int64; DomainError off the lattice."""
    r = np.round(offsets)  # absolute tolerance only: a relative one passes any fraction at large |x|
    if not (np.allclose(offsets, r, rtol=0.0) and (np.abs(r) < 2.0**63).all()):  # also rejects nan, inf
        raise DomainError("gff is defined on integer lattice offsets (finite, below 2**63)")
    return np.sort(np.abs(r.astype(np.int64)), axis=1)


def _row_keys(cols) -> np.ndarray:
    """One int64 per row of the nonnegative int64 columns ``cols`` (an iterator), in lexicographic order.

    Mixed radix over the columns.  Where the next column would carry the key past
    2**63, the running key is first replaced by its rank (below m), and the
    column too if that is not enough, so the key is exact for every input.
    """
    key = next(cols)
    bound = int(key.max(initial=0)) + 1  # every key < bound
    for col in cols:
        radix = int(col.max(initial=0)) + 1
        if bound * radix > 2**63:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max(initial=0)) + 1
        if bound * radix > 2**63:
            _, col = np.unique(col, return_inverse=True)
            radix = int(col.max(initial=0)) + 1
        key = key * radix + col
        bound *= radix
    return key


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One index per distinct value of the nonnegative int64 ``key``, in ascending key order
    (entries with one key are equal; any will do), and each entry's rank among them."""
    bound = int(key.max(initial=-1)) + 1
    if bound <= len(key):  # a presence table, no sort
        rep = np.full(bound, -1, dtype=np.intp)
        rep[key] = np.arange(len(key))
        return rep[rep >= 0], np.cumsum(rep >= 0)[key] - 1
    uniq, inverse = np.unique(key, return_inverse=True)
    rep = np.empty(len(uniq), dtype=np.intp)
    rep[inverse] = np.arange(len(key))
    return rep, inverse


def gff_green(offset, d: int = 3) -> float:
    """G_d at one lattice offset; ``cov_of_offsets`` on a one-row batch."""
    return float(cov_of_offsets(gff(d), np.asarray(offset, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# isotropic kernel profiles K(0, r)


def _wave_profile(r: np.ndarray, d: int) -> np.ndarray:
    """2^nu Gamma(nu+1) r^-nu J_nu(r) with nu = d/2-1, continuous at r=0."""
    nu = d / 2.0 - 1.0
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = r < 1e-3
    rs = r[small]
    # ascending series: 1 - (r/2)^2/(nu+1) + (r/2)^4/(2 (nu+1)(nu+2))
    q = (rs / 2.0) ** 2
    out[small] = 1.0 - q / (nu + 1.0) + q * q / (2.0 * (nu + 1.0) * (nu + 2.0))
    rl = r[~small]
    if rl.size:
        norm = 2.0**nu * special.gamma(nu + 1.0)
        if d == 2:
            out[~small] = special.j0(rl)
        else:
            out[~small] = norm * rl ** (-nu) * special.jv(nu, rl)
    return out


def _profile(model: CovarianceModel, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    fam = model.family
    if fam == "iid_standard":
        return np.where(r == 0.0, 1.0, 0.0)
    if fam == "bargmann_fock":
        return np.exp(-(r**2) / 2.0)
    if fam == "cauchy":
        return (1.0 + r**2) ** (-model.alpha / 2.0)
    if fam == "polylog_decay":
        return np.log(math.e + r) ** (-model.gamma)
    if fam == "monochromatic_wave":
        return _wave_profile(r, model.dim)
    raise ModelError(f"family {fam!r} has no isotropic profile")


def _as_point(x) -> Point:
    if np.isscalar(x):
        return (x,)
    return tuple(x)


def cov_of_offsets(model: CovarianceModel, offsets: np.ndarray) -> np.ndarray:
    """Vectorized K(0, offset) for an (m, dim) displacement array (field units)."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    if model.family == "gff":
        if offsets.shape[1] != model.dim:
            raise InputError(f"gff offsets must have {model.dim} coordinates, got {offsets.shape[1]}")
        canon = _lattice_rows(offsets)
        rep, inverse = _distinct(_row_keys(iter(canon.T)))
        return _green_batch(canon[rep].astype(float), model.dim)[inverse]
    if model.family == "explicit":
        raise ModelError("explicit models are not stationary; use eval_cov on indices")
    return _profile(model, np.linalg.norm(offsets, axis=1))


def eval_cov(model: CovarianceModel, x, y) -> float:
    """Covariance K(x, y) between two points of the model's domain."""
    xp, yp = _as_point(x), _as_point(y)
    if model.family == "explicit":
        m = model.matrix
        i, j = int(xp[0]), int(yp[0])
        if not (0 <= i < m.shape[0] and 0 <= j < m.shape[0]):
            raise InputError(f"index ({i},{j}) outside explicit matrix of size {m.shape[0]}")
        return float(m[i, j])
    if len(xp) != model.dim or len(yp) != model.dim:
        raise InputError(f"points must have dimension {model.dim}")
    off = np.array(xp, dtype=float) - np.array(yp, dtype=float)
    return float(cov_of_offsets(model, off[None, :])[0])


def repair_psd(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """The one PSD gate for ``build_cov_matrix``, ``plan_dense``, ``capacity`` and ``max_corr``.

    Raises InputError for a non-finite matrix and ModelError when the clipped
    eigenvalue mass exceeds PSD_CLIP_LIMIT * trace (the matrix is genuinely
    indefinite, not off by roundoff).  Otherwise clips negative eigenvalues to
    zero and returns the repaired matrix and the clipped mass; the input is
    returned unchanged when the smallest eigenvalue is above -PSD_REL_TOL *
    largest, and with mass 0.0, before any eigenvalue, when ``_cholesky`` factors
    it (then its smallest eigenvalue is above -n * eps * largest).  A matrix of
    ``build_cov_matrix`` passes the gate once; its factor is reused: the gate
    keeps that factor for it.
    """
    if not np.isfinite(mat).all():
        raise InputError("covariance matrix must be finite")
    try:
        factor = _cholesky(mat)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(mat)
    else:
        entry = _FACTORS.get(id(mat))
        if entry is not None and entry[0]() is mat:  # a matrix build_cov_matrix is gating
            _FACTORS[id(mat)] = (entry[0], factor)
        return mat, 0.0
    wmax = max(w[-1], 0.0)
    # clipped mass and trace in one scale 2^e, so that neither overflows; exact otherwise
    e = _exponent(mat)
    clipped = float(-np.ldexp(w[w < 0], -e).sum()) if (w < 0).any() else 0.0
    tr = float(np.trace(np.ldexp(mat, -e)))
    if clipped > PSD_CLIP_LIMIT * max(tr, math.ldexp(1e-300, -e)):
        with np.errstate(over="ignore"):  # for the message only: a trace past the float range reads inf
            clipped, tr = np.ldexp((clipped, tr), e)
        raise ModelError(
            f"covariance matrix is not PSD: clipped eigenvalue mass {clipped:.3e} "
            f"exceeds {PSD_CLIP_LIMIT:.0e} of trace {tr:.3e}"
        )
    clipped = math.ldexp(clipped, e)
    if w[0] >= -PSD_REL_TOL * max(wmax, 1.0):
        return mat, clipped
    w, v = np.linalg.eigh(mat)
    return _symmetrized((v * np.clip(w, 0.0, None)) @ v.T), clipped


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """The Cholesky factor of ``mat`` scaled by 2^-e, e the exponent of its largest variance (exact,
    so the largest variance lies in [1/2, 1)); LinAlgError when there is none.  For an odd e the
    factor is not 2^(-e/2) times the unscaled one bit for bit: sqrt(2) enters the rounding."""
    with np.errstate(over="ignore"):  # an entry far above every variance: no factor either way
        return np.linalg.cholesky(np.ldexp(mat, -_exponent(np.diag(mat))))


# build_cov_matrix's matrices by identity: (weak reference, repair_psd's ``_cholesky`` factor or None).
# An entry goes when its matrix does, so an id is never read for another array.
_FACTORS: dict[int, tuple[weakref.ref, np.ndarray | None]] = {}


def _gate_factor(mat, take: bool = False) -> np.ndarray | None:
    """The ``_cholesky`` factor the PSD gate kept for ``mat``, a read-only matrix of
    ``build_cov_matrix`` (so it passed the gate unchanged); None for any other array.
    ``take`` drops the entry: the caller keeps the matrix but not the factor."""
    entry = (_FACTORS.pop if take else _FACTORS.get)(id(mat), None)
    ok = entry is not None and entry[0]() is mat and not mat.flags.writeable
    return entry[1] if ok else None


def _gated(mat: np.ndarray) -> np.ndarray:
    """``repair_psd`` of a matrix built here, which nothing else holds, returned read-only; the
    gate keeps its factor (see ``_gate_factor``)."""
    key = id(mat)
    _FACTORS[key] = (weakref.ref(mat, lambda _: _FACTORS.pop(key, None)), None)
    out = repair_psd(mat)[0]
    out.flags.writeable = False
    return out


def _exponent(x) -> int:
    """The exponent e of the largest magnitude in ``x`` (0 if none): ldexp(x, -e) lies in (-1, 1), exactly."""
    return int(np.frexp(np.abs(x).max(initial=0.0))[1])


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^T) / 2 without overflow, so a finite matrix stays finite; an exactly symmetric one as given."""
    return mat if np.array_equal(mat, mat.T) else 0.5 * mat + 0.5 * mat.T


def _axis_codes(col: np.ndarray) -> np.ndarray:
    """Rank of col[i] - col[j] among the differences of the distinct values of ``col``, per pair (i, j)."""
    vals, inv = np.unique(col, return_inverse=True)
    _, code = np.unique(vals[:, None] - vals[None, :], return_inverse=True)
    return np.take(code.reshape(len(vals), len(vals))[inv], inv, axis=1).ravel()


def build_cov_matrix(model: CovarianceModel, points) -> np.ndarray:
    """Read-only covariance matrix on a finite point set; a stationary kernel runs once per
    distinct displacement x_i - x_j (see the module docstring).  It passes the gate once; its
    factor is reused: ``repair_psd`` keeps its Cholesky factor for ``capacity`` and ``max_corr``."""
    pts = [_as_point(p) for p in points]
    if not pts:
        raise InputError("point set is empty")
    if len(pts) ** 2 > MAX_COV_ENTRIES:
        raise InputError(f"a covariance matrix on {len(pts)} points has {len(pts) ** 2} entries, "
                         f"more than MAX_COV_ENTRIES = {MAX_COV_ENTRIES}")
    if len(set(pts)) != len(pts):
        raise InputError("points must be distinct")
    if model.family == "explicit":
        idx = [int(p[0]) for p in pts]
        return _gated(model.matrix[np.ix_(idx, idx)].astype(float))  # symmetric: explicit() checks it
    arr = np.asarray(pts, dtype=float)
    rep, inverse = _distinct(_row_keys(_axis_codes(col) for col in arr.T))
    i, j = np.divmod(rep, len(arr))
    mat = cov_of_offsets(model, arr[i] - arr[j])[inverse.reshape(len(arr), -1)]
    del inverse  # n^2 gather indices: freed before the gate copies the matrix
    return _gated(mat)
