"""Increasing events on lattice boxes and their threshold random variables.

Connectivity is nearest-neighbor (2d adjacency) on Z^d.  Thresholds follow the
orientation {X + u in A} = {T_A(X) <= u}: crossing events store the level minus
the maximin (bottleneck) value, the largest site value u at which {X >= u}
joins source and sink.  It is found in three steps over a batch of replicates:
a path lower bound (the best source path that a few level-by-level sweeps
find, itself a site value), one ``ndimage.label`` call at the next sorted
value above the bound, which settles every replicate that does not cross
there, and bisection on each remaining replicate's sorted values, labelling
only those replicates per step.  Being a site value, the result does not
depend on how ties are ordered, nor on how good the bound was.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy import ndimage

from .errors import InputError, SpecError
from .kernels import Point
from .sampler import _check_sites, _columns


def _check_real(name: str, v) -> None:
    """A finite real number, not a bool; stored as given, so configs round-trip."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise InputError(f"{name} must be a finite real number, got {v!r}")


def _norm_sites(sites) -> tuple[Point, ...]:
    out = []
    for s in sites:
        out.append((int(s),) if np.isscalar(s) else tuple(int(c) for c in s))
    return tuple(out)


@dataclass(frozen=True)
class _SiteEvent:
    """An event on a fixed index set of sites at one level; its support is the sites."""

    sites: tuple[Point, ...]
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", _norm_sites(self.sites))
        _check_real("level", self.level)

    @property
    def support(self) -> tuple[Point, ...]:
        return self.sites


class AllAbove(_SiteEvent):
    """Every site of a fixed index set lies in the excursion set {X >= level}."""


class AnyAbove(_SiteEvent):
    """At least one site of the index set lies in {X >= level}."""


@dataclass(frozen=True)
class BoxCrossing:
    """Lattice path in {X >= level} joining the two opposite faces along ``axis``."""

    lo: Point
    hi: Point  # inclusive corner
    axis: int = 0
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(int(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(int(c) for c in self.hi))
        if len(self.lo) != len(self.hi):
            raise InputError("box corners must have equal dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise InputError("box must have lo <= hi")
        if isinstance(self.axis, bool) or not isinstance(self.axis, numbers.Integral):
            raise InputError(f"axis must be an integer, got {self.axis!r}")
        if not (0 <= self.axis < len(self.lo)):
            raise InputError("axis outside box dimension")
        _check_sites("crossing box", (b - a + 1 for a, b in zip(self.lo, self.hi)))
        _check_real("level", self.level)

    @property
    def support(self) -> tuple[Point, ...]:
        return tuple(itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi))))


@dataclass(frozen=True)
class AnnulusCrossing:
    """Component of {X >= level} joining center+B(r_inner) to center+bd B(r_outer).

    The inner ball and outer sphere are rendered as lattice site sets by
    Euclidean rounding; r_inner = 0 gives the one-arm event from the center.
    """

    center: Point
    r_inner: float
    r_outer: float
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))
        _check_real("r_inner", self.r_inner)
        _check_real("r_outer", self.r_outer)
        if not 0 <= self.r_inner < self.r_outer:
            raise InputError(f"radii must satisfy 0 <= r_inner < r_outer, got {self.r_inner!r} and {self.r_outer!r}")
        _check_real("level", self.level)

    @property
    def support(self) -> tuple[Point, ...]:
        return lattice_ball(self.center, self.r_outer)


def lattice_ball(center, radius: float) -> tuple[Point, ...]:
    """Sites of Z^d within Euclidean distance ``radius`` of ``center``, in row-major order."""
    if not np.isfinite(radius):
        raise InputError(f"ball radius must be finite, got {radius!r}")
    c = np.asarray(center)
    m = int(np.ceil(radius))
    _check_sites(f"the bounding box of a ball of radius {radius!r}", (max(2 * m + 1, 0),) * len(c))
    mesh = np.meshgrid(*[np.arange(v - m, v + m + 1) for v in c], indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    return _norm_sites(coords[((coords - c) ** 2).sum(axis=1) <= radius**2])


EventSpec = AllAbove | AnyAbove | BoxCrossing | AnnulusCrossing


# ---------------------------------------------------------------------------
# serialization (CLI configs)

_KINDS = {"all_above": AllAbove, "any_above": AnyAbove, "box_crossing": BoxCrossing, "annulus_crossing": AnnulusCrossing}


def _plain(v):
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


def _tupled(v):
    return tuple(_tupled(x) for x in v) if isinstance(v, list) else v


def event_to_dict(spec: EventSpec) -> dict:
    kind = next((k for k, cls in _KINDS.items() if type(spec) is cls), None)
    if kind is None:
        raise InputError(f"unknown event type {type(spec)!r}")
    return {"kind": kind, **{f.name: _plain(getattr(spec, f.name)) for f in fields(spec)}}


def event_from_dict(d: dict) -> EventSpec:
    if not isinstance(d, dict):
        raise InputError(f"event must be a JSON object, got {d!r}")
    kind = d.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown event kind {kind!r}; valid: {', '.join(_KINDS)}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names) - {"kind"})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if unknown or missing:
        raise InputError(f"{kind} event has unknown keys {unknown} or lacks keys {missing}; "
                         f"valid keys: kind, {', '.join(names)}")
    try:
        return cls(**{k: _tupled(v) for k, v in d.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} event: {exc}") from None


# ---------------------------------------------------------------------------
# compiled events: crossing thresholds from a path lower bound, confirmed by
# batched labelling

PATH_PASSES = 3  # outward-and-back sweeps of the path lower bound; BENCH_23.json has the sweep


class CompiledEvent:
    """Event bound to a plan's index map for fast repeated evaluation.

    A crossing event lays its support out in its bounding box, with boolean
    source and sink masks there, and a structuring element that links the box
    axes only, so one ``ndimage.label`` call labels a whole stack of replicates.

    For the path lower bound it orders its support sites by breadth-first
    level from the source, and keeps for each level padded neighbour tables
    into the level below (outward sweeps), the level above (back sweeps) and
    the level itself.  A crossing threshold is the bound when labelling at the
    next sorted value above it finds no crossing, and bisection between the
    two otherwise.  ``thresholds_batch`` only reads what ``__init__`` built,
    so one compiled event serves any number of threads.
    """

    def __init__(self, spec: EventSpec, index):
        support = spec.support
        if len(support) == 0:
            raise SpecError("event has empty support")
        self.cols = _columns(index, support)
        self.level = spec.level
        self.kind = type(spec).__name__
        if isinstance(spec, _SiteEvent):
            return
        pts = np.asarray(support)
        corner = pts.min(axis=0)
        self.shape = tuple(int(s) for s in pts.max(axis=0) - corner + 1)
        self.flat = np.ravel_multi_index(tuple((pts - corner).T), self.shape)

        def mask(on):  # support sites -> boolean mask over the bounding box
            out = np.zeros(self.shape, dtype=bool)
            out.flat[self.flat[on]] = True
            return out

        cross = ndimage.generate_binary_structure(len(self.shape), 1)
        if isinstance(spec, BoxCrossing):
            self.src = mask(pts[:, spec.axis] == spec.lo[spec.axis])
            self.snk = mask(pts[:, spec.axis] == spec.hi[spec.axis])
        else:
            self.src = mask(((pts - spec.center) ** 2).sum(axis=1) <= spec.r_inner**2)
            # sink: inner vertex boundary of the discretized outer ball
            inside = mask(slice(None))
            self.snk = inside & ~ndimage.binary_erosion(inside, structure=cross, border_value=0)
        if not self.src.any() or not self.snk.any():
            raise SpecError("crossing event has an empty source or sink face")
        self.structure = np.zeros((3,) * (len(self.shape) + 1), dtype=bool)
        self.structure[1] = cross
        self._compile_levels(pts - corner)

    def _compile_levels(self, local: np.ndarray) -> None:
        """Sites ordered by BFS level from the source, and each level's sweep tables."""
        m = len(local)
        pos = np.full(self.shape, m, dtype=np.intp)  # m: no site; row m of V holds -inf
        pos.flat[self.flat] = np.arange(m)
        nbr = np.full((m, 2 * local.shape[1]), m, dtype=np.intp)
        for ax in range(local.shape[1]):
            for side, step in enumerate((-1, 1)):
                q = local.copy()
                q[:, ax] += step
                inbox = (q[:, ax] >= 0) & (q[:, ax] < self.shape[ax])
                nbr[inbox, 2 * ax + side] = pos[tuple(q[inbox].T)]
        depth = np.full(m + 1, -1, dtype=np.intp)  # -1: unreached, and the sentinel
        frontier, k = np.flatnonzero(self.src.flat[self.flat]), 0
        while frontier.size:
            depth[frontier] = k
            frontier = np.unique(nbr[frontier])
            frontier = frontier[(frontier < m) & (depth[frontier] < 0)]
            k += 1
        # rows of V: reached sites by level, then unreached ones, then the sentinel
        key = np.where(depth[:m] < 0, k, depth[:m])
        self._order = np.argsort(key, kind="stable")
        starts = np.searchsorted(key[self._order], np.arange(k + 1))
        self._sources = int(starts[1])
        rank = np.empty(m + 1, dtype=np.intp)
        rank[self._order], rank[m] = np.arange(m), m
        row_nbr, nbr_depth = rank[nbr[self._order]], depth[nbr[self._order]]

        def steps(level: int, toward: int):
            """Relaxations of ``level``: from its neighbours on level + toward, then
            from its neighbours on the level itself, each table padded with the sentinel."""
            a, b = int(starts[level]), int(starts[level + 1])
            out = []
            for keep in (nbr_depth[a:b] == level + toward, nbr_depth[a:b] == level):
                width = int(keep.sum(axis=1).max())
                if width:
                    t = np.sort(np.where(keep, row_nbr[a:b], m), axis=1)  # the sentinel sorts last
                    out.append((a, b, t[:, :width]))
            return out

        self._sweeps = tuple(step for lv in range(1, k) for step in steps(lv, -1)) + tuple(
            step for lv in range(k - 1, 0, -1) for step in steps(lv, 1))
        self._sink_rows = rank[np.flatnonzero(self.snk.flat[self.flat])]

    def _path_bound(self, vals: np.ndarray) -> np.ndarray:
        """A lower bound on each replicate's maximin value, itself a site value.

        V starts as the field on the source and -inf elsewhere; each sweep sets
        V = max(V, min(x, max V[neighbours])) level by level, so every V is the
        minimum of the field along a real path from the source.
        """
        x = np.ascontiguousarray(vals[:, self._order].T)
        V = np.full((x.shape[0] + 1, x.shape[1]), -np.inf)
        V[:self._sources] = x[:self._sources]
        for _ in range(PATH_PASSES):
            for a, b, t in self._sweeps:
                g = V[t].max(axis=1)
                np.minimum(g, x[a:b], out=g)
                np.maximum(V[a:b], g, out=V[a:b])
        return V[self._sink_rows].max(axis=0)

    def _crossed(self, box: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Whether {box >= u} joins source and sink, replicate by replicate."""
        labels, count = ndimage.label(box >= u.reshape((-1,) + (1,) * len(self.shape)), self.structure)
        # labels never link two replicates, so one source table serves all
        on_src = np.zeros(count + 1, dtype=bool)
        on_src[labels[:, self.src]] = True
        on_src[0] = False
        return on_src[labels[:, self.snk]].any(axis=1)

    def thresholds_batch(self, values_matrix: np.ndarray) -> np.ndarray:
        vals = values_matrix[:, self.cols]
        if self.kind == "AllAbove":
            return self.level - vals.min(axis=1)
        if self.kind == "AnyAbove":
            return self.level - vals.max(axis=1)
        # The maximin value is the largest site value u at which {vals >= u}
        # joins source and sink.  Keep a crossing at ordered[lo] and none at
        # ordered[hi]: lo starts at the last sorted index of the path bound (a
        # value of the row), the first probe is the next value above it, and the
        # replicates that cross there bisect.  The result is the last sorted
        # index of the maximin value whatever the bound, as bisection alone gives.
        reps, m = vals.shape
        ordered = np.sort(vals, axis=1)
        rows = np.arange(reps)
        lo = (ordered <= self._path_bound(vals)[:, None]).sum(axis=1) - 1
        hi = np.full(reps, m, dtype=np.intp)
        probe = lo + 1
        todo = np.flatnonzero(probe < hi)
        box = np.full((reps,) + self.shape, -np.inf)
        box.reshape(reps, -1)[:, self.flat] = vals
        while todo.size:
            mid = probe[todo]
            crossed = self._crossed(box[todo] if todo.size < reps else box, ordered[todo, mid])
            lo[todo] = np.where(crossed, mid, lo[todo])
            hi[todo] = np.where(crossed, hi[todo], mid)
            todo = todo[hi[todo] - lo[todo] > 1]
            probe = (lo + hi) // 2
        return self.level - ordered[rows, lo]


def compile_event(spec: EventSpec, index) -> CompiledEvent:
    return CompiledEvent(spec, index)
