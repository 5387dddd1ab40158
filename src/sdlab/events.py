"""Increasing events on lattice boxes and their threshold random variables.

Connectivity is nearest-neighbor (2d adjacency) on Z^d.  Thresholds follow the
orientation {X + u in A} = {T_A(X) <= u}: crossing events store the level minus
the maximin (bottleneck) value, the largest site value u at which {X >= u}
joins source and sink.  It is found by bisection on each replicate's sorted
values, labelling a whole batch of replicates per step; being a site value, it
does not depend on how ties are ordered.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy import ndimage

from .errors import InputError, SpecError
from .kernels import Point
from .sampler import FieldSample


def _norm_sites(sites) -> tuple[Point, ...]:
    out = []
    for s in sites:
        out.append((int(s),) if np.isscalar(s) else tuple(int(c) for c in s))
    return tuple(out)


@dataclass(frozen=True)
class AllAbove:
    """Every site of a fixed index set lies in the excursion set {X >= level}."""

    sites: tuple[Point, ...]
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", _norm_sites(self.sites))

    @property
    def support(self) -> tuple[Point, ...]:
        return self.sites


@dataclass(frozen=True)
class AnyAbove:
    """At least one site of the index set lies in {X >= level}."""

    sites: tuple[Point, ...]
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", _norm_sites(self.sites))

    @property
    def support(self) -> tuple[Point, ...]:
        return self.sites


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
        if not (0 <= self.axis < len(self.lo)):
            raise InputError("axis outside box dimension")

    @property
    def support(self) -> tuple[Point, ...]:
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*ranges, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        return tuple(tuple(int(v) for v in row) for row in coords)


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
        if self.r_outer <= self.r_inner:
            raise InputError("outer radius must exceed inner radius")

    @property
    def support(self) -> tuple[Point, ...]:
        return lattice_ball(self.center, self.r_outer)


def lattice_ball(center, radius: float) -> tuple[Point, ...]:
    """Sites of Z^d within Euclidean distance ``radius`` of ``center``, in row-major order."""
    if not np.isfinite(radius):
        raise InputError(f"ball radius must be finite, got {radius!r}")
    c = np.asarray(center)
    m = int(np.ceil(radius))
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
# compiled events: crossing thresholds by bisection over batched labelling


class CompiledEvent:
    """Event bound to a plan's index map for fast repeated evaluation.

    A crossing event lays its support out in its bounding box, with boolean
    source and sink masks there, and a structuring element that links the box
    axes only, so one ``ndimage.label`` call labels a whole stack of replicates.
    """

    def __init__(self, spec: EventSpec, index):
        self.spec = spec
        support = spec.support
        if len(support) == 0:
            raise SpecError("event has empty support")
        try:
            self.cols = np.array([index[p] for p in support], dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"sample does not cover support site {exc.args[0]}") from None
        self.level = spec.level
        self.kind = type(spec).__name__
        if isinstance(spec, (AllAbove, AnyAbove)):
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

    # -- single-sample queries ------------------------------------------------

    def occurs(self, values: np.ndarray) -> bool:
        return self.threshold(values) <= 0

    def threshold(self, values: np.ndarray) -> float:
        return float(self.thresholds_batch(values[None])[0])

    def thresholds_batch(self, values_matrix: np.ndarray) -> np.ndarray:
        vals = values_matrix[:, self.cols]
        if self.kind == "AllAbove":
            return self.level - vals.min(axis=1)
        if self.kind == "AnyAbove":
            return self.level - vals.max(axis=1)
        # The maximin value is the largest site value u at which {vals >= u}
        # joins source and sink.  The smallest site value always does (a box
        # and a lattice ball are connected), so bisect every replicate at once
        # on the index into its sorted values.
        reps = vals.shape[0]
        box = np.full((reps,) + self.shape, -np.inf)
        box.reshape(reps, -1)[:, self.flat] = vals
        ordered = np.sort(vals, axis=1)
        rows = np.arange(reps)
        lo = np.zeros(reps, dtype=np.intp)  # crossing at ordered[lo]
        hi = np.full(reps, vals.shape[1], dtype=np.intp)  # none at ordered[hi]
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            u = ordered[rows, mid].reshape((reps,) + (1,) * len(self.shape))
            labels, count = ndimage.label(box >= u, self.structure)
            # labels never link two replicates, so one source table serves all
            on_src = np.zeros(count + 1, dtype=bool)
            on_src[labels[:, self.src]] = True
            on_src[0] = False
            crossed = on_src[labels[:, self.snk]].any(axis=1)
            lo = np.where(crossed, mid, lo)
            hi = np.where(crossed, hi, mid)
        return self.level - ordered[rows, lo]


def compile_event(spec: EventSpec, index) -> CompiledEvent:
    return CompiledEvent(spec, index)


def _resolve(sample, index=None) -> tuple[np.ndarray, dict]:
    if isinstance(sample, FieldSample):
        return np.asarray(sample.values, dtype=float), sample.index
    if index is None:
        raise InputError("plain arrays need an explicit index map")
    return np.asarray(sample, dtype=float), index


def occurs(spec: EventSpec, sample, index=None) -> bool:
    """Does the event hold on {sample >= level} with lattice connectivity?"""
    values, idx = _resolve(sample, index)
    return compile_event(spec, idx).occurs(values)


def threshold(spec: EventSpec, sample, index=None) -> float:
    """T with occurs(spec shifted by u) iff T <= u.

    For AllAbove this is level - min over the support; for crossings it is
    level minus the maximin (bottleneck) value over source-sink paths.
    Raises SpecError for structurally degenerate specifications.
    """
    values, idx = _resolve(sample, index)
    return compile_event(spec, idx).threshold(values)
