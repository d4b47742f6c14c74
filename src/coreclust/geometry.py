"""Points, metrics, powered distances, costs and nearest-center assignment.

Conventions used throughout the package:

* Euclidean mode: points and centers are ``(n, d)`` / ``(m, d)`` float arrays.
* Explicit-metric mode: points and centers are 1-D integer arrays of ids into
  the metric's symmetric ``n x n`` distance matrix.
* Ties in nearest-center assignment always go to the lowest center index, so
  every randomized pipeline is exactly replayable.
* All reals are float64; verifiers compare costs at relative tolerance
  ``REL_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-9

EUCLIDEAN = "euclidean"
MATRIX = "explicit-matrix"

# Distances per block (block_rows sizes every walk's blocks with it):
# the exact form holds two blocks of CHUNK_CELLS float64 (1 MiB) at a time,
# which stay in a 2 MiB per-core L2.  A center set gets the exact difference
# form when its row width m*d is at most EXACT_MAX_WIDTH or its dimension d
# is at most EXACT_MAX_DIM: there its d passes cost less per cell than the
# dot-product expansion, whatever m.
CHUNK_CELLS = 1 << 16
EXACT_MAX_WIDTH = 4096
EXACT_MAX_DIM = 3

FULL_CHECK_LIMIT = 128
SAMPLED_PAIRS = 2000


class InputError(ValueError):
    """Invalid argument combination (empty center set, bad parameter range, ...)."""


class LoadError(ValueError):
    """Malformed input file or distance matrix."""


def check_power(z) -> float:
    z = float(z)
    if not np.isfinite(z) or z < 1.0:
        raise InputError(f"power parameter must satisfy z >= 1, got {z}")
    return z


@dataclass(frozen=True)
class Metric:
    """Distance oracle: plain Euclidean or an explicit finite metric matrix.

    The kernel reads d(p, c) as matrix[p, c], and keeps the matrix
    C-contiguous and read-only.  Built directly, the matrix is not checked;
    from_matrix is the checked constructor.
    """

    kind: str = EUCLIDEAN
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, MATRIX):
            raise InputError(f"unknown metric kind {self.kind!r}")
        if self.kind == MATRIX:
            if self.matrix is None:
                raise InputError("explicit-matrix metric requires a matrix")
            object.__setattr__(self, "matrix",
                               np.ascontiguousarray(self.matrix, dtype=float))
            self.matrix.setflags(write=False)

    @property
    def is_euclidean(self) -> bool:
        return self.kind == EUCLIDEAN

    @property
    def size(self) -> int | None:
        return None if self.matrix is None else self.matrix.shape[0]

    @staticmethod
    def from_matrix(matrix) -> "Metric":
        """Build an explicit finite metric, checking the metric axioms.

        Finite entries, no negative one, a zero diagonal and symmetry are
        always checked exactly, in that order, each over blocks of rows.
        The triangle inequality d(i, k) <= d(i, j) + d(j, k) is checked for
        every intermediate j over all n^2 pairs (i, k) when
        n <= FULL_CHECK_LIMIT and over SAMPLED_PAIRS seeded pairs otherwise,
        a block of pairs at a time.  So memory beyond the matrix is
        O(CHUNK_CELLS).
        """
        D = np.asarray(matrix, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise LoadError(f"distance matrix must be square, got shape {D.shape}")
        n = D.shape[0]
        step = block_rows(n)
        blocks = [slice(s, s + step) for s in range(0, n, step)]
        if not all(np.all(np.isfinite(D[r])) for r in blocks):
            raise LoadError("distance matrix contains non-finite entries")
        if any(np.any(D[r] < 0) for r in blocks):
            raise LoadError("distance matrix contains negative entries")
        if np.any(np.diag(D) != 0):
            raise LoadError("distance matrix has a nonzero diagonal")
        if not all(np.array_equal(D[r], D[:, r].T) for r in blocks):
            raise LoadError("distance matrix is not symmetric")
        if n == 0:
            raise LoadError("distance matrix is empty")
        tol = REL_TOL * max(1.0, float(D.max()))
        if n <= FULL_CHECK_LIMIT:
            a, b = np.divmod(np.arange(n * n), n)
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, n, size=SAMPLED_PAIRS)
            b = rng.integers(0, n, size=SAMPLED_PAIRS)
        for s in range(0, len(a), step):
            i, k = a[s:s + step], b[s:s + step]
            # row r holds d(i_r, j) + d(j, k_r) for every j: D is symmetric
            through = D[i]
            through += D[k]
            through += tol
            bad = np.flatnonzero(D[i, k][:, None] > through)
            if len(bad):
                r, j = divmod(int(bad[0]), n)
                raise LoadError(
                    f"triangle inequality violated: d({i[r]}, {k[r]}) > "
                    f"d({i[r]}, {j}) + d({j}, {k[r]})")
        return Metric(kind=MATRIX, matrix=D)


def metric_from_points(coords) -> Metric:
    """Explicit metric induced by Euclidean distances of the given points."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    DT = distance_table(Metric(), coords, coords)
    D = 0.5 * (DT + DT.T)
    np.fill_diagonal(D, 0.0)
    return Metric(kind=MATRIX, matrix=D)


def as_points(metric: Metric, arr) -> np.ndarray:
    """Normalize a raw point/center array to the metric's representation."""
    if metric.is_euclidean:
        out = np.atleast_2d(np.asarray(arr, dtype=float))
        if out.ndim != 2:
            raise InputError(f"euclidean points must be (n, d), got shape {out.shape}")
        if not np.all(np.isfinite(out)):
            raise InputError("points contain non-finite coordinates")
        return out
    out = np.atleast_1d(np.asarray(arr))
    if out.ndim != 1 or not np.issubdtype(out.dtype, np.integer):
        raise InputError("explicit-metric points must be a 1-D integer id array")
    # a negative id, seen as unsigned, lies above every valid one
    n, ids = metric.size, out.astype(np.intp)
    if len(ids) and ids.view(np.uintp).max() >= n:
        raise InputError(f"point ids out of range [0, {n})")
    return ids


@dataclass(frozen=True)
class PointSet:
    """Indexed points (or metric-space ids) with integer multiplicities."""

    points: np.ndarray
    metric: Metric = field(default_factory=Metric)
    multiplicity: np.ndarray | None = None

    def __post_init__(self):
        pts = as_points(self.metric, self.points)
        object.__setattr__(self, "points", pts)
        if self.multiplicity is None:
            mult = np.ones(len(pts), dtype=np.int64)
        else:
            mult = np.asarray(self.multiplicity)
            if not np.issubdtype(mult.dtype, np.integer):
                raise InputError("multiplicities must be integers")
            mult = mult.astype(np.int64)
            if mult.shape != (len(pts),) or np.any(mult < 0):
                raise InputError("multiplicities must be nonnegative, one per point")
        object.__setattr__(self, "multiplicity", mult)
        pts.setflags(write=False)
        mult.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int | None:
        return self.points.shape[1] if self.metric.is_euclidean else None

    @property
    def total_weight(self) -> int:
        return int(self.multiplicity.sum())


def coerce_weighted(obj):
    """Normalize inputs to (points, float weights, metric).

    Accepts a PointSet, a coreset-like object with .points/.weights/.metric,
    or a (points, weights, metric) tuple.
    """
    if isinstance(obj, PointSet):
        return obj.points, obj.multiplicity.astype(float), obj.metric
    if hasattr(obj, "points") and hasattr(obj, "weights") and hasattr(obj, "metric"):
        return obj.points, np.asarray(obj.weights, dtype=float), obj.metric
    points, weights, metric = obj
    points = as_points(metric, points)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(points),):
        raise InputError("weights must be one per point")
    return points, weights, metric


def _sq_dist(a, b, diff, out) -> np.ndarray:
    """The one exact squared distance, over the first axis of broadcast
    (d, ...) arrays: (a_j - b_j)^2 added one coordinate at a time, left to
    right, into out.  The first square is written, not added to 0 (the same
    bits).  diff is scratch space of out's shape."""
    if len(a) == 0:
        out.fill(0.0)
        return out
    np.subtract(a[0], b[0], out=out)
    np.multiply(out, out, out=out)
    for a_j, b_j in zip(a[1:], b[1:]):
        np.subtract(a_j, b_j, out=diff)
        out += np.multiply(diff, diff, out=diff)
    return out


def _aligned_empty(shape) -> np.ndarray:
    """Uninitialised float64 array whose data starts on a 64-byte boundary:
    the exact form's passes run slower on rows that do not."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + size].reshape(shape)


def _scratch(cells, have=None) -> np.ndarray:
    """Room for pairwise_dist's two block arrays of up to `cells` entries,
    each 64-byte aligned: `have` when it is large enough.  A walker keeps one
    for all its blocks.  Blocks that each allocated their own arrays let
    glibc trim the freed heap top between blocks, and every block faulted
    its pages in again."""
    size = 2 * (-(-cells // 8) * 8)
    return have if have is not None and have.size >= size else _aligned_empty((size,))


def _check_dims(P, C) -> None:
    if P.shape[1] != C.shape[1]:
        raise InputError(
            f"dimension mismatch: points are {P.shape[1]}-D, centers {C.shape[1]}-D")


def _coordinate_major(points) -> np.ndarray:
    """Euclidean points as an (n, d) view of coordinate-major memory, which
    pairwise_dist takes in place.  Rows are padded to whole 64-byte lines,
    so every coordinate's row, and every block of a multiple of 8 points,
    starts aligned."""
    points = np.atleast_2d(points)
    n = len(points)
    PT = _aligned_empty((points.shape[1], -(-n // 8) * 8))[:, :n]
    PT[...] = points.T
    return PT.T


def exact_form(width, d) -> bool:
    """Whether a center set of row width m*d and dimension d takes the exact
    difference form.  Each of its distances is within a relative
    (d + 3) * machine epsilon of the true distance between the stored
    coordinates, however far they lie from the origin (unless a square
    underflows or overflows)."""
    return width <= EXACT_MAX_WIDTH or d <= EXACT_MAX_DIM


def _center_terms(C, width=None):
    """What every block against one (m, d) center set shares: the set
    coordinate-major, and |c|^2 when the set takes the dot-product form
    (None for the exact form).  The walkers make them once a set.  A stack
    of G sets passes one set's m*d as `width` to take its form."""
    width = C.size if width is None else width
    dot_form = not exact_form(width, C.shape[1])
    return np.ascontiguousarray(C.T), (C * C).sum(axis=1) if dot_form else None


def pairwise_dist(metric: Metric, points, centers, out=None, terms=None,
                  scratch=None) -> np.ndarray:
    """Base (unpowered) distances of one block, an (n_points, n_centers)
    array; callers pass blocks of about CHUNK_CELLS distances.

    Explicit-metric ids, checked ones (as_points), are gathered
    center-major by one flat np.take over the row-major matrix, d(p, c)
    being D[p, c]: the block is the transposed view of an (n_centers,
    n_points) array (`out` when given), the layout of the Euclidean forms
    below, so a walk's minima run over contiguous rows.  No symmetry of D
    is assumed.

    Euclidean points take the exact form (_sq_dist) when the row width m*d
    is at most EXACT_MAX_WIDTH or d is at most EXACT_MAX_DIM, the
    dot-product expansion (fewer passes at large m*d and d, but it cancels
    digits) otherwise; an entry depends only on its point, its center, m*d
    and d.  Both forms run along the longer side: the block is the
    transposed view of a center-major array, or point-major when it holds
    fewer points than centers.  `out`, a C-ordered (n_centers, n_points) array, receives the
    distances, and the block is then its transposed view.  From a walker
    that sends many blocks, `terms` is _center_terms(centers) and `scratch`
    is _scratch(cells) for blocks of up to that many cells; the block
    returned is then a view of the scratch, valid until the walker's next
    call.  Rows of a larger center set pass that set's terms at those rows
    (table_rows), so their entries are the whole set's.  No entry is a
    negative zero: squares are at least +0, and the dot form recomputes
    entries near 0 exactly.
    """
    if not metric.is_euclidean:
        # entry (j, i) is D[p_i, c_j], at c_j + p_i N; the ids are checked
        # (as_points), so "clip" clips none.  + 0.0 turns a stored -0.0
        # into 0.0: no distance is a negative zero
        D = metric.matrix
        at = np.add.outer(np.asarray(centers),
                          np.multiply(points, len(D), dtype=np.intp),
                          dtype=np.intp)
        block = np.empty(at.shape) if out is None else out
        np.take(D.reshape(-1), at, out=block, mode="clip")
        np.add(block, 0.0, out=block)
        return block.T
    P = np.atleast_2d(np.asarray(points, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    _check_dims(P, C)
    # the passes run along the points, over center-major (m, rows) arrays
    # whose (rows, m) view is the block; a block of fewer points than
    # centers (a row block of a large set) runs along the centers.  Points
    # that are already a view of coordinate-major memory are used in place.
    # Both arrays are taken before the passes: an array allocated after
    # them let glibc trim the heap, and every query faulted in again
    m, rows = len(C), len(P)
    CT, cc = _center_terms(C) if terms is None else terms
    along_points = rows >= m
    PT = P.T if P.strides[0] == P.itemsize else np.ascontiguousarray(P.T)
    shape = (m, rows) if along_points else (rows, m)

    def array(i):
        # a call of its own allocates its arrays apart, so the block it
        # returns does not keep the other one alive
        if scratch is None:
            return _aligned_empty(shape)
        return scratch[i * (scratch.size // 2):][:m * rows].reshape(shape)

    acc = array(0)
    sq = out if out is not None and along_points else array(1)
    with np.errstate(over="ignore", invalid="ignore"):
        if cc is not None:
            # |p|^2 + |c|^2 - 2 p.c, with every p.c added left to right.
            # einsum does so when its passes run along more than one entry (a
            # single pair takes its vectorised dot); numpy's row sums add
            # strided operands in another order
            P = np.ascontiguousarray(P)
            pp = (P * P).sum(axis=1)
            A, BT, aa, bb = (C, PT, cc, pp) if along_points else (P, CT, pp, cc)
            if acc.size != 1:
                np.einsum("ak,kb->ab", A, BT, out=acc)
            else:
                acc.fill(0.0)
                for a_k, b_k in zip(A[0], BT[:, 0]):
                    acc += a_k * b_k
            acc *= 2.0
            np.add.outer(aa, bb, out=sq)
            sq -= acc
            # near a center the expansion is rounding noise, even below 0 (a
            # point's distance to itself would not be 0): redo those exactly
            bound = pp * 2.0 ** -20
            near = np.flatnonzero(sq <= (bound if along_points else bound[:, None]))
            a, b = np.divmod(near, sq.shape[1])
            i, j = (b, a) if along_points else (a, b)
            np.put(sq, near, _sq_dist(P[i].T, C[j].T, np.empty(len(near)),
                                      np.empty(len(near))))
        else:
            # (c_j - p_j)^2 and (p_j - c_j)^2 are the same bits
            A, BT = (CT, PT) if along_points else (PT, CT)
            _sq_dist(A[:, :, None], BT[:, None, :], acc, sq)
        np.sqrt(sq, out=sq)
    if along_points:
        return sq.T
    if out is None:
        return sq
    out[...] = sq.T
    return out.T


def check_centers(metric: Metric, centers) -> np.ndarray:
    c = as_points(metric, centers)
    if len(c) == 0:
        raise InputError("center set must be nonempty")
    return c


def dist_pow(p, centers, z=1.0, metric: Metric | None = None) -> float:
    """Powered distance from one point to its nearest center."""
    metric = metric or Metric()
    p_arr = as_points(metric, [p] if not metric.is_euclidean else p)
    return float(nearest_center(metric, p_arr, centers, z)[1][0])


def center_index(metric: Metric, points, centers) -> np.ndarray:
    """For each Euclidean point that is one of the checked centers, the first
    center equal to it; -1 for every other point.  A point with index j >= 0
    is at distance 0 from center j and from no earlier center, so
    nearest_own_center gives it j and 0 without the kernel.

    Explicit-metric ids are all -1: their kernel is a gather.  Every point
    is -1 when a center could tie with another point at distance 0: when a
    center has a coordinate of magnitude in (0, 2^-480) (the squared
    difference of two distinct coordinates can underflow to 0) or of at
    least 2^480 (a sum of squares can overflow).  Points match by value, so
    -0.0 equals 0.0.  They are keyed in blocks, so memory beyond the index
    is O(CHUNK_CELLS).
    """
    idx = np.full(len(points), -1, dtype=np.intp)
    if not metric.is_euclidean:
        return idx
    _check_dims(points, centers)
    a = np.abs(centers)
    if not np.all((a == 0) | ((a >= 2.0 ** -480) & (a < 2.0 ** 480))):
        return idx
    keys = _row_keys(centers)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    step = block_rows(points.shape[1])
    for s in range(0, len(points), step):
        pkeys = _row_keys(points[s:s + step])
        pos = np.minimum(np.searchsorted(keys, pkeys), len(keys) - 1)
        hit = keys[pos] == pkeys
        idx[s:s + step][hit] = order[pos[hit]]
    return idx


def _row_keys(rows) -> np.ndarray:
    """One opaque key per row: equal keys are rows of equal value."""
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0   # -0.0 -> 0.0
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def block_rows(width) -> int:
    """Rows of `width` cells in a block of about CHUNK_CELLS, at least one:
    the size of every walk's blocks, slabs and batches."""
    return max(1, CHUNK_CELLS // max(1, width))


_OVERFLOW = ("distance to the nearest center overflows float64; rescale the "
            "coordinates")


def _nearest_walk(metric: Metric, points, sets, z, out, idx=None, take=None,
                  scratch=None):
    """The one walk of nearest_center, nearest_own_center and costs: row i
    of out, (G, n), gets the d**z of each point in `take` (every point when
    None) to its nearest center in sets[i], G checked sets of one shape
    (G > 1 only from costs); idx, for one set, gets the center's index.
    The sets are stacked slot-major (center j of set i is column j*G + i)
    with one set's terms, so each entry has that set's bits; no entry is a
    negative zero, so a minimum has argmin's bits.  Blocks of about
    CHUNK_CELLS distances hold all the points or a multiple of 8 rows
    (coordinate-major points start aligned); Euclidean ones are built in
    `scratch`, which the walk returns for the next call.  **z runs once a
    point (x**1 is x, so z = 1 skips it); a d**z that overflows raises.
    """
    G, k = len(sets), len(sets[0])
    C = sets[0] if G == 1 else np.stack(sets, axis=1).reshape(
        k * G, *sets[0].shape[1:])
    terms = _center_terms(C, sets[0].size) if metric.is_euclidean else None
    n = len(points) if take is None else len(take)
    step = block_rows(k * G)
    if step < n:
        step = step - step % 8 or step
    if terms is not None:
        scratch = _scratch(min(step, n) * k * G, scratch)
    # rows of out take the minima in place; scattered rows need a buffer
    near = None if take is None else np.empty((G, min(step, n)))
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            rows = slice(s, s + step) if take is None else take[s:s + step]
            block = pairwise_dist(metric, points[rows], C, terms=terms,
                                  scratch=scratch)
            d = out[:, rows] if near is None else near[:, :len(block)]
            if idx is None:
                np.minimum.reduce(block.T.reshape(k, G, -1), axis=0, out=d)
            else:
                i = block.argmin(axis=1)
                idx[rows] = i
                d[0] = block[np.arange(len(i)), i]
            if z != 1:
                np.power(d, z, out=d)
            if near is not None:
                out[:, rows] = d
    if not np.all(np.isfinite(out)):
        raise InputError(_OVERFLOW)
    return scratch


def _rows(metric: Metric, points) -> np.ndarray:
    """Points as the walk takes them: (n, d) rows or checked 1-D ids."""
    return np.atleast_2d(points) if metric.is_euclidean else as_points(metric, points)


def nearest_center(metric: Metric, points, centers, z=1.0):
    """Nearest center of every point and its powered distance: (idx, d**z).

    Ties go to the lowest center index.  Rows go through pairwise_dist in
    the blocks of _nearest_walk, so the working set stays in cache and
    memory beyond the outputs is O(CHUNK_CELLS); a d**z that overflows
    raises.
    """
    z, c = check_power(z), check_centers(metric, centers)
    points = _rows(metric, points)
    idx, dz = np.empty(len(points), dtype=np.intp), np.empty(len(points))
    _nearest_walk(metric, points, [c], z, dz[None], idx)
    return idx, dz


def nearest_own_center(metric: Metric, points, centers, z=1.0):
    """nearest_center bit for bit, for centers drawn from the points
    themselves (bicriteria's draws and B, a builder's anchors): a Euclidean
    point equal to a center takes center_index's center and distance 0,
    which is what the kernel gives it, and only the other points take the
    walk.  Memory beyond the outputs is an index of those and O(CHUNK_CELLS).
    """
    z, c = check_power(z), check_centers(metric, centers)
    points = _rows(metric, points)
    idx, dz = center_index(metric, points, c), np.zeros(len(points))
    rest = np.flatnonzero(idx < 0)
    _nearest_walk(metric, points, [c], z, dz[None], idx,
                  None if len(rest) == len(points) else rest)
    return idx, dz


def table_rows(metric: Metric, points, centers, z=1.0):
    """The one rule for rows of the candidate-major table of d**z: a
    function fill(ids, out) that writes the rows of centers[ids] (a slice or
    an index array) into out, a C-ordered (len(ids), n) array, and returns
    it.

    Euclidean points are laid out coordinate-major once and the whole
    center set's terms are made once (_center_terms), so every entry has
    the bits of pairwise_dist(points, centers) ** z (x**1 is x, so z = 1
    skips the power) whichever rows are asked for, in whatever order.
    Memory beyond the output is the copy and, for Euclidean points, a
    scratch for blocks of up to block_rows(n) rows.
    """
    euclid = metric.is_euclidean
    if euclid:
        points = _coordinate_major(points)
        centers = np.asarray(centers, dtype=float)
        CT, cc = _center_terms(centers)
        scratch = _scratch(min(block_rows(len(points)), len(centers))
                           * len(points))
    else:
        points, centers = as_points(metric, points), as_points(metric, centers)
        scratch = None

    def fill(ids, out):
        terms = None
        if euclid:
            terms = (np.ascontiguousarray(CT[:, ids]),
                     None if cc is None else cc[ids])
        pairwise_dist(metric, points, centers[ids], out=out, terms=terms,
                      scratch=scratch)
        if z != 1:
            np.power(out, z, out=out)
        return out
    return fill


def distance_table(metric: Metric, points, centers, z=1.0) -> np.ndarray:
    """Center-major d**z, shape (n_centers, n_points): row j holds every
    point's powered distance to centers[j].

    table_rows fills slabs of centers, about CHUNK_CELLS distances each
    against every point, in the table's own rows, so memory beyond the
    table is the copy and O(CHUNK_CELLS).
    """
    # the table is taken before table_rows's copy and scratch: taken after
    # them, it raised the `stream` CLI's peak RSS by 1.4 MB
    DT = np.empty((len(centers), len(points)))
    fill = table_rows(metric, points, centers, z)
    cols = block_rows(len(points))
    for s in range(0, len(centers), cols):
        fill(slice(s, s + cols), DT[s:s + cols])
    return DT


def weighted_sum(values, weights):
    """The one weighted sum, over the last axis of (n,) or (b, n) values: einsum
    adds in one order wherever a row sits and whatever the BLAS thread count,
    once both operands are C-ordered (it adds strided ones in another order)."""
    return np.einsum("...i,i->...", np.ascontiguousarray(values),
                     np.ascontiguousarray(weights))


def _group_size(n, c) -> int:
    """How many consecutive sets of k centers like c costs walks at once
    over n points: G = CHUNK_CELLS // (k * max(n, d)) (d = 1 for ids), at
    least 1.  A group's block of distances over all n points and its
    stacked coordinates then fit in one block of CHUNK_CELLS; a set wider
    than that walks alone, in row blocks."""
    return max(1, CHUNK_CELLS // max(c.size, len(c) * n))


def _set_groups(metric: Metric, center_sets, n):
    """The checked center sets, consecutive ones of one shape in lists of up
    to _group_size.  A set that fails its check raises once the sets before
    it have been handed out, as when each set was walked alone."""
    group = []
    for centers in center_sets:
        try:
            c = check_centers(metric, centers)
        except InputError:
            if group:
                yield group
            raise
        if group and (c.shape != group[0].shape
                      or len(group) == _group_size(n, group[0])):
            yield group
            group = []
        group.append(c)
    if group:
        yield group


def cost_walk(data, z=1.0):
    """Prepared cost queries over a PointSet, a coreset or a (points,
    weights, metric) tuple: walk(center_sets) gives the weighted sum of d**z
    to the nearest center for every center set, as costs does.

    The set-up is done once: the data and z are checked, Euclidean points
    are laid out coordinate-major in 64-byte aligned memory (pairwise_dist
    takes them in place) and the weights are made contiguous.  Each walk
    then checks its sets, and consecutive sets of one shape walk together,
    as many as _group_size allows, through one _nearest_walk.  Each row of
    a group is a set's own d**z, and a C-ordered row sums as it does alone,
    so every entry has the bits of weighted_sum(nearest_center(...)[1],
    weights).  The walk keeps its d**z rows and its block scratch between
    calls, so memory beyond each output is the copy, a group's d**z rows
    (at most a block, or one row) and a few blocks, whatever the number of
    sets or calls; a d**z that overflows raises.
    """
    points, weights, metric = coerce_weighted(data)
    if len(points) == 0:
        raise InputError("cost of an empty point set is undefined")
    z = check_power(z)
    if metric.is_euclidean:
        points = _coordinate_major(points)
    weights, n = np.ascontiguousarray(weights), len(points)
    dz, scratch = np.empty(n), None

    def walk(center_sets) -> np.ndarray:
        nonlocal dz, scratch
        out, q = np.empty(len(center_sets)), 0
        for group in _set_groups(metric, center_sets, n):
            G = len(group)
            if dz.size < G * n:
                dz = np.empty(G * n)
            rows = dz[:G * n].reshape(G, n)
            scratch = _nearest_walk(metric, points, group, z, rows,
                                    scratch=scratch)
            out[q:q + G] = weighted_sum(rows, weights)
            q += G
        return out
    return walk


def costs(data, center_sets, z=1.0) -> np.ndarray:
    """Weighted sum of d**z to the nearest center over a PointSet, a coreset
    or a (points, weights, metric) tuple, for every center set in one walk:
    cost_walk(data, z)(center_sets), so the one path of every cost query.
    Memory beyond the output is cost_walk's.
    """
    return cost_walk(data, z)(center_sets)


def cost(data, centers, z=1.0) -> float:
    """Weighted sum of d**z to the nearest center over a PointSet, a coreset
    or a (points, weights, metric) tuple: costs of one center set, so on
    Euclidean data it also copies the points once."""
    return float(costs(data, [centers], z)[0])


def project(P: PointSet, B) -> PointSet:
    """Snap every point to its nearest center in B (ties: lowest index)."""
    c = check_centers(P.metric, B)
    idx, _ = nearest_center(P.metric, P.points, c)
    return PointSet(points=c[idx], metric=P.metric,
                    multiplicity=P.multiplicity.copy())


def partition_by_nearest(P: PointSet, B) -> list[np.ndarray]:
    """Point indices grouped by nearest center, one array per center in B."""
    c = check_centers(P.metric, B)
    idx, _ = nearest_center(P.metric, P.points, c)
    return [np.flatnonzero(idx == j) for j in range(len(c))]


def take_smallest(values, weights, count) -> np.ndarray:
    """Amount of each item's weight consumed by the `count` smallest copies.

    Items are ordered by value (ties: lowest index); weight mass is consumed
    in that order until exactly `count` has been taken, splitting the boundary
    item if needed.  Returns an array aligned with `values`: (n,) values, or
    (b, n) values and one such row of taken weights per row.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    count = float(count)
    if count < 0:
        raise InputError("trim count must be nonnegative")
    order = np.argsort(values, axis=-1, kind="stable")
    w_sorted = weights[order]
    taken_sorted = np.cumsum(w_sorted, axis=-1)
    np.subtract(taken_sorted, w_sorted, out=taken_sorted)
    np.subtract(count, taken_sorted, out=taken_sorted)
    np.clip(taken_sorted, 0.0, w_sorted, out=taken_sorted)
    # every item is written once: w_sorted becomes the taken weights
    np.put_along_axis(w_sorted, order, taken_sorted, axis=-1)
    return w_sorted


def trimmed_cost(values, weights, count) -> float:
    """Sum of the `count` smallest value-copies (weighted, boundary split)."""
    taken = take_smallest(values, weights, count)
    return float(weighted_sum(np.asarray(values, dtype=float), taken))
