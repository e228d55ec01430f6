"""Shortest-path oracle on a grid graph, independent of the Clairaut path.

The rectangle [r_lo, r_hi] x [v_lo, v_hi] is discretized to an 8-connected
grid whose edge weights are the local metric quadratic form at the edge
midpoint, sqrt(dr^2 + h(r_mid)^2 dv^2), with h read once per grid row and
row gap.  Row sweeps in numpy give the distance field to within 1e-12 of
each node's value, and its best neighbours the path back from the target;
the distance reported is that path's edge weights added from the source
on, as Dijkstra adds them, so it is exactly an admissible path's length.
Every read of h is one read of h's exponent frame at a float64 array of
radii, h = exp(log h); the path descent forms h' = -2 r p h / (1 + r^2)
from that read's p, for accepted steps only.

Raw grid paths overestimate: discretization contributes O(step) and the
eight fixed directions contribute an anisotropy excess that does not
vanish with the step (up to ~8% for segments at worst angles).  The oracle
therefore reports three numbers:

    raw       - grid distance at the fine resolution
    refined   - two-resolution Richardson extrapolation (kills the O(step))
    relaxed   - exact metric length of the extracted node path after
                descending the squared-length energy over node
                positions until a step gains less than 1e-12 of it (still
                an admissible path, so still an upper bound; the zigzag
                excess is gone), the sum of the segment lengths of the
                energy the descent last accepted

plus the measured anisotropy factor raw/relaxed.  Comparisons at the few
percent level must use `relaxed`; `raw` certifies the global route.
"""

import math
from dataclasses import dataclass

import numpy as np


class ResourceLimit(RuntimeError):
    """Grid size beyond the edge budget."""


@dataclass
class DijkstraResult:
    raw: float
    refined: float
    relaxed: float
    anisotropy_factor: float
    nodes: int


def _grid_weights(h_value, rs, vs):
    """The edge weights sqrt(dr^2 + (h(r_mid) dv)^2) as three arrays.

    right[ir, iv] joins (ir, iv) to (ir, iv+1), down[ir] joins (ir, iv) to
    (ir+1, iv) for every iv, and diag[ir, iv] joins (ir, iv) to (ir+1, iv+1)
    and (ir, iv+1) to (ir+1, iv), as (h * -dv)^2 == (h * dv)^2.  An edge's
    mid-radius is a grid row (0.5*(x + x) == x) or a row gap, so h is read
    once per row and per gap; the 0.0 terms are the dr of an edge within a
    row and the dv of an edge straight down."""
    h_row, h_gap = h_value(rs), h_value(0.5 * (rs[:-1] + rs[1:]))
    dv_next = vs[1:] - vs[:-1]
    dr_next = rs[1:] - rs[:-1]
    right, diag = h_row[:, None] * dv_next, h_gap[:, None] * dv_next
    for w, dr2 in ((right, 0.0 ** 2), (diag, dr_next[:, None] ** 2)):
        np.sqrt(np.add(dr2, np.square(w, out=w), out=w), out=w)  # no grid-sized temporary
    down = np.sqrt(dr_next ** 2 + (h_gap * 0.0) ** 2)
    return right, down, diag


# one pair of sweeps converges on every grid the oracle runs; a cheap row
# below the source needs more
_MAX_SWEEP_PAIRS = 64

# (d ir, d iv) from a node to each of its neighbours
_STEPS = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
# rows per block of _best_neighbours, whose least, candidate and fall-test
# buffers hold one block (the solve's peak: 3.53 grid arrays; 3.80 at 64)
_BLOCK_ROWS = 32
# the path descent's cap on steps; it stops sooner, once a step gains less
# than 1e-12 of the energy
_RELAX_SWEEPS = 600


def _best_neighbours(dist, right, down, diag):
    """Each node's least dist[u] + w(u, v) over its 8 neighbours u, in exact
    float adds, the index in _STEPS of the first u attaining it, and whether
    any node's least falls below its dist by more than 1e-12 of it; a block
    of _BLOCK_ROWS rows at a time, each through all 8 neighbours.

    The leasts are returned as a grid-sized array only when some node
    falls, else as None: a block's leasts go to a block buffer until the
    first block with a fall, which makes the whole array and starts the
    pass again from the first row, so the pass that ends a solve, where
    no node falls, never holds it."""
    nr, nv = dist.shape
    pick = np.zeros((nr, nv), dtype=np.int8)
    buf = np.empty((_BLOCK_ROWS, nv))
    cand, lower = np.empty((_BLOCK_ROWS, nv)), np.empty((_BLOCK_ROWS, nv), dtype=bool)
    best = None
    i0 = 0
    while i0 < nr:
        i1 = min(i0 + _BLOCK_ROWS, nr)
        least = buf[:i1 - i0] if best is None else best[i0:i1]
        least.fill(np.inf)
        for k, (di, dj) in enumerate(_STEPS):
            # rows t whose neighbour row t + di exists; w's rows start at lo
            lo = max(0, -di)
            t0, t1 = max(i0, lo), min(i1, nr - max(0, di))
            if t0 >= t1:
                continue
            cols = np.s_[max(0, -dj):nv - max(0, dj)]
            to = np.s_[t0 - i0:t1 - i0, cols]
            frm = np.s_[t0 + di:t1 + di, max(0, dj):nv - max(0, -dj)]
            w = (right if di == 0 else down[:, None] if dj == 0 else diag)[t0 - lo:t1 - lo]
            c, low = cand[:t1 - t0, cols], lower[:t1 - t0, cols]
            np.add(dist[frm], w, out=c)
            np.less(c, least[to], out=low)
            np.copyto(least[to], c, where=low)
            np.copyto(pick[t0:t1, cols], k, where=low)
        if best is None and np.any(least < dist[i0:i1] * (1.0 - 1e-12)):
            best, i0 = np.empty((nr, nv)), 0
            continue
        i0 = i1
    return best, pick, best is not None


def _row_sweep(right, down, diag, src):
    """Distances from node src = (ir, iv), and _best_neighbours' directions.

    Each pair of passes runs up the rows and back down; a row first takes
    its three edges from the row before it, then scans: node i falls to
    s[i] + min_{j<i} (row[j] - s[j]) and to min_{j>i} (row[j] + s[j]) - s[i],
    s the row's cumulative right weights (a converged row is a fixed
    point).  A pair after which no node would fall by more than 1e-12 of
    its value ends the solve; otherwise those nodes fall and another pair
    runs.  Every sum and running minimum goes into one of three row
    buffers: no array per row, no node-sized array but dist."""
    nr, nv = right.shape[0], right.shape[1] + 1
    dist = np.full((nr, nv), np.inf)
    dist[src] = 0.0
    s, a, b = np.zeros(nv), np.empty(nv - 1), np.empty(nv - 1)
    s_lo, s_hi, b_rev = s[:-1], s[1:], b[::-1]
    for _ in range(_MAX_SWEEP_PAIRS):
        # rows 0, 1, ..., nr - 1, then nr - 2, ..., 0: each takes from the row before it
        for t, ir in enumerate([*range(nr), *range(nr - 2, -1, -1)]):
            row = dist[ir]
            lo, hi = row[:-1], row[1:]
            if t:
                gap = min(ir, ir_p)
                w = diag[gap]
                np.add(p, down[gap], out=s)  # s is refilled below
                np.minimum(row, s, out=row)
                np.minimum(hi, np.add(p_lo, w, out=a), out=hi)
                np.minimum(lo, np.add(p_hi, w, out=a), out=lo)
                s[0] = 0.0
            np.add.accumulate(right[ir], out=s_hi)
            np.minimum.accumulate(np.subtract(lo, s_lo, out=a), out=b)
            np.minimum(hi, np.add(b, s_hi, out=a), out=hi)
            np.minimum.accumulate(np.add(hi, s_hi, out=a)[::-1], out=b_rev)
            np.minimum(lo, np.subtract(b, s_lo, out=a), out=lo)
            p, p_lo, p_hi, ir_p = row, lo, hi, ir
        best, pick, falls = _best_neighbours(dist, right, down, diag)
        if not falls:
            return dist, pick
        np.minimum(dist, best, out=dist)
    raise RuntimeError(f"grid sweeps did not converge in {_MAX_SWEEP_PAIRS} pairs")


def _grid_distance(h_value, p1, p2, r_lo, r_hi, v_lo, v_hi, nr, nv, edge_budget):
    """One grid solve; returns (distance, path array of (r, v))."""
    n_nodes = nr * nv
    if 8 * n_nodes > edge_budget:
        raise ResourceLimit(f"{8 * n_nodes} edges exceed budget {edge_budget}")
    rs = np.linspace(r_lo, r_hi, nr)
    vs = np.linspace(v_lo, v_hi, nv)
    dr = rs[1] - rs[0]
    dv = vs[1] - vs[0]
    right, down, diag = _grid_weights(h_value, rs, vs)

    def nearest(p):
        i = int(round((p[0] - r_lo) / dr)) if dr > 0 else 0
        j = int(round((p[1] - v_lo) / dv)) if dv > 0 else 0
        return min(max(i, 0), nr - 1), min(max(j, 0), nv - 1)

    src = nearest(p1)
    dist, pick = _row_sweep(right, down, diag, src)
    node = nearest(p2)
    if not math.isfinite(dist[node]):
        raise RuntimeError("target unreachable on grid")
    path, weights = [node], []
    while node != src:
        if len(path) > n_nodes:
            raise RuntimeError("grid path does not lead back to the source")
        (i, j), (di, dj) = node, _STEPS[pick[node]]
        lo_i, lo_j = i + min(di, 0), j + min(dj, 0)
        weights.append(right[i, lo_j] if di == 0 else
                       down[lo_i] if dj == 0 else diag[lo_i, lo_j])
        node = (i + di, j + dj)
        path.append(node)
    d = 0.0
    for w in reversed(weights):
        d += float(w)
    ij = np.array(path[::-1])
    return d, np.column_stack((rs[ij[:, 0]], vs[ij[:, 1]]))


def _h(m, rs):
    """h at a float64 array of radii, exp of m's exponent frame's log h."""
    return np.exp(m.frame(rs).log_h)


def _slope(rs, p, h):
    """h' = -2 r p h / (1 + r^2) at radii rs from the frame's p and h there."""
    return -2.0 * rs * p * h / (1.0 + rs * rs)


_GAUSS3_X = np.array([0.5 - math.sqrt(3.0 / 20.0), 0.5, 0.5 + math.sqrt(3.0 / 20.0)])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _gauss_radii(pts):
    """Radii of the 3-point Gauss nodes of each polyline segment, one row per node."""
    a = pts[:-1, 0]
    return a + _GAUSS3_X[:, None] * (pts[1:, 0] - a)


def _energy(m, pts, r_floor=0.0):
    """Sum of squared segment lengths, and the terms its gradient reads.

    Minimizers of sum L_i^2 at fixed endpoints are constant-speed discrete
    geodesics (Cauchy-Schwarz: the length is minimized simultaneously and
    the reparametrization null space of the plain length is removed).
    Segment lengths use 3-point Gauss of sqrt(dr^2 + h(r)^2 dv^2), one row
    per node, with h at every node from one frame read; the terms keep
    that frame's p, from which the gradient (`_gradient`, metric-aware
    through h h') forms h' only for an accepted step.
    """
    dr = pts[1:, 0] - pts[:-1, 0]
    dv = pts[1:, 1] - pts[:-1, 1]
    rq = np.maximum(_gauss_radii(pts), r_floor)
    hf = m.frame(rq.ravel())
    h, p = np.exp(hf.log_h).reshape(rq.shape), hf.p.reshape(rq.shape)
    s = np.maximum(np.sqrt(dr**2 + (h * dv) ** 2), 1e-300)
    seg_len = _node_sum(_GAUSS3_W[:, None] * s)
    return float(np.sum(seg_len**2)), (dr, dv, rq, h, p, s, seg_len)


def _node_sum(rows):
    """Sum of the three Gauss-node rows, first node first."""
    return rows[0] + rows[1] + rows[2]


def _gradient(terms):
    """Gradient of `_energy` over node positions, endpoints pinned, from the
    terms it returned."""
    dr, dv, rq, h, p, s, seg_len = terms
    w, x = _GAUSS3_W[:, None], _GAUSS3_X[:, None]
    hhp_dv2 = h * _slope(rq, p, h) * dv * dv
    gA = np.column_stack((_node_sum(w * (-dr + hhp_dv2 * (1.0 - x)) / s),
                          _node_sum(w * (-(h * h) * dv) / s)))
    gB = np.column_stack((_node_sum(w * (dr + hhp_dv2 * x) / s),
                          _node_sum(w * ((h * h) * dv) / s)))
    grad = np.zeros((len(seg_len) + 1, 2))
    grad[:-1] += 2.0 * seg_len[:, None] * gA
    grad[1:] += 2.0 * seg_len[:, None] * gB
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def _laplacian_solve(b):
    """Solve T x = b with T = tridiag(-1, 2, -1) (Dirichlet chain) in closed
    form: (T^-1)_ij = min(i, j) (n + 1 - max(i, j)) / (n + 1), 1-based, so
    x_i = ((n + 1 - i) sum_{j<=i} j b_j + i sum_{j>i} (n + 1 - j) b_j) / (n + 1)."""
    n = len(b)
    i = np.arange(1.0, n + 1.0)
    below = np.cumsum(i * b)
    above = np.zeros(n)
    above[:-1] = np.cumsum(((n + 1.0 - i) * b)[:0:-1])[::-1]
    return ((n + 1.0 - i) * below + i * above) / (n + 1.0)


def _relax_path(m, pts, n_nodes=640, r_floor=0.0):
    """Relax the extracted grid path by preconditioned descent of the
    squared-length energy (endpoints pinned).

    The energy Hessian over a node chain is Laplacian-like (conditioning
    ~n^2; plain descent stalls), so the descent direction is the gradient
    put through a chain-Laplacian solve, with the v-coordinate additionally
    weighted by the local 1/h^2 -- a semi-implicit curve-shortening step
    that converges in tens of iterations at any resolution, and stops once
    a step gains less than 1e-12 of the energy.  Each line search starts
    at the step the last one accepted, lengthened by 1/0.4 (up to the
    Newton step) when that was its first try.  The result stays an
    admissible path, hence a rigorous upper bound.

    Returns the nodes and the segment lengths of the energy last accepted
    (3-point Gauss of the exact metric); a path of fewer than 3 nodes
    stays as it is.
    """
    pts = pts.astype(float)
    if len(pts) < 2:
        return pts, np.zeros(0)
    if len(pts) < 3:
        return pts, _energy(m, pts, r_floor)[1][-1]
    pts = _resample(pts, n=min(n_nodes, max(len(pts), 4)))
    E, terms = _energy(m, pts, r_floor)
    g = _gradient(terms)
    step = 0.5  # Hessian ~ 2 T x (metric weight): this is the Newton step
    for _ in range(_RELAX_SWEEPS):
        h_nodes = _h(m, np.maximum(pts[:, 0], r_floor))
        d = np.zeros_like(pts)
        gi = g[1:-1]
        d[1:-1, 0] = _laplacian_solve(gi[:, 0])
        d[1:-1, 1] = _laplacian_solve(gi[:, 1] / h_nodes[1:-1] ** 2)
        stalled = True
        for tries in range(25):
            prop = pts - step * d
            prop[:, 0] = np.maximum(prop[:, 0], r_floor)
            E2, prop_terms = _energy(m, prop, r_floor)
            if E2 < E:  # only an accepted step needs its gradient
                stalled = E - E2 < 1e-12 * E
                pts, E, terms = prop, E2, prop_terms
                g = _gradient(terms)
                if tries == 0:  # accepted at once: try a longer step next time
                    step = min(step / 0.4, 0.5)
                break
            step *= 0.4
        if stalled:
            break
    return pts, terms[-1]


def _resample(pts, n=None):
    """Even re-parametrization by coordinate chord length."""
    n = n or len(pts)
    seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0:
        return pts
    t = np.linspace(0.0, s[-1], n)
    out = np.empty((n, 2))
    out[:, 0] = np.interp(t, s, pts[:, 0])
    out[:, 1] = np.interp(t, s, pts[:, 1])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def dijkstra_distance_oracle(
    m,
    p1,
    p2,
    r_hi: float,
    nr: int = 260,
    nv: int | None = None,
    r_lo: float = 0.0,
    edge_budget: int = 100_000_000,
) -> DijkstraResult:
    """Grid shortest-path estimate of d(p1, p2) on the halfplane metric m.

    Runs at (nr, nv) and (2nr, 2nv) node resolutions, Richardson-combines
    the two, then relaxes the fine path to scrub the anisotropy excess.
    nv defaults to keeping grid cells roughly metric-square at mid-radius.
    Both endpoints must lie in the grid's radius range [r_lo, r_hi].
    """
    for p in (p1, p2):
        if not r_lo <= p[0] <= r_hi:
            raise ValueError(f"endpoint {p} lies outside the grid radii [{r_lo}, {r_hi}]")

    def hv(rs):
        return _h(m, rs)

    v_lo = min(p1[1], p2[1])
    v_hi = max(p1[1], p2[1])
    if v_hi - v_lo <= 0:
        v_hi = v_lo + max(1e-6, abs(r_hi - r_lo) * 1e-3)
    if nv is None:
        h_mid = float(m.value(0.5 * (r_lo + r_hi)))
        aspect = (v_hi - v_lo) * max(h_mid, 1e-12) / max(r_hi - r_lo, 1e-12)
        nv = int(min(max(nr * aspect, nr), 14 * nr))

    d1, _ = _grid_distance(hv, p1, p2, r_lo, r_hi, v_lo, v_hi, nr, nv, edge_budget)
    d2, path2 = _grid_distance(
        hv, p1, p2, r_lo, r_hi, v_lo, v_hi, 2 * nr - 1, 2 * nv - 1, edge_budget
    )
    refined = 2.0 * d2 - d1
    _, seg_len = _relax_path(m, path2, r_floor=max(r_lo, m.domain_start))
    relaxed = float(np.sum(seg_len))
    return DijkstraResult(
        raw=d2,
        refined=refined,
        relaxed=relaxed,
        anisotropy_factor=d2 / relaxed if relaxed > 0 else float("nan"),
        nodes=(2 * nr - 1) * (2 * nv - 1),
    )
