"""Shortest-path oracle on a grid graph, independent of the Clairaut path.

The rectangle [r_lo, r_hi] x [v_lo, v_hi] is discretized to an 8-connected
grid whose edge weights are the local metric quadratic form at the edge
midpoint, sqrt(dr^2 + h(r_mid)^2 dv^2), with h read once per grid row and
row gap.  The graph is written straight into canonical CSR arrays (each
node's four forward edges in column order, one column pattern for every
full row); Dijkstra (scipy.sparse.csgraph) then gives a genuine path
upper bound for the distance.  Every read of h, and of h' in the path
descent, is one read of h's exponent frame at a float64 array of radii:
h = exp(log h), h' = -2 r p h / (1 + r^2).

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
                excess is gone)

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
    error_estimate: float
    anisotropy_factor: float
    nodes: int


def _grid_graph(h_value, rs, vs):
    """The grid's edges as a canonical CSR matrix over nodes ir * nv + iv.

    Node (ir, iv) has its out-edges in column order (ir, iv+1), (ir+1, iv-1),
    (ir+1, iv) and (ir+1, iv+1), those that exist, each weighted by
    sqrt(dr^2 + (h(r_mid) dv)^2).  An edge's mid-radius is a grid row
    (0.5*(x + x) == x exactly) or a row gap, so h is read once per row and
    once per gap.  Every row but the last has the same 4 nv - 3 columns
    relative to ir * nv: node 0's (right, down, down-right), each inner
    node's (right, down-left, down, down-right) and node nv-1's (down-left,
    down); the last row holds its right edges only."""
    from scipy.sparse import csr_matrix

    nr, nv = len(rs), len(vs)
    h_row, h_gap = h_value(rs), h_value(0.5 * (rs[:-1] + rs[1:]))
    dv_next = vs[1:] - vs[:-1]  # (., iv) -> (., iv+1)
    dv_prev = vs[:-1] - vs[1:]  # (., iv+1) -> (., iv)
    dr_next = (rs[1:] - rs[:-1])[:, None]
    # weights over rows 0..nr-2; the 0.0 terms are the dr of an edge within
    # a row and the dv of an edge straight down
    right = np.sqrt(0.0 ** 2 + (h_row[:-1, None] * dv_next) ** 2)  # from iv = 0..nv-2
    down_left = np.sqrt(dr_next ** 2 + (h_gap[:, None] * dv_prev) ** 2)  # from iv = 1..nv-1
    down = np.sqrt(dr_next ** 2 + (h_gap[:, None] * 0.0) ** 2)  # one column: every iv alike
    down_right = np.sqrt(dr_next ** 2 + (h_gap[:, None] * dv_next) ** 2)  # from iv = 0..nv-2

    width = 4 * nv - 3
    n_full = (nr - 1) * width
    data = np.empty(n_full + nv - 1)
    rows = data[:n_full].reshape(nr - 1, width)
    rows[:, 0], rows[:, 1], rows[:, 2] = right[:, 0], down[:, 0], down_right[:, 0]
    inner = rows[:, 3:width - 2].reshape(nr - 1, nv - 2, 4)
    inner[..., 0], inner[..., 1] = right[:, 1:], down_left[:, :-1]
    inner[..., 2], inner[..., 3] = down, down_right[:, 1:]
    rows[:, width - 2], rows[:, width - 1] = down_left[:, -1], down[:, 0]
    data[n_full:] = np.sqrt(0.0 ** 2 + (h_row[-1] * dv_next) ** 2)

    iv = np.arange(nv, dtype=np.int32)
    pattern = np.concatenate([
        [1, nv, nv + 1],
        (iv[1:-1, None] + np.array([1, nv - 1, nv, nv + 1], dtype=np.int32)).ravel(),
        [2 * nv - 2, 2 * nv - 1],
    ]).astype(np.int32)
    row = np.arange(nr - 1, dtype=np.int32)[:, None]
    indices = np.empty(n_full + nv - 1, dtype=np.int32)
    np.add(row * nv, pattern, out=indices[:n_full].reshape(nr - 1, width))
    indices[n_full:] = (nr - 1) * nv + iv[1:]
    node_start = np.concatenate([[0], 3 + 4 * iv[:-1]])  # within a full row
    indptr = np.empty(nr * nv + 1, dtype=np.int32)
    np.add(row * width, node_start, out=indptr[:(nr - 1) * nv].reshape(nr - 1, nv))
    indptr[(nr - 1) * nv:-1] = n_full + iv
    indptr[-1] = n_full + nv - 1
    return csr_matrix((data, indices, indptr), shape=(nr * nv, nr * nv))


def _grid_distance(h_value, p1, p2, r_lo, r_hi, v_lo, v_hi, nr, nv, edge_budget):
    """One Dijkstra solve; returns (distance, path array of (r, v))."""
    # scipy.sparse loads on the first oracle call, not with the package
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    n_nodes = nr * nv
    if 8 * n_nodes > edge_budget:
        raise ResourceLimit(f"{8 * n_nodes} edges exceed budget {edge_budget}")
    rs = np.linspace(r_lo, r_hi, nr)
    vs = np.linspace(v_lo, v_hi, nv)
    dr = rs[1] - rs[0]
    dv = vs[1] - vs[0]

    graph = _grid_graph(h_value, rs, vs)

    def nearest(p):
        i = int(round((p[0] - r_lo) / dr)) if dr > 0 else 0
        j = int(round((p[1] - v_lo) / dv)) if dv > 0 else 0
        return min(max(i, 0), nr - 1) * nv + min(max(j, 0), nv - 1)

    src = nearest(p1)
    dst = nearest(p2)
    dist, pred = _csgraph_dijkstra(
        graph, directed=False, indices=src, return_predecessors=True
    )
    d = float(dist[dst])
    if not math.isfinite(d):
        raise RuntimeError("target unreachable on grid")
    path = []
    k = dst
    while k != src and k >= 0:
        path.append(k)
        k = int(pred[k])
    path.append(src)
    path.reverse()
    pts = np.array([(rs[k // nv], vs[k % nv]) for k in path])
    return d, pts


def _h_and_slope(m, rs):
    """h and h' at a float64 array of radii, from m's exponent frame."""
    hf = m.frame(rs)
    h = np.exp(hf.log_h)
    return h, -2.0 * rs * hf.p * h / (1.0 + rs * rs)


_GAUSS3_X = np.array([0.5 - math.sqrt(3.0 / 20.0), 0.5, 0.5 + math.sqrt(3.0 / 20.0)])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _gauss_radii(pts):
    """Radii of the 3-point Gauss nodes of each polyline segment, one row per node."""
    a = pts[:-1, 0]
    return a + _GAUSS3_X[:, None] * (pts[1:, 0] - a)


def _polyline_length(h_value, pts):
    """Exact-metric length of a coordinate polyline (3-point Gauss per segment)."""
    if len(pts) < 2:
        return 0.0
    dr = pts[1:, 0] - pts[:-1, 0]
    dv = pts[1:, 1] - pts[:-1, 1]
    rm = _gauss_radii(pts)
    total = np.zeros(len(dr))
    for w, hm in zip(_GAUSS3_W, h_value(rm.ravel()).reshape(rm.shape)):
        total += w * np.sqrt(dr**2 + (hm * dv) ** 2)
    return float(np.sum(total))


def _energy_and_grad(m, pts, r_floor=0.0):
    """Sum of squared segment lengths and its gradient over node positions.

    Minimizers of sum L_i^2 at fixed endpoints are constant-speed discrete
    geodesics (Cauchy-Schwarz: the length is minimized simultaneously and
    the reparametrization null space of the plain length is removed).
    Segment lengths use 3-point Gauss of sqrt(dr^2 + h(r)^2 dv^2); the
    gradient is metric-aware through h h' at the quadrature nodes, all
    read in one _h_and_slope call.
    """
    a, b = pts[:-1], pts[1:]
    dr = b[:, 0] - a[:, 0]
    dv = b[:, 1] - a[:, 1]
    seg_len = np.zeros(len(a))
    gA = np.zeros_like(a)
    gB = np.zeros_like(b)
    rq = np.maximum(_gauss_radii(pts), r_floor)
    hs, hps = (c.reshape(rq.shape) for c in _h_and_slope(m, rq.ravel()))
    for x, w, h, hp in zip(_GAUSS3_X, _GAUSS3_W, hs, hps):
        s = np.maximum(np.sqrt(dr**2 + (h * dv) ** 2), 1e-300)
        seg_len += w * s
        hhp_dv2 = h * hp * dv * dv
        gA[:, 0] += w * (-dr + hhp_dv2 * (1.0 - x)) / s
        gB[:, 0] += w * (dr + hhp_dv2 * x) / s
        gA[:, 1] += w * (-(h * h) * dv) / s
        gB[:, 1] += w * ((h * h) * dv) / s
    E = float(np.sum(seg_len**2))
    grad = np.zeros_like(pts)
    grad[:-1] += 2.0 * seg_len[:, None] * gA
    grad[1:] += 2.0 * seg_len[:, None] * gB
    grad[0] = 0.0
    grad[-1] = 0.0
    return E, grad


def _laplacian_solve(b):
    """Solve T x = b with T = tridiag(-1, 2, -1) (Dirichlet chain)."""
    n = len(b)
    ab = np.zeros((2, n))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    from scipy.linalg import solveh_banded

    return solveh_banded(ab, b)


def _relax_path(m, pts, iters=400, n_nodes=640, r_floor=0.0):
    """Relax the extracted grid path by preconditioned descent of the
    squared-length energy (endpoints pinned).

    The energy Hessian over a node chain is Laplacian-like (conditioning
    ~n^2; plain descent stalls), so the descent direction is the gradient
    put through a chain-Laplacian solve, with the v-coordinate additionally
    weighted by the local 1/h^2 -- a semi-implicit curve-shortening step
    that converges in tens of iterations at any resolution, and stops once
    a step gains less than 1e-12 of the energy.  The result stays an
    admissible path, hence a rigorous upper bound.
    """
    if len(pts) < 3:
        return pts.astype(float)
    pts = _resample(pts.astype(float), n=min(n_nodes, max(len(pts), 4)))
    E, g = _energy_and_grad(m, pts, r_floor)
    for _ in range(iters):
        h_nodes = _h_and_slope(m, np.maximum(pts[:, 0], r_floor))[0]
        d = np.zeros_like(pts)
        gi = g[1:-1]
        d[1:-1, 0] = _laplacian_solve(gi[:, 0])
        d[1:-1, 1] = _laplacian_solve(gi[:, 1] / h_nodes[1:-1] ** 2)
        step = 0.5  # Hessian ~ 2 T x (metric weight): this is the Newton step
        stalled = True
        for _ in range(25):
            prop = pts - step * d
            prop[:, 0] = np.maximum(prop[:, 0], r_floor)
            E2, g2 = _energy_and_grad(m, prop, r_floor)
            if E2 < E:
                stalled = E - E2 < 1e-12 * E
                pts, E, g = prop, E2, g2
                break
            step *= 0.4
        if stalled:
            break
    return pts


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
    relax_sweeps: int = 600,
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
        return _h_and_slope(m, rs)[0]

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
    relaxed_path = _relax_path(m, path2, iters=relax_sweeps, r_floor=max(r_lo, m.domain_start))
    relaxed = _polyline_length(hv, relaxed_path)
    return DijkstraResult(
        raw=d2,
        refined=refined,
        relaxed=relaxed,
        error_estimate=abs(d2 - d1),
        anisotropy_factor=d2 / relaxed if relaxed > 0 else float("nan"),
        nodes=(2 * nr - 1) * (2 * nv - 1),
    )
