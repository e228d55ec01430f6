import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from warplab import gridpath
from warplab.gridpath import ResourceLimit, _grid_distance, dijkstra_distance_oracle
from warplab.grushin import GrushinMetric, grushin_distance
from warplab.halfplane import HalfplaneMetric, orbit_distance
from warplab.warping import constant_h, exp_decay_h, power_decay_h


def test_flat_straight_line():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    res = dijkstra_distance_oracle(flat, (0.0, 0.0), (0.0, 5.0), r_hi=3.0, nr=60)
    assert res.relaxed == pytest.approx(5.0, rel=1e-6)
    assert res.raw >= res.relaxed  # grid paths only overestimate


def test_zero_distance():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    res = dijkstra_distance_oracle(flat, (1.0, 2.0), (1.0, 2.0), r_hi=3.0, nr=40)
    assert res.relaxed == pytest.approx(0.0, abs=1e-12)


def test_matches_clairaut_l10(pure_half_metric):
    d_arc, sol = orbit_distance(pure_half_metric, 10)
    res = dijkstra_distance_oracle(
        pure_half_metric, (0.0, 0.0), (0.0, 20.0 * math.pi), r_hi=2.2 * sol.r_max, nr=160
    )
    assert abs(d_arc - res.relaxed) / res.relaxed < 0.02
    # and the raw grid value caps the anisotropy factor sanely
    assert 1.0 <= res.anisotropy_factor < 1.15


def test_resource_limit():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    with pytest.raises(ResourceLimit):
        dijkstra_distance_oracle(
            flat, (0.0, 0.0), (0.0, 5.0), r_hi=3.0, nr=4000, nv=40000, edge_budget=10**6
        )


# flat's grid has tied shortest paths, so its raw is the fold along the one
# the solve walks back
GOLDEN = {
    "pure": ("10.927779159629297", "10.927935802943475", "10.419659568304372"),
    "flat": ("3.6213203435596393", "3.6318511968403104", "3.3541019662496825"),
}


@pytest.mark.parametrize("case", ["pure", "flat"])
def test_oracle_golden_bits(case, pure_half_metric):
    if case == "pure":  # the l = 3 deck translate on the pure 1/2-exponent model
        m, p1, p2, r_hi = pure_half_metric, (0.0, 0.0), (0.0, 6.0 * math.pi), 6.0
    else:
        m, p1, p2, r_hi = HalfplaneMetric.from_warping(constant_h(1.0)), (0.5, 0.0), (2.0, 3.0), 3.0
    res = dijkstra_distance_oracle(m, p1, p2, r_hi=r_hi, nr=60)
    assert (repr(res.raw), repr(res.refined), repr(res.relaxed)) == GOLDEN[case]


def _per_edge_reference(h_value, p1, p2, r_lo, r_hi, v_lo, v_hi, nr, nv):
    """The grid graph with h read at every edge's own midpoint radius."""
    rs = np.linspace(r_lo, r_hi, nr)
    vs = np.linspace(v_lo, v_hi, nv)
    IR, IV = np.meshgrid(np.arange(nr), np.arange(nv), indexing="ij")
    rows, cols, data = [], [], []
    for dir_, div_ in ((1, 0), (0, 1), (1, 1), (1, -1)):
        a_ir = IR[: nr - dir_, max(0, -div_) : nv - max(0, div_)]
        a_iv = IV[: nr - dir_, max(0, -div_) : nv - max(0, div_)]
        b_ir, b_iv = a_ir + dir_, a_iv + div_
        hm = h_value(0.5 * (rs[a_ir] + rs[b_ir]))
        w = np.sqrt((rs[b_ir] - rs[a_ir]) ** 2 + (hm * (vs[b_iv] - vs[a_iv])) ** 2)
        rows.append((a_ir * nv + a_iv).ravel())
        cols.append((b_ir * nv + b_iv).ravel())
        data.append(w.ravel())
    n = nr * nv
    graph = coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    dr, dv = rs[1] - rs[0], vs[1] - vs[0]
    src, dst = (
        min(max(round((p[0] - r_lo) / dr), 0), nr - 1) * nv
        + min(max(round((p[1] - v_lo) / dv), 0), nv - 1)
        for p in (p1, p2)
    )
    return float(dijkstra(graph, directed=False, indices=src)[dst])


@pytest.mark.parametrize("nr, nv", [(60, 75), (119, 149)])
def test_grid_reads_h_once_per_row_and_gap(nr, nv, pure_half_metric):
    radii, calls = [], []

    def value(r):
        calls.append(r)
        return pure_half_metric.value(r)

    hv = np.vectorize(value)

    def counting(rs):
        radii.append(np.size(rs))
        return hv(rs)

    args = ((0.0, 0.0), (0.0, 6.0 * math.pi), 0.0, 6.0, 0.0, 6.0 * math.pi, nr, nv)
    d, _ = _grid_distance(counting, *args, edge_budget=10**8)
    assert sum(radii) <= 2 * nr - 1
    assert len(calls) <= 2 * nr - 1 + len(radii)  # np.vectorize probes one element per call
    assert d == _per_edge_reference(hv, *args)


def test_endpoint_outside_grid_radii_is_refused():
    # the grid used to clamp (5, .) to its edge r = 3 and measure another pair
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with pytest.raises(ValueError, match=r"\(5\.0, 0\.0\).*\[0\.0, 3\.0\]"):
        dijkstra_distance_oracle(m, (5.0, 0.0), (5.0, 3.0), r_hi=3.0, nr=40)


def test_axis_row_with_a_nonzero_slope_is_refused():
    # exp(-r) has h'(0) = -1, which no exponent frame carries: a grid row on
    # the axis is refused, and a grid starting off it measures the pair
    m = HalfplaneMetric.from_warping(exp_decay_h())
    exact = math.acosh(1.0 + 1.0 / (2.0 * math.e))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"r = 0\.0"):
            dijkstra_distance_oracle(m, (0.5, 0.0), (0.5, 1.0), r_hi=2.0, nr=40)
        res = dijkstra_distance_oracle(m, (0.5, 0.0), (0.5, 1.0), r_hi=2.0, nr=40, r_lo=1e-3)
    assert res.relaxed == pytest.approx(exact, rel=0.02)


def test_grushin_general_pair_golden_bits():
    # domain start above the axis, h read through the closed-form Grushin frame
    d, info = grushin_distance(GrushinMetric(0.6), (1.0, 0.0), (2.0, 1.0), oracle_budget=20_000_000)
    res = info["result"]
    got = tuple(repr(v) for v in (d, res.raw, res.refined, res.relaxed, info["floor_sensitivity"]))
    assert got == ("1.1564318116429617", "1.3517432746801021", "1.3449044524549536",
                   "1.1564318116429617", "0.008889987921255393")


def _no_scalar_read(r):
    raise AssertionError("scalar read of h")


def _array_frames_only(frame):
    def array_frame(rs):
        assert isinstance(rs, np.ndarray), "scalar frame read"
        return frame(rs)
    return array_frame


def test_relaxation_reads_h_as_arrays():
    """No scalar read of h: one array read per energy evaluation (all three Gauss
    nodes of every segment; the gradient of an accepted step reuses it) and
    one per descent iteration (the nodes), each h and h' within 1e-13 of
    mpmath."""
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    path = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (1.0, 5.0), (0.0, 6.0)])
    reads, energies = [], 0
    real_energy, real_frame = gridpath._energy, _array_frames_only(m.frame)

    def h_read(rs):
        fr = real_frame(rs)
        h = np.exp(fr.log_h)
        reads.append((rs.copy(), h, gridpath._slope(rs, fr.p, h)))
        return fr

    def energy(*args):
        nonlocal energies
        energies += 1
        return real_energy(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "log_h", _no_scalar_read)
        mp.setattr(m, "frame", h_read)
        mp.setattr(gridpath, "_energy", energy)
        iters = 6
        mp.setattr(gridpath, "_RELAX_SWEEPS", iters)
        out, _ = gridpath._relax_path(m, path, n_nodes=50)
    n = len(out)
    sizes = [rs.shape for rs, _, _ in reads]
    node_reads = sizes.count((n,))
    assert 1 <= node_reads <= iters
    assert sizes.count((3 * (n - 1),)) == energies > node_reads
    assert len(sizes) == energies + node_reads
    for rs, h, hp in reads:
        for r, a, b in zip(rs.tolist(), h.tolist(), hp.tolist()):
            u = 1 + mpmath.mpf(r) ** 2
            assert a == pytest.approx(float(u ** -0.5), rel=1e-13, abs=0.0)
            assert b == pytest.approx(float(-r * u ** -1.5), rel=1e-13, abs=1e-300)


def test_relaxation_stops_once_the_energy_stalls(pure_half_metric):
    # running on to the last decrease takes 114 energy evaluations on this
    # path: 13 steps that each gain less than 1e-12 of the energy, then a
    # 25-try line search that finds no decrease; starting every line search
    # at the Newton step took 64
    calls = 0
    real_energy = gridpath._energy

    def energy(*args):
        nonlocal calls
        calls += 1
        return real_energy(*args)

    l = 24
    _, sol = orbit_distance(pure_half_metric, l)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridpath, "_energy", energy)
        res = dijkstra_distance_oracle(pure_half_metric, (0.0, 0.0), (0.0, 2.0 * math.pi * l),
                                       r_hi=2.2 * sol.r_max, nr=160)
    assert calls <= 55
    assert res.relaxed == pytest.approx(30.620575515971915, rel=1e-10)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def test_oracle_makes_no_scalar_jet_call(pure_half_metric):
    # the grid reads frames at arrays of radii; only the grid's aspect reads
    # h at one radius
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "frame", _array_frames_only(m.frame))
        res = dijkstra_distance_oracle(m, (0.0, 0.0), (0.0, 6.0 * math.pi), r_hi=6.0, nr=60)
    assert (repr(res.raw), repr(res.refined), repr(res.relaxed)) == GOLDEN["pure"]


def _coo_graph(h_value, rs, vs):
    """The grid graph assembled as COO blocks, one block per edge direction,
    and converted to CSR by scipy: the reference for the grid's weights and
    for its solve."""
    nr, nv = len(rs), len(vs)
    IR, IV = np.meshgrid(np.arange(nr), np.arange(nv), indexing="ij")
    h_at = (h_value(rs), h_value(0.5 * (rs[:-1] + rs[1:])))
    rows, cols, data = [], [], []
    for dir_, div_ in ((1, 0), (0, 1), (1, 1), (1, -1)):
        a_ir = IR[: nr - dir_, max(0, -div_) : nv - max(0, div_)]
        a_iv = IV[: nr - dir_, max(0, -div_) : nv - max(0, div_)]
        b_ir, b_iv = a_ir + dir_, a_iv + div_
        hm = h_at[dir_][a_ir]
        w = np.sqrt((rs[b_ir] - rs[a_ir]) ** 2 + (hm * (vs[b_iv] - vs[a_iv])) ** 2)
        rows.append((a_ir * nv + a_iv).ravel())
        cols.append((b_ir * nv + b_iv).ravel())
        data.append(w.ravel())
    n = nr * nv
    return coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


GRIDS = [
    (60, 60, 0.0), (119, 119, 0.0), (60, 113, 0.0), (119, 300, 0.0), (60, 75, 0.5),
    (2, 40, 0.0), (40, 2, 0.0), (2, 2, 0.5), (3, 3, 0.0),
]


def _pure_grid(metric, nr, nv, r_lo):
    def hv(rs):
        return gridpath._h(metric, rs)

    return hv, np.linspace(r_lo, 6.0, nr), np.linspace(0.0, 6.0 * math.pi, nv)


@pytest.mark.parametrize("nr, nv, r_lo", GRIDS)
def test_grid_graph_matches_coo_assembly(nr, nv, r_lo, pure_half_metric):
    """The three weight arrays hold the COO graph's weights bit for bit; both
    diagonals of a cell read diag."""
    hv, rs, vs = _pure_grid(pure_half_metric, nr, nv, r_lo)
    right, down, diag = gridpath._grid_weights(hv, rs, vs)
    assert (right.shape, down.shape, diag.shape) == ((nr, nv - 1), (nr - 1,), (nr - 1, nv - 1))
    want = _coo_graph(hv, rs, vs)
    node = np.arange(nr * nv).reshape(nr, nv)
    for a, b, got in (
        (node[:, :-1], node[:, 1:], right),
        (node[:-1], node[1:], np.broadcast_to(down[:, None], (nr - 1, nv))),
        (node[:-1, :-1], node[1:, 1:], diag),
        (node[:-1, 1:], node[1:, :-1], diag),
    ):
        assert _bits(np.asarray(want[a.ravel(), b.ravel()]).ravel()) == _bits(got.ravel())
    assert want.nnz == right.size + (nr - 1) * nv + 2 * diag.size


def _scipy_path(pred, src, dst):
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def _check_against_scipy(hv, rs, vs, ends):
    """_grid_distance from each (src, dst) node pair against scipy's Dijkstra
    on the COO graph: every node's distance within 1e-13, and the path's
    distance with scipy's bits wherever the two paths are the same."""
    nr, nv = len(rs), len(vs)
    graph = _coo_graph(hv, rs, vs)
    right, down, diag = gridpath._grid_weights(hv, rs, vs)
    same_paths = 0
    for src, dst in ends:
        want, pred = dijkstra(graph, directed=False, indices=src[0] * nv + src[1],
                              return_predecessors=True)
        dist, _ = gridpath._row_sweep(right, down, diag, src)
        assert np.all(np.abs(dist.ravel() - want) <= 1e-13 * want)
        p1, p2 = ((rs[i], vs[j]) for i, j in (src, dst))
        d, pts = _grid_distance(hv, p1, p2, rs[0], rs[-1], vs[0], vs[-1], nr, nv, 10**8)
        assert abs(d - want[dst[0] * nv + dst[1]]) <= 1e-13 * d
        ks = _scipy_path(pred, src[0] * nv + src[1], dst[0] * nv + dst[1])
        if np.array_equal(pts, np.column_stack((rs[[k // nv for k in ks]], vs[[k % nv for k in ks]]))):
            same_paths += 1
            assert _bits(d) == _bits(want[dst[0] * nv + dst[1]])
    return same_paths


@pytest.mark.parametrize("nr, nv, r_lo", GRIDS)
def test_row_sweep_matches_scipy_dijkstra(nr, nv, r_lo, pure_half_metric):
    hv, rs, vs = _pure_grid(pure_half_metric, nr, nv, r_lo)
    corners = [(0, 0), (0, nv - 1), (nr - 1, 0), (nr - 1, nv - 1), (nr // 2, nv // 2)]
    ends = [(a, b) for a in corners for b in corners]
    assert _check_against_scipy(hv, rs, vs, ends) >= len(corners) ** 2 // 2


def test_row_sweep_follows_a_channel_below_the_source():
    """A cheap row below the source row is only reached going down and left
    going up: the first pair of passes leaves nodes that would fall, and the
    solve still ends on scipy's distances."""
    rs, vs = np.linspace(0.0, 1.1, 12), np.linspace(0.0, 10.0, 80)

    def hv(r):
        return np.where(r == rs[1], 0.01, 1.0)

    pairs = 0
    real = gridpath._best_neighbours

    def counting(*args):
        nonlocal pairs
        pairs += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridpath, "_best_neighbours", counting)
        _check_against_scipy(hv, rs, vs, [((8, 0), (8, 79))])
        assert pairs >= 2 * 2  # _check_against_scipy solves twice
        pairs = 0
        d, pts = _grid_distance(hv, (rs[8], 0.0), (rs[8], 10.0), 0.0, 1.1, 0.0, 10.0, 12, 80, 10**8)
    assert pairs >= 2
    assert d < 2.0 and pts[:, 0].min() == rs[1]  # along the channel, not the 10.0 of its own row


def _whole_grid_best_neighbours(dist, right, down, diag):
    # the reference: every neighbour's candidates over the whole grid at once
    nr, nv = dist.shape
    best = np.full((nr, nv), np.inf)
    pick = np.zeros((nr, nv), dtype=np.int8)
    for k, (di, dj) in enumerate(gridpath._STEPS):
        to = np.s_[max(0, -di):nr - max(0, di), max(0, -dj):nv - max(0, dj)]
        frm = np.s_[max(0, di):nr - max(0, -di), max(0, dj):nv - max(0, -dj)]
        w = right if di == 0 else down[:, None] if dj == 0 else diag
        cand = dist[frm] + w
        lower = cand < best[to]
        np.copyto(best[to], cand, where=lower)
        np.copyto(pick[to], k, where=lower)
    return best, pick, bool(np.any(best < dist * (1.0 - 1e-12)))


@pytest.mark.parametrize("nr", [1, 2, 31, 32, 33, 63, 64, 65, 130, 319])
def test_best_neighbours_by_row_blocks_keep_the_bits(nr):
    # row blocks of _BLOCK_ROWS give the whole grid's bits, first-attaining
    # picks (weights and distances on a half-integer lattice tie often) and
    # fall test, unreached (inf) nodes included, down to a fixed point; the
    # leasts come back only from a pass where some node falls
    rng = np.random.default_rng(nr)
    nv = 7
    dist = rng.integers(0, 9, (nr, nv)) * 0.5
    dist[rng.uniform(size=(nr, nv)) < 0.2] = np.inf
    right = rng.choice([0.5, 1.0, 1.5], (nr, nv - 1))
    down, diag = rng.choice([0.5, 1.0], nr - 1), rng.choice([1.0, 1.5], (nr - 1, nv - 1))
    seen = set()
    for _ in range(400):
        best, pick, falls = gridpath._best_neighbours(dist, right, down, diag)
        want = _whole_grid_best_neighbours(dist, right, down, diag)
        assert pick.tolist() == want[1].tolist() and falls == want[2]
        assert (best is None) if not falls else _bits(best) == _bits(want[0])
        seen.add(falls)
        if not falls:
            break
        dist = np.minimum(dist, best)
    assert seen == {True, False}


def test_laplacian_solve_matches_solveh_banded():
    b = np.random.default_rng(7).standard_normal(638)
    for n in (3, 50, 638):
        ab = np.zeros((2, n))
        ab[0, 1:], ab[1] = -1.0, 2.0
        want = solveh_banded(ab, b[:n])
        got = gridpath._laplacian_solve(b[:n])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# sha256 of _row_sweep's dist and pick bytes, coarse grid then fine grid,
# recorded before the row sweeps ran through row buffers
SWEEP_SHA256 = {
    "pure": [("18503d9aa016491d9859ae3d1c7161d170621abddcf081a4becfdb49ca3e0212",
              "d82de63fe759968ea1ace9e68a2999a4a8892cede7e89be72425298449ebf750"),
             ("6360d6f282d13e707acbe044bb2e7f7e77ae02a9b856868eff95d6eadc08d61a",
              "72620d5ca4ed6d860467868abc9fa39baaede0b0f555051aa15460404245bdd0")],
    "flat": [("2b7a1153dd768be5ca8e4a4d043230723aee0cb71959db046aabf7cb33017f13",
              "57716b0ad73291dda4ccaa7d2d3e7b7a60e7cf0679cef4de4d2843151a748c7f"),
             ("fc5eb5de5a2488ef569c2862d6eaf602620ac258350f4611acac9409efbe31af",
              "77445a5717e84aaa396541ac64926923c42a65cc4b0814f0a941cf7815510533")],
    "channel": [("a6bc4885f211445d6cd4e59e59f47dee1d5f305e64f71dc12ee62ca22d33a169",
                 "139898fb0f92529b14890115eb554fe908a1ba2e1aad0d7883ba56211dad9ecf")],
}


@pytest.mark.parametrize("case", list(SWEEP_SHA256))
def test_row_sweep_bytes(case, pure_half_metric):
    # the golden pure and flat oracles (both resolutions) and the channel grid
    sweeps = []
    real = gridpath._row_sweep

    def recording(*args):
        dist, pick = real(*args)
        sweeps.append(tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (dist, pick)))
        return dist, pick

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridpath, "_row_sweep", recording)
        if case == "pure":
            dijkstra_distance_oracle(pure_half_metric, (0.0, 0.0), (0.0, 6.0 * math.pi), r_hi=6.0, nr=60)
        elif case == "flat":
            flat = HalfplaneMetric.from_warping(constant_h(1.0))
            dijkstra_distance_oracle(flat, (0.5, 0.0), (2.0, 3.0), r_hi=3.0, nr=60)
        else:
            rs = np.linspace(0.0, 1.1, 12)
            _grid_distance(lambda r: np.where(r == rs[1], 0.01, 1.0), (rs[8], 0.0), (rs[8], 10.0),
                           0.0, 1.1, 0.0, 10.0, 12, 80, 10**8)
    assert sweeps == SWEEP_SHA256[case]


def test_oracle_peak_memory(pure_half_metric):
    # 3.53 fine-grid arrays (319 x 319 doubles) at l = 24, nr = 160: the
    # right and diag weights, dist, and _best_neighbours' pick and block
    # buffers on the pass that ends the solve; a grid-sized array of leasts
    # on that pass (4.60) would push it past the bound
    l = 24
    _, sol = orbit_distance(pure_half_metric, l)
    tracemalloc.start()
    try:
        dijkstra_distance_oracle(pure_half_metric, (0.0, 0.0), (0.0, 2.0 * math.pi * l),
                                 r_hi=2.2 * sol.r_max, nr=160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.95 * 319 * 319 * 8
