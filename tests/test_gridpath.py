import math

import mpmath
import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from warplab import gridpath
from warplab.gridpath import ResourceLimit, _grid_distance, dijkstra_distance_oracle
from warplab.grushin import GrushinMetric, grushin_distance
from warplab.halfplane import HalfplaneMetric, orbit_distance
from warplab.warping import constant_h, power_decay_h


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


# reprs recorded with the per-edge-midpoint graph, before h was read per grid
# row; the pure relaxed value since h is read through its exponent frame and
# the descent stops once the energy stalls
GOLDEN = {
    "pure": ("10.927779159629297", "10.927935802943475", "10.419659568304446"),
    "flat": ("3.621320343559639", "3.6318511968403104", "3.3541019662496834"),
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


def test_grushin_general_pair_golden_bits():
    # domain start above the axis, h read through the closed-form Grushin frame
    d, info = grushin_distance(GrushinMetric(0.6), (1.0, 0.0), (2.0, 1.0), oracle_budget=20_000_000)
    res = info["result"]
    got = tuple(repr(v) for v in (d, res.raw, res.refined, res.relaxed, info["floor_sensitivity"]))
    assert got == ("1.1564318116429617", "1.3517432746801021", "1.3449044524549536",
                   "1.1564318116429617", "0.008889987921255393")


def test_relaxation_reads_h_as_arrays():
    """No scalar m.jet: one array read per energy evaluation (all three Gauss
    nodes of every segment) and one per descent iteration (the nodes), each
    h and h' within 1e-13 of mpmath."""
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    path = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (1.0, 5.0), (0.0, 6.0)])
    reads, energies = [], 0
    real_energy, real_read = gridpath._energy_and_grad, gridpath._h_and_slope

    def h_read(metric, rs):
        out = real_read(metric, rs)
        reads.append((rs.copy(), *out))
        return out

    def energy(*args):
        nonlocal energies
        energies += 1
        return real_energy(*args)

    def no_scalar_jet(r):
        raise AssertionError("scalar m.jet call")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "jet", no_scalar_jet)
        mp.setattr(gridpath, "_energy_and_grad", energy)
        mp.setattr(gridpath, "_h_and_slope", h_read)
        iters = 6
        out = gridpath._relax_path(m, path, iters=iters, n_nodes=50)
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
    # 25-try line search that finds no decrease
    calls = 0
    real_energy = gridpath._energy_and_grad

    def energy(*args):
        nonlocal calls
        calls += 1
        return real_energy(*args)

    l = 24
    _, sol = orbit_distance(pure_half_metric, l)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridpath, "_energy_and_grad", energy)
        res = dijkstra_distance_oracle(pure_half_metric, (0.0, 0.0), (0.0, 2.0 * math.pi * l),
                                       r_hi=2.2 * sol.r_max, nr=160)
    assert calls <= 64
    assert res.relaxed == pytest.approx(30.620575515971915, rel=1e-10)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def test_oracle_makes_no_scalar_jet_call(pure_half_metric):
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "jet", lambda r: pytest.fail("scalar m.jet call"))
        res = dijkstra_distance_oracle(m, (0.0, 0.0), (0.0, 6.0 * math.pi), r_hi=6.0, nr=60)
    assert (repr(res.raw), repr(res.refined), repr(res.relaxed)) == GOLDEN["pure"]


def _coo_graph(h_value, rs, vs):
    """The grid graph assembled as COO blocks, one block per edge direction,
    and converted to CSR by scipy: the reference for `_grid_graph`."""
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


@pytest.mark.parametrize("nr, nv, r_lo", [
    (60, 60, 0.0), (119, 119, 0.0), (60, 113, 0.0), (119, 300, 0.0), (60, 75, 0.5),
    (2, 40, 0.0), (40, 2, 0.0), (2, 2, 0.5), (3, 3, 0.0),
])
def test_grid_graph_matches_coo_assembly(nr, nv, r_lo, pure_half_metric):
    def hv(rs):
        return gridpath._h_and_slope(pure_half_metric, rs)[0]

    rs = np.linspace(r_lo, 6.0, nr)
    vs = np.linspace(0.0, 6.0 * math.pi, nv)
    got, want = gridpath._grid_graph(hv, rs, vs), _coo_graph(hv, rs, vs)
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert _bits(got.data) == _bits(want.data)
    for src in (0, nv - 1, nr * nv // 2):
        d_got, p_got = dijkstra(got, directed=False, indices=src, return_predecessors=True)
        d_want, p_want = dijkstra(want, directed=False, indices=src, return_predecessors=True)
        assert _bits(d_got) == _bits(d_want)
        assert p_got.tolist() == p_want.tolist()
