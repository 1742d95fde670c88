import numpy as np
import pytest

from kernelcontrast.manifold import (
    DegenerateGeometryError,
    DisconnectedGraphError,
    NeighborGraph,
    build_graph,
    graph_laplacian,
    isomap,
    laplacian_eigenmaps,
    latent_arc_length,
    lle_embed,
    lle_weights,
    pairwise_distances,
    shortest_paths,
    swiss_roll,
)
from kernelcontrast.rng import Stream

# A small planted geometry used by several graph tests: four points on a
# line at 0, 1, 2, and 10. With eps = 1.5 the first three chain up and the
# last is isolated.
LINE4 = np.array([[0.0], [1.0], [2.0], [10.0]])


# -------------------------------------------------------------- graph rules


def test_pairwise_distances_basics():
    d = pairwise_distances(LINE4)
    assert d[0, 1] == 1.0 and d[0, 3] == 10.0
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), np.zeros(4))


def test_eps_graph_edges():
    g = build_graph(LINE4, eps=1.5)
    assert g.adjacency.dtype == bool
    assert list(zip(*np.nonzero(np.triu(g.adjacency)))) == [(0, 1), (1, 2)]
    np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
    assert g.weights[0, 1] == 1.0
    assert g.components == [[0, 1, 2], [3]]


def test_eps_boundary_is_inclusive():
    g = build_graph(np.array([[0.0], [2.0]]), eps=2.0)
    assert g.adjacency[0, 1] and g.adjacency[1, 0]
    assert not g.adjacency.diagonal().any()


def test_knn_graph_is_symmetrized_by_union():
    # point 3 is far away; its nearest neighbor is 2, but nobody picks 3.
    # Edge union still joins (2, 3).
    g = build_graph(LINE4, knn=1)
    assert g.adjacency[2, 3] and g.adjacency[3, 2]
    assert g.weights[2, 3] == g.weights[3, 2] == 8.0
    assert len(g.components) == 1


def test_knn_tie_breaks_toward_lower_index():
    # point 0 has neighbors 1 and 2 at identical distance; 1 and 2 each
    # have a closer partner (3 and 4), so only 0's own pick joins them
    pts = np.array([[0.0], [1.0], [-1.0], [1.1], [-1.1]])
    g = build_graph(pts, knn=1)
    # 0 picks 1 (equal distance, lower index), not 2
    assert g.adjacency[0, 1]
    assert not g.adjacency[0, 2]


def test_gaussian_weights():
    g = build_graph(LINE4, eps=1.5, weight="gaussian", t=2.0)
    assert g.weights[0, 1] == pytest.approx(np.exp(-0.5))
    assert g.weights[1, 0] == g.weights[0, 1]


def test_build_graph_validation():
    with pytest.raises(ValueError, match="exactly one"):
        build_graph(LINE4)
    with pytest.raises(ValueError, match="exactly one"):
        build_graph(LINE4, eps=1.0, knn=2)
    with pytest.raises(ValueError):
        build_graph(LINE4, eps=-1.0)
    with pytest.raises(ValueError):
        build_graph(LINE4, knn=4)
    with pytest.raises(ValueError, match="bandwidth"):
        build_graph(LINE4, eps=1.0, weight="gaussian")


def test_weight_matrix_matches_edges():
    g = build_graph(LINE4, eps=1.5)
    assert g.weights[0, 1] == g.weights[1, 0] == 1.0
    assert g.weights[0, 2] == 0.0 and not g.adjacency[0, 2]
    np.testing.assert_array_equal(g.weights != 0.0, g.adjacency)


# ------------------------------------------------------------ shortest paths


def test_geodesics_hand_oracle():
    """Five vertices, worked out on paper.

    Graph: 0-1 (1), 1-2 (1), 0-2 (3), 2-3 (2), 3-4 (1).
    The 0 to 2 geodesic goes through 1 (length 2), not the direct edge (3).
    """
    weights = np.zeros((5, 5))
    for i, j, w in [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0), (2, 3, 2.0), (3, 4, 1.0)]:
        weights[i, j] = weights[j, i] = w
    g = NeighborGraph(
        adjacency=weights > 0.0, weights=weights, components=[[0, 1, 2, 3, 4]]
    )
    geo = shortest_paths(g)
    expected = np.array(
        [
            [0.0, 1.0, 2.0, 4.0, 5.0],
            [1.0, 0.0, 1.0, 3.0, 4.0],
            [2.0, 1.0, 0.0, 2.0, 3.0],
            [4.0, 3.0, 2.0, 0.0, 1.0],
            [5.0, 4.0, 3.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(geo, expected)


def test_shortest_paths_unreachable_is_inf():
    g = build_graph(LINE4, eps=1.5)
    geo = shortest_paths(g)
    assert np.isinf(geo[0, 3])
    assert geo[0, 2] == 2.0  # through the chain, not the direct 2.0... equal here
    assert geo[3, 3] == 0.0


def test_chain_geodesic_accumulates_edges():
    pts = np.array([[0.0], [1.0], [2.0], [3.5]])
    g = build_graph(pts, eps=1.6)
    geo = shortest_paths(g)
    assert geo[0, 3] == pytest.approx(3.5)


# ---------------------------------------------------------------- laplacian


def test_laplacian_rows_sum_to_zero():
    g = build_graph(Stream(0).uniform(20, -1, 1).reshape(10, 2), knn=3)
    gl = graph_laplacian(g)
    np.testing.assert_allclose(gl.lap.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_array_equal(np.diag(gl.lap), gl.degrees)


def test_laplacian_quadratic_form_identity():
    """x' L x = sum over edges of w_ij (x_i - x_j)^2."""
    g = build_graph(Stream(2).uniform(16, -1, 1).reshape(8, 2), knn=2)
    gl = graph_laplacian(g)
    x = Stream(3).normal(8)
    i, j = np.nonzero(np.triu(g.adjacency))
    direct = float(np.sum(g.weights[i, j] * (x[i] - x[j]) ** 2))
    assert x @ gl.lap @ x == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------------------- isomap


def test_isomap_unrolls_half_circle():
    """Arc-length recovery on a curve where we know the answer exactly.

    200 points on a unit half circle: the geodesic between angles a and b
    is |a - b|, so the 1-D embedding must reproduce angle differences.
    """
    theta = np.linspace(0.0, np.pi, 200)
    pts = np.column_stack((np.cos(theta), np.sin(theta)))
    emb = isomap(pts, 1, eps=0.15)[:, 0]
    gaps = np.abs(emb[:, None] - emb[None, :])
    true = np.abs(theta[:, None] - theta[None, :])
    rel = np.abs(gaps - true)[true > 0.1] / true[true > 0.1]
    assert rel.max() < 0.05


def test_isomap_raises_on_disconnection():
    with pytest.raises(DisconnectedGraphError) as exc:
        isomap(LINE4, 1, eps=1.5)
    assert exc.value.components == [[0, 1, 2], [3]]
    assert "connected components" in str(exc.value)


# ---------------------------------------------------------------------- LLE


def test_lle_weights_rows_sum_to_one():
    x = Stream(5).uniform(60, -2, 2).reshape(20, 3)
    w = lle_weights(x, k=5)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    # no self-loops
    np.testing.assert_array_equal(np.diag(w), np.zeros(20))


def test_lle_weights_exact_barycentric_case():
    """A point at the midpoint of two neighbors gets weights (1/2, 1/2).

    The reconstruction is exact, so the residual term vanishes and the
    affine constraint pins the split.
    """
    x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    w = lle_weights(x, k=2)
    assert w[0, 1] == pytest.approx(0.5, abs=1e-9)
    assert w[0, 2] == pytest.approx(0.5, abs=1e-9)


def test_lle_weights_reconstruct_interior_points():
    # on a flat 2-D sheet in 3-D, K=4 neighbors reconstruct interior
    # points essentially exactly
    u = Stream(8).uniform(50, -1, 1)
    v = Stream(9).uniform(50, -1, 1)
    sheet = np.column_stack((u, v, 0.3 * u + 0.1 * v))
    w = lle_weights(sheet, k=4)
    recon = w @ sheet
    err = np.linalg.norm(recon - sheet, axis=1)
    assert np.median(err) < 1e-8


def test_lle_embed_nullspace_and_scaling():
    x = Stream(10).normal(240).reshape(80, 3)
    x[:, 2] *= 0.01
    w = lle_weights(x, k=6)
    emb = lle_embed(w, 2)
    n = x.shape[0]
    # (1/N) V'V = I by the spectral normalization
    np.testing.assert_allclose(emb.T @ emb / n, np.eye(2), atol=1e-8)
    # embedding coordinates are orthogonal to the all-ones null vector
    np.testing.assert_allclose(emb.sum(axis=0), 0.0, atol=1e-6)


def test_lle_embed_collinear_is_monotone():
    """d=1 on collinear points orders them by arc length.

    Two collinear neighbors reconstruct each point exactly, so the
    coordinate joins the ones vector in the null space of M; the
    embedding must keep it (only the ones direction is dropped). The
    oracle is the exact 1-D ordering of the construction.
    """
    gaps = np.array([0.7, 0.4, 0.9, 0.5, 1.0, 0.6, 0.8])
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    direction = np.array([np.cos(0.6), np.sin(0.6)])
    line = np.array([1.5, -0.3]) + t[:, None] * direction
    w = lle_weights(line, k=2)
    emb = lle_embed(w, 1)[:, 0]
    diffs = np.diff(emb)
    assert np.all(diffs > 0.0) or np.all(diffs < 0.0)


def test_lle_embed_flat_sheet_recovers_chart():
    # exact reconstruction puts both sheet coordinates in the null
    # space of M; the embedding returns that plane (up to rotation),
    # so regressing the latent coordinates on it leaves no residual
    u = Stream(8).uniform(200, -1.0, 1.0)
    v = Stream(9).uniform(200, -1.0, 1.0)
    sheet = np.column_stack((u, v, 0.4 * u - 0.2 * v))
    emb = lle_embed(lle_weights(sheet, k=6), 2)
    coords = np.column_stack((u - u.mean(), v - v.mean()))
    q, _ = np.linalg.qr(emb)
    resid = coords - q @ (q.T @ coords)
    assert np.abs(resid).max() < 1e-6


def test_lle_m_annihilates_constants():
    x = Stream(11).uniform(40, -1, 1).reshape(20, 2)
    w = lle_weights(x, k=4)
    iw = np.eye(20) - w
    m = iw.T @ iw
    assert np.abs(m @ np.ones(20)).max() < 1e-10


def test_lle_embed_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        lle_embed(np.zeros((3, 3)), 1)
    w = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        lle_embed(w, 3)


def test_lle_weights_validation():
    with pytest.raises(ValueError):
        lle_weights(np.zeros((4, 2)), k=4)


# --------------------------------------------------------------------- LE


def test_laplacian_eigenmaps_constraints():
    """V'DV = I and V'D1 = 0, the two constraints that define the method."""
    pts = np.linspace(0.0, 11.0, 12).reshape(12, 1)
    emb = laplacian_eigenmaps(pts, 2, t=1.0, eps=1.5)
    g = build_graph(pts, eps=1.5, weight="gaussian", t=1.0)
    deg = graph_laplacian(g).degrees
    np.testing.assert_allclose(emb.T @ (deg[:, None] * emb), np.eye(2), atol=1e-8)
    np.testing.assert_allclose(emb.T @ deg, 0.0, atol=1e-8)


def test_laplacian_eigenmaps_orders_a_path():
    """On a path graph the first nontrivial coordinate is monotone along it."""
    pts = np.linspace(0.0, 11.0, 12).reshape(12, 1)
    emb = laplacian_eigenmaps(pts, 1, t=1.0, eps=1.5)[:, 0]
    diffs = np.diff(emb)
    assert np.all(diffs > 0.0) or np.all(diffs < 0.0)


def test_laplacian_eigenmaps_raises_on_disconnection():
    with pytest.raises(DisconnectedGraphError):
        laplacian_eigenmaps(LINE4, 1, t=1.0, eps=1.5)


def test_degenerate_geometry_error():
    # three collinear points reconstruct each other exactly, so (I-W)
    # annihilates both the ones vector and the coordinate itself; the
    # spectrum collapses to two distinct levels, one short of the
    # three that two embedding coordinates require
    w = lle_weights(np.array([[0.0], [1.0], [2.0]]), k=2)
    with pytest.raises(DegenerateGeometryError, match="cannot produce 2"):
        lle_embed(w, 2)


# --------------------------------------------------------------- swiss roll


def test_swiss_roll_determinism_and_shape():
    d1, l1 = swiss_roll(50, noise=0.1, seed=4)
    d2, l2 = swiss_roll(50, noise=0.1, seed=4)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(l1, l2)
    assert d1.shape == (50, 3) and l1.shape == (50, 2)


def test_swiss_roll_lies_on_spiral_when_noiseless():
    data, latent = swiss_roll(100, seed=1)
    radius = np.sqrt(data[:, 0] ** 2 + data[:, 2] ** 2)
    # radius equals the spiral parameter t, and height is the second latent
    np.testing.assert_allclose(latent_arc_length(radius), latent[:, 0], atol=1e-9)
    np.testing.assert_array_equal(data[:, 1], latent[:, 1])


def test_latent_arc_length_matches_numeric_integral():
    """The closed form against trapezoid integration of sqrt(1 + t^2)."""
    ts = np.linspace(0.0, 8.0, 5)
    fine = np.linspace(0.0, 8.0, 200_001)
    speed = np.sqrt(1.0 + fine**2)
    cumulative = np.concatenate(
        ([0.0], np.cumsum((speed[1:] + speed[:-1]) / 2.0 * np.diff(fine)))
    )
    for t in ts[1:]:
        idx = int(round(t / 8.0 * 200_000))
        assert latent_arc_length(t) == pytest.approx(cumulative[idx], rel=1e-8)


def test_swiss_roll_validation():
    with pytest.raises(ValueError):
        swiss_roll(0)
    with pytest.raises(ValueError):
        swiss_roll(5, t_range=(3.0, 2.0))
