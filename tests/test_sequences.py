"""Tests for uniformly discrete sequences, greedy decomposition and packing,
sigma-weighted sequence measures, and the sequence-side Carleson pipeline."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleson_lab import bergman, cli, domains, kobayashi, measures, sequences
from carleson_lab.carleson import CarlesonConfig
from carleson_lab.domains import complex_ellipsoid, unit_ball, unit_disk
from carleson_lab.errors import InputError

DISK = unit_disk()
BALL2 = unit_ball(2)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))

# the three-point reference family 0, +1/2, -1/2 on the disk
TRI = sequences.sequence_set(DISK, [0.0, 0.5, -0.5], label="tri")

def _count_in_ball(spec, x, r, gamma):
    """M(x, r, Gamma) from ball_relation: count holds the points not
    certified outside the tanh-radius-r ball around x, uncertain those of
    them not certified inside."""
    x = domains.as_point(spec, x)
    inside, maybe = kobayashi.ball_relation(spec, gamma.points, x[None, :], r)
    return SimpleNamespace(count=int(maybe.sum()), uncertain=int((maybe & ~inside).sum()))


def _assert_colors_are_the_parts(gamma, dec):
    """Point k of Gamma lies in part colors[k], and each part holds its
    points in Gamma's order."""
    assert dec.colors.shape == (gamma.count,)
    assert len(dec.parts) == dec.colors.max() + 1
    for c, part in enumerate(dec.parts):
        np.testing.assert_array_equal(part.points, gamma.points[dec.colors == c])


FAST = CarlesonConfig(
    r=0.3,
    levels=4,
    extra_rays=2,
    interior_points=8,
    berezin_samples=1 << 12,
    mass_samples=1 << 12,
)


# ---------------------------------------------------------------------------
# construction


class TestSequenceSet:
    def test_flat_scalar_list_on_disk(self):
        assert TRI.count == 3
        assert TRI.points.shape == (3, 1)
        assert TRI.label == "tri"

    def test_single_point_higher_dim(self):
        seq = sequences.sequence_set(BALL2, [0.3, 0.4j])
        assert seq.points.shape == (1, 2)

    def test_rejects_exterior_point(self):
        with pytest.raises(InputError, match="not interior"):
            sequences.sequence_set(DISK, [0.2, 1.5])

    def test_rejects_duplicates(self):
        with pytest.raises(InputError, match="distinct"):
            sequences.sequence_set(DISK, [0.2, 0.2])
        # equal up to the sign of a zero, and equal among many distinct rows
        with pytest.raises(InputError, match="distinct"):
            sequences.sequence_set(BALL2, [[0.0, 0.5j], [-0.0, 0.5j]])
        pts = domains.quasi_interior(BALL2, 500, seed=3)
        with pytest.raises(InputError, match="distinct"):
            sequences.sequence_set(BALL2, np.vstack([pts, pts[417]]))

    def test_accepts_points_whose_squared_difference_underflows(self):
        # |0 - 1e-170|^2 is 0 in double precision; the points differ
        assert sequences.sequence_set(DISK, [0.0, 1e-170]).count == 2
        assert sequences.sequence_set(BALL2, [[0.1, 0.0], [0.1, 1e-170j]]).count == 2

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension"):
            sequences.sequence_set(BALL2, np.zeros((2, 3), dtype=complex))


# ---------------------------------------------------------------------------
# separation and ball counting


class TestSeparationAndCounting:
    def test_three_point_separation(self):
        # rho(0, 1/2) = 1/2 beats rho(1/2, -1/2) = 0.8
        assert sequences.separation(DISK, TRI) == pytest.approx(0.5, abs=1e-15)

    def test_singleton_and_empty_are_inf(self):
        one = sequences.sequence_set(DISK, [0.1])
        assert sequences.separation(DISK, one) == math.inf
        empty = sequences.SequenceSet(points=np.zeros((0, 1), dtype=complex))
        assert sequences.separation(DISK, empty) == math.inf

    def test_ellipsoid_separation_is_positive_lower_bound(self):
        seq = sequences.sequence_set(ELL12, [[0.0, 0.0], [0.0, 0.5], [0.3, 0.0]])
        sep = sequences.separation(ELL12, seq)
        assert 0.0 < sep < 1.0

    def test_count_in_ball_center(self):
        got = _count_in_ball(DISK, 0.0, 0.6, TRI)
        assert got.count == 3
        assert got.uncertain == 0

    def test_count_in_ball_offset(self):
        # around 1/2 only 0 is within 0.6; -1/2 sits at rho = 0.8
        got = _count_in_ball(DISK, 0.5, 0.6, TRI)
        assert got.count == 2
        assert got.uncertain == 0

    def test_count_in_ball_empty(self):
        empty = sequences.SequenceSet(points=np.zeros((0, 1), dtype=complex))
        assert _count_in_ball(DISK, 0.0, 0.5, empty).count == 0

    def test_max_count_in_ball(self):
        assert sequences.greedy_decompose(DISK, TRI, 0.6).max_ball_count == 3
        empty = sequences.SequenceSet(points=np.zeros((0, 1), dtype=complex))
        assert sequences.greedy_decompose(DISK, empty, 0.6).max_ball_count == 0

    def test_ellipsoid_count_is_conservative(self):
        # the center of the ball is never certified outside its own ball
        seq = sequences.sequence_set(ELL12, [[0.0, 0.5], [0.0, -0.5]])
        got = _count_in_ball(ELL12, [0.0, 0.5], 0.3, seq)
        assert got.count >= 1
        assert 0 <= got.uncertain <= got.count


# ---------------------------------------------------------------------------
# greedy decomposition


class TestGreedyDecompose:
    def test_three_point_fixture(self):
        dec = sequences.greedy_decompose(DISK, TRI, 0.6)
        parts = dec.parts
        assert len(parts) == 2
        assert np.allclose(parts[0].points, [[0.0]])
        assert np.allclose(parts[1].points, [[0.5], [-0.5]])
        assert sequences.separation(DISK, parts[1]) == pytest.approx(0.8, abs=1e-15)
        assert len(parts) <= dec.max_ball_count

    def test_colors_fixture(self):
        dec = sequences.greedy_decompose(DISK, TRI, 0.6)
        assert dec.colors.tolist() == [0, 1, 1]
        _assert_colors_are_the_parts(TRI, dec)

    @pytest.mark.parametrize("r", [0.3, 0.6])
    def test_colors_are_the_index_order_coloring(self, r):
        # the coloring and the ball count written out from exact rho on the
        # disk, rho(z, w) = |z - w| / |1 - conj(w) z|
        rng = np.random.default_rng(23)
        w = rng.uniform(-0.9, 0.9, size=(120, 2))
        z = w[:, 0] + 1j * w[:, 1]
        z = z[np.abs(z) < 0.95]
        rho = np.abs(z[:, None] - z[None, :]) / np.abs(1.0 - z[:, None] * z[None, :].conj())
        near = rho < r
        colors = np.full(len(z), -1)
        for i in range(len(z)):
            used = set(colors[:i][near[i, :i]].tolist())
            c = 0
            while c in used:
                c += 1
            colors[i] = c
        cloud = sequences.sequence_set(DISK, z)
        dec = sequences.greedy_decompose(DISK, cloud, r)
        assert dec.colors.tolist() == colors.tolist()
        assert dec.max_ball_count == near.sum(axis=0).max() > 1
        _assert_colors_are_the_parts(cloud, dec)

    def test_parts_are_separated_random_cloud(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.7, 0.7, size=(40, 2))
        pts = (w[:, 0] + 1j * w[:, 1]).reshape(-1, 1)
        pts = pts[np.abs(pts[:, 0]) < 0.95]
        cloud = sequences.SequenceSet(points=pts)
        r = 0.4
        dec = sequences.greedy_decompose(DISK, cloud, r)
        assert sum(p.count for p in dec.parts) == cloud.count
        for part in dec.parts:
            assert sequences.separation(DISK, part) >= r - 1e-12
        assert len(dec.parts) <= dec.max_ball_count

    def test_already_separated_is_single_part(self):
        pack = sequences.greedy_packing(DISK, 0.5, level_floor=0.05, seed=3, candidates=512)
        parts = sequences.greedy_decompose(DISK, pack.sequence, 0.3).parts
        assert len(parts) == 1
        assert np.array_equal(parts[0].points, pack.sequence.points)

    def test_ellipsoid_parts_certified_separated(self):
        pts = [[0.0, 0.0], [0.0, 0.3], [0.0, -0.3], [0.25, 0.0], [-0.25, 0.0]]
        cloud = sequences.sequence_set(ELL12, pts)
        parts = sequences.greedy_decompose(ELL12, cloud, 0.35).parts
        for part in parts:
            assert sequences.separation(ELL12, part) >= 0.35 - 1e-12

    def test_validation(self):
        with pytest.raises(InputError):
            sequences.greedy_decompose(DISK, TRI, 0.0)
        with pytest.raises(InputError):
            sequences.greedy_decompose(DISK, TRI, 1.0)
        empty = sequences.SequenceSet(points=np.zeros((0, 1), dtype=complex))
        dec = sequences.greedy_decompose(DISK, empty, 0.5)
        assert dec.parts == [] and dec.colors.shape == (0,) and dec.max_ball_count == 0


# ---------------------------------------------------------------------------
# one relation per sequence


def _count_relations(monkeypatch, gamma):
    """Count the ball_relation calls on Gamma x Gamma from here on."""
    calls = []
    relation = kobayashi.ball_relation

    def counted(spec, pts, centers, r):
        if np.array_equal(pts, gamma.points) and np.array_equal(centers, gamma.points):
            calls.append(r)
        return relation(spec, pts, centers, r)

    monkeypatch.setattr(sequences.kobayashi, "ball_relation", counted)
    return calls


class TestOneRelation:
    @pytest.mark.parametrize("spec", [DISK, ELL12], ids=["disk", "ell12"])
    def test_decompose_reads_one_relation(self, monkeypatch, spec):
        gamma = sequences.sequence_set(
            spec, domains.quasi_interior(spec, 40, seed=5, level_floor=0.05)
        )
        calls = _count_relations(monkeypatch, gamma)
        dec = sequences.greedy_decompose(spec, gamma, 0.6)
        assert calls == [0.6]
        assert 1 < len(dec.parts) <= dec.max_ball_count

    def test_thm42_reads_one_relation(self, monkeypatch, disk_model):
        pack = sequences.greedy_packing(DISK, 0.5, level_floor=0.1, seed=3, candidates=256)
        calls = _count_relations(monkeypatch, pack.sequence)
        rep = sequences.thm42_pipeline(DISK, disk_model, pack.sequence, FAST)
        assert calls == [FAST.r]
        assert rep.part_count == 1

    def test_cli_decompose_reads_one_relation(self, monkeypatch, tmp_path):
        gamma = sequences.boundary_cluster(DISK, np.array([1.0]), levels=4)
        domains.save_spec(DISK, tmp_path / "disk.json")
        sequences.sequence_to_csv(gamma, tmp_path / "gamma.csv")
        calls = _count_relations(monkeypatch, gamma)
        argv = ["decompose", "--domain", str(tmp_path / "disk.json"),
                "--points", str(tmp_path / "gamma.csv"), "--r", "0.3",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert calls == [0.3]
        lines = (tmp_path / "out" / "decompose.csv").read_text().splitlines()[1:]
        colors = [int(line.rsplit(",", 1)[1]) for line in lines]
        assert max(colors) + 1 == 16


# ---------------------------------------------------------------------------
# greedy packing


class TestGreedyPacking:
    def test_postconditions_frozen(self):
        pack = sequences.greedy_packing(DISK, 0.5, level_floor=0.02, seed=0, candidates=2048)
        assert pack.sequence.count == 144
        assert pack.candidates_used == 2048
        assert pack.exhausted
        assert sequences.separation(DISK, pack.sequence) >= 0.5
        assert np.all(domains.contains(DISK, pack.sequence.points))

    def test_deterministic(self):
        a = sequences.greedy_packing(DISK, 0.6, level_floor=0.05, seed=11, candidates=1024)
        b = sequences.greedy_packing(DISK, 0.6, level_floor=0.05, seed=11, candidates=1024)
        assert np.array_equal(a.sequence.points, b.sequence.points)

    def test_count_grows_with_collar_depth(self):
        counts = [
            sequences.greedy_packing(DISK, 0.9, level_floor=lf, seed=1, candidates=4096).sequence.count
            for lf in (0.2, 0.05, 0.01)
        ]
        assert counts == [7, 23, 68]

    def test_near_one_separation_saturates(self):
        pack = sequences.greedy_packing(DISK, 0.999, level_floor=0.5, seed=2, candidates=256)
        assert pack.sequence.count == 1
        assert not pack.exhausted

    def test_ellipsoid_packing_certified(self):
        pack = sequences.greedy_packing(ELL12, 0.4, level_floor=0.1, seed=0, candidates=512)
        assert pack.sequence.count >= 2
        assert sequences.separation(ELL12, pack.sequence) >= 0.4 - 1e-12

    def test_validation(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(InputError):
                sequences.greedy_packing(DISK, bad, level_floor=0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(min_value=0.2, max_value=0.8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_separation_postcondition_property(self, delta, seed):
        pack = sequences.greedy_packing(DISK, delta, level_floor=0.1, seed=seed, candidates=256)
        assert sequences.separation(DISK, pack.sequence) >= delta - 1e-12


# ---------------------------------------------------------------------------
# the (1,2) ellipsoid: packings, separations and counts from the oracle


@pytest.fixture(scope="module")
def ell_packing():
    pack = sequences.greedy_packing(ELL12, 0.5, level_floor=0.02, seed=0, candidates=2048)
    return pack, domains.quasi_interior(ELL12, 2048, seed=0, level_floor=0.02)


class TestEllipsoidExact:
    def test_separation_is_the_exact_pair_minimum(self, ell_packing):
        pack, _ = ell_packing
        pts = pack.sequence.points
        assert pack.sequence.count > 500
        i, j = np.triu_indices(len(pts), 1)
        low, _ = kobayashi.tanh_distance_bracket(ELL12, pts[i], pts[j])
        sep = sequences.separation(ELL12, pack.sequence)
        assert abs(sep - float(low.min())) <= 1e-9
        assert sep >= 0.5 - 1e-12

    def test_packing_is_maximal(self, ell_packing):
        # every rejected candidate may lie within 0.5 of an accepted point
        pack, candidates = ell_packing
        kept = (candidates[:, None, :] == pack.sequence.points[None, :, :]).all(axis=2).any(axis=1)
        assert kept.sum() == pack.sequence.count
        maybe = kobayashi.ball_relation(ELL12, candidates[~kept], pack.sequence.points, 0.5)[1]
        assert maybe.any(axis=1).all()

    def test_max_count_matches_brute_force(self, ell_packing):
        pack, _ = ell_packing
        pts = pack.sequence.points[:300]
        gamma = sequences.SequenceSet(points=pts)
        r = 0.8
        n = len(pts)
        low, high = kobayashi.tanh_distance_bracket(
            ELL12, np.repeat(pts, n, axis=0), np.tile(pts, (n, 1))
        )
        within = ((low < r) | (high < r)).reshape(n, n)  # [point, center]
        counts = within.sum(axis=0)
        assert counts.max() > 1
        assert sequences.greedy_decompose(ELL12, gamma, r).max_ball_count == counts.max()
        got = _count_in_ball(ELL12, pts[7], r, gamma)
        assert got.count == counts[7]

    def test_no_path_bound_in_counts(self, ell_packing):
        pack, _ = ell_packing
        gamma = sequences.SequenceSet(points=pack.sequence.points[:200])
        got = _count_in_ball(ELL12, gamma.points[0], 0.8, gamma)
        assert got.count >= 1 and got.uncertain == 0
        dec = sequences.greedy_decompose(ELL12, gamma, 0.8)
        assert 1 < len(dec.parts) <= dec.max_ball_count
        _assert_colors_are_the_parts(gamma, dec)
        for part in dec.parts:
            assert sequences.separation(ELL12, part) >= 0.8 - 1e-12


# ---------------------------------------------------------------------------
# sequence measures and boundary generators


class TestSequenceMeasure:
    def test_disk_weights(self):
        seq = sequences.sequence_set(DISK, [0.0, 0.5])
        mu = sequences.sequence_measure(DISK, seq)
        assert mu.weights == pytest.approx([1.0, 0.25], rel=1e-12)
        assert mu.label.startswith("seq2[")

    def test_ellipsoid_weight(self):
        seq = sequences.sequence_set(ELL12, [[0.0, 0.9]])
        mu = sequences.sequence_measure(ELL12, seq)
        # sigma = (0.1, sqrt(1 - 0.9^4)), weight = prod sigma^2
        assert mu.weights[0] == pytest.approx(0.01 * (1.0 - 0.9**4), rel=1e-6)

    def test_ellipsoid_packing_weights(self):
        # the packing keeps two candidates within 1e-2 of the slice z2 = 0,
        # where the first frame direction is within about 1e-6 of e_1
        pack = sequences.greedy_packing(ELL12, 0.3, level_floor=0.02, seed=11)
        mu = sequences.sequence_measure(ELL12, pack.sequence)
        assert np.all(np.isfinite(mu.weights)) and np.all(mu.weights > 0)

    def test_weights_positive_and_bounded(self):
        pack = sequences.greedy_packing(DISK, 0.4, level_floor=0.02, seed=5, candidates=1024)
        mu = sequences.sequence_measure(DISK, pack.sequence)
        assert np.all(mu.weights > 0)
        assert np.all(mu.weights <= 1.0)

    def test_dyadic_ray_levels(self):
        ray = sequences.dyadic_ray(DISK, np.array([1.0]), depth=8)
        assert ray.count == 8
        vals = domains.defining_value(DISK, ray.points)
        expected = [-(2.0**-k) for k in range(1, 9)]
        assert np.allclose(vals.real, expected, atol=1e-12)
        assert np.all(domains.contains(DISK, ray.points))

    def test_dyadic_ray_is_uniformly_discrete(self):
        ray = sequences.dyadic_ray(DISK, np.array([1.0]), depth=10)
        assert sequences.separation(DISK, ray) > 0.3

    def test_boundary_cluster_structure(self):
        cl = sequences.boundary_cluster(DISK, np.array([1.0]), levels=4)
        assert cl.count == 2**5 - 2
        assert np.all(domains.contains(DISK, cl.points))
        flat = cl.points[:, 0]
        assert len(np.unique(flat)) == cl.count

    def test_boundary_cluster_grows_from_the_dyadic_ray(self):
        # level k holds 2^k points; its first, at offset 0, is the ray's k-th
        for spec, d in ((DISK, [1.0]), (ELL12, [0.3, 1.0j])):
            ray = sequences.dyadic_ray(spec, np.array(d), depth=5)
            cl = sequences.boundary_cluster(spec, np.array(d), levels=5)
            firsts = cl.points[[2**k - 2 for k in range(1, 6)]]
            np.testing.assert_array_equal(firsts, ray.points)

    def test_boundary_cluster_not_separated(self):
        cl = sequences.boundary_cluster(DISK, np.array([1.0]), levels=5)
        assert 0.0 < sequences.separation(DISK, cl) < 0.01

    def test_cluster_color_count_diverges(self):
        parts4 = sequences.greedy_decompose(
            DISK, sequences.boundary_cluster(DISK, np.array([1.0]), levels=4), 0.3
        ).parts
        parts6 = sequences.greedy_decompose(
            DISK, sequences.boundary_cluster(DISK, np.array([1.0]), levels=6), 0.3
        ).parts
        assert len(parts4) == 16
        assert len(parts6) == 64


# ---------------------------------------------------------------------------
# the sequence-side Carleson pipeline


FROZEN_STATEMENT3 = 1.993132025416299  # lambda(64) of the packing, seed 0


@pytest.fixture(scope="module")
def disk_model():
    return bergman.kernel_model(DISK)


class TestThm42Pipeline:
    def test_packed_sequence_is_bounded(self, disk_model):
        pack = sequences.greedy_packing(DISK, 0.5, level_floor=0.02, seed=0, candidates=2048)
        rep = sequences.thm42_pipeline(DISK, disk_model, pack.sequence, FAST)
        assert rep.carleson.berezin.verdict == "Bounded"
        assert rep.carleson.geometric.verdict == "Bounded"
        assert rep.verdicts_agree
        assert rep.separation >= 0.5
        assert rep.part_count == 1
        assert rep.part_count <= rep.max_ball_count == 1
        # statement (3) recomputed from the raw atoms: the sup of
        # sum_k w_k |f(z_k)|^2 / ||f||^2 over the polynomials of degree <= 64
        # is the top eigenvalue of V^H W V, V[k, j] = z_k^j sqrt(j + 1)
        pts, w = pack.sequence.points[:, 0], rep.measure.weights
        v = pts[:, None] ** np.arange(65) * np.sqrt(np.arange(1.0, 66.0))
        own = np.linalg.eigvalsh((v.conj().T * w) @ v)[-1]
        sup = rep.carleson.operator.sup
        assert sup == pytest.approx(own, rel=1e-12)
        assert sup == pytest.approx(FROZEN_STATEMENT3, rel=1e-12)
        # the truncated kernel K_64(., a_k) lies in P_64, so the sup is at
        # least w_k K_64(a_k, a_k) at every atom
        assert sup >= max(w * np.sum(np.abs(v) ** 2, axis=1))

    def test_cluster_is_diverging(self, disk_model):
        cl = sequences.boundary_cluster(DISK, np.array([1.0]), levels=6)
        rep = sequences.thm42_pipeline(DISK, disk_model, cl, FAST)
        assert rep.carleson.berezin.verdict == "Diverging"
        assert rep.carleson.geometric.verdict == "Diverging"
        assert rep.verdicts_agree
        assert rep.part_count == 64
        assert rep.part_count <= rep.max_ball_count <= cl.count

    def test_singleton_is_bounded(self, disk_model):
        one = sequences.sequence_set(DISK, [0.25])
        rep = sequences.thm42_pipeline(DISK, disk_model, one, FAST)
        assert rep.carleson.berezin.verdict == "Bounded"
        assert rep.verdicts_agree
        assert rep.separation == math.inf
        assert rep.part_count == 1


# ---------------------------------------------------------------------------
# the standard measure suite


def test_standard_measure_suite_contents():
    suite = sequences.standard_measure_suite(DISK, seed=0)
    names = [name for name, _ in suite]
    assert names == [
        "lebesgue",
        "packing0.3",
        "packing0.5",
        "packing0.8",
        "ray+",
        "ray-",
        "cluster",
        "density(1-d)",
        "density(1/(1-d))",
        "atom",
    ]
    for name, mu in suite:
        if isinstance(mu, measures.AtomicMeasure):
            assert np.all(mu.weights > 0)
    atom = dict(suite)["atom"]
    assert atom.points.shape == (1, 1)
    assert atom.points[0, 0] == 0.5


# ---------------------------------------------------------------------------
# CSV plumbing


class TestSequenceCsv:
    def test_roundtrip(self, tmp_path):
        pack = sequences.greedy_packing(DISK, 0.6, level_floor=0.1, seed=4, candidates=512)
        path = tmp_path / "seq.csv"
        sequences.sequence_to_csv(pack.sequence, path)
        back = sequences.sequence_from_csv(DISK, path)
        assert np.all(back.points == pack.sequence.points)
        assert back.label == str(path)

    def test_roundtrip_ball(self, tmp_path):
        seq = sequences.sequence_set(BALL2, [[0.1 + 0.2j, -0.3j], [0.0, 0.5]])
        path = tmp_path / "seq2.csv"
        sequences.sequence_to_csv(seq, path)
        back = sequences.sequence_from_csv(BALL2, path, label="named")
        assert np.all(back.points == seq.points)
        assert back.label == "named"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            sequences.sequence_from_csv(DISK, path)

    def test_column_mismatch_rejected(self, tmp_path):
        seq = sequences.sequence_set(BALL2, [[0.1, 0.2]])
        path = tmp_path / "seq2.csv"
        sequences.sequence_to_csv(seq, path)
        with pytest.raises(InputError, match="columns"):
            sequences.sequence_from_csv(DISK, path)

    def test_decomposition_csv(self, tmp_path):
        dec = sequences.greedy_decompose(DISK, TRI, 0.6)
        path = tmp_path / "dec.csv"
        sequences.decomposition_to_csv(TRI, dec, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,y1,color"
        assert len(lines) == TRI.count + 1
        got_colors = [int(line.split(",")[-1]) for line in lines[1:]]
        assert got_colors == [0, 1, 1]
