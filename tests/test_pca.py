"""Reduction fitting, projection, and persistence."""

import tracemalloc

import numpy as np
import pytest

from samplerank import pca
from samplerank.pca import (
    PcaModel,
    explained_variance_ratio,
    fit_pca,
    load_pca,
    save_pca,
    transform_batch,
)


class TestLineFixture:
    """Points on the line (t, 2t): covariance eigensystem known by hand.

    cov = [[1, 2], [2, 4]] with divisor N-1, so the spectrum is {5, 0} and
    the leading eigenvector is (1, 2)/sqrt(5).
    """

    def setup_method(self):
        self.model = fit_pca(np.array([[-1.0, -2.0], [0.0, 0.0], [1.0, 2.0]]), r=2)

    def test_first_component(self):
        np.testing.assert_allclose(
            self.model.components[0], np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-12
        )

    def test_eigenvalues(self):
        np.testing.assert_allclose(self.model.eigenvalues, [5.0, 0.0], atol=1e-12)

    def test_variance_ratios(self):
        np.testing.assert_allclose(explained_variance_ratio(self.model), [1.0, 0.0], atol=1e-12)


class TestFitValidation:
    def test_identical_points_zero_variance(self):
        with pytest.raises(ValueError, match="zero total variance"):
            fit_pca(np.ones((5, 3)))

    def test_r_out_of_range(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="out of range"):
            fit_pca(x, r=4)
        with pytest.raises(ValueError, match="out of range"):
            fit_pca(x, r=0)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_pca(np.ones((1, 3)))


class TestTransform:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.normal(size=(40, 6))
        self.model = fit_pca(self.x, r=6)

    def test_mean_maps_to_zero(self):
        np.testing.assert_allclose(transform_batch(self.model, self.model.mean[None])[0], np.zeros(6), atol=1e-12)

    def test_component_direction_maps_to_unit_axis(self):
        for i in range(3):
            out = transform_batch(self.model, (self.model.mean + self.model.components[i])[None])[0]
            np.testing.assert_allclose(out, np.eye(6)[i], atol=1e-9)

    def test_full_rank_preserves_norms(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.normal(size=6)
            assert abs(
                np.linalg.norm(transform_batch(self.model, v[None])[0]) - np.linalg.norm(v - self.model.mean)
            ) < 1e-6

    def test_full_rank_preserves_pairwise_distances(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(100, 6))
        proj = transform_batch(self.model, pts)
        d_before = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        d_after = np.sqrt(((proj[:, None] - proj[None, :]) ** 2).sum(-1))
        np.testing.assert_allclose(d_after, d_before, atol=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            transform_batch(self.model, np.ones((1, 4)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            transform_batch(self.model, np.array([[np.inf, 0, 0, 0, 0, 0]]))


class TestModelProperties:
    def test_orthonormality_and_ordering(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(200, 12)) * rng.uniform(0.2, 3.0, size=12)
        model = fit_pca(x, r=8)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6
        ratios = explained_variance_ratio(model)
        assert np.all(np.diff(ratios) <= 1e-12)
        assert ratios.sum() <= 1.0 + 1e-12

    def test_reconstruction_error_nonincreasing_in_rank(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 8)) * rng.uniform(0.5, 2.0, size=8)
        v = rng.normal(size=8)
        errors = []
        for r in range(1, 9):
            model = fit_pca(x, r=r)
            recon = model.mean + model.components.T @ transform_batch(model, v[None])[0]
            errors.append(np.linalg.norm(v - recon))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_isotropic_gaussian_splits_variance_evenly(self):
        rng = np.random.default_rng(12)
        model = fit_pca(rng.normal(size=(10_000, 2)), r=2)
        np.testing.assert_allclose(explained_variance_ratio(model), [0.5, 0.5], atol=0.05)

    def test_deterministic_refit(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 5))
        a = fit_pca(x.copy(), r=4)
        b = fit_pca(x.copy(), r=4)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(14)
        model = fit_pca(rng.normal(size=(80, 7)), r=7)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_auto_rank_selects_small_r_for_low_rank_data(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=(300, 2))
        lift = rng.normal(size=(2, 10))
        x = base @ lift + 1e-6 * rng.normal(size=(300, 10))
        model = fit_pca(x)  # variance threshold 0.95
        assert model.n_components <= 2

    def test_more_samples_than_dims_and_vice_versa(self):
        rng = np.random.default_rng(16)
        tall = fit_pca(rng.normal(size=(30, 5)), r=5)
        wide = fit_pca(rng.normal(size=(5, 30)), r=5)
        assert tall.n_components == 5 and wide.n_components == 5
        for m in (tall, wide):
            gram = m.components @ m.components.T
            assert np.max(np.abs(gram - np.eye(5))) < 1e-6


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        model = fit_pca(rng.normal(size=(40, 6)), r=4)
        path = tmp_path / "pca.bin"
        save_pca(model, path)
        loaded = load_pca(path)
        assert loaded.n_components == 4 and loaded.dimension == 6
        np.testing.assert_allclose(loaded.mean, model.mean, atol=1e-6)
        np.testing.assert_allclose(loaded.components, model.components, atol=1e-6)
        np.testing.assert_allclose(loaded.eigenvalues, model.eigenvalues, rtol=1e-5, atol=1e-6)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(18)
        model = fit_pca(rng.normal(size=(20, 4)), r=3)
        save_pca(model, tmp_path / "a.bin")
        save_pca(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(
                mean=np.zeros(2),
                components=np.array([[1.0, 0.0], [1.0, 0.0]]),
                eigenvalues=np.array([2.0, 1.0]),
                total_variance=3.0,
            )
        with pytest.raises(ValueError, match="nonincreasing"):
            PcaModel(
                mean=np.zeros(2),
                components=np.eye(2),
                eigenvalues=np.array([1.0, 2.0]),
                total_variance=3.0,
            )


class TestGramRoute:
    """N >= D fits through eigh of the scatter matrix; N < D keeps the economy SVD."""

    @staticmethod
    def _svd(x):
        _, singulars, vh = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        return singulars**2 / (len(x) - 1), vh

    def test_ill_conditioned_subspace_matches_svd(self):
        """Singular values 1 .. 1e-6: the scatter matrix squares that range.

        Tolerance, per rank r: the first-order perturbation bound
        eps * l1 / (l_r - l_(r+1)) for the fitted projector, and
        eps * l1 / l_r for the relative error of each kept eigenvalue.
        """
        rng = np.random.default_rng(21)
        n, d = 600, 48
        left, _ = np.linalg.qr(rng.normal(size=(n, d)))
        right, _ = np.linalg.qr(rng.normal(size=(d, d)))
        x = (left * np.logspace(0, -6, d)) @ right.T + 3.0
        lam, vh = self._svd(x)
        eps = np.finfo(np.float64).eps
        for r in (None, 12, 32):
            model = fit_pca(x, r=r)
            rank = model.n_components
            if r is None:  # the variance rule picks the same rank from either spectrum
                assert rank == np.searchsorted(np.cumsum(lam) / lam.sum(), 0.95 - 1e-12) + 1
            ref = vh[:rank].T @ vh[:rank]
            got = model.components.T @ model.components
            assert np.max(np.abs(got - ref)) < eps * lam[0] / (lam[rank - 1] - lam[rank])
            np.testing.assert_allclose(model.eigenvalues, lam[:rank], rtol=eps * lam[0] / lam[rank - 1])

    def test_wide_input_matches_svd_exactly(self):
        x = np.random.default_rng(22).normal(size=(20, 50))
        lam, vh = self._svd(x)
        model = fit_pca(x, r=7)
        signs = np.sign(vh[np.arange(7), np.argmax(np.abs(vh[:7]), axis=1)])
        np.testing.assert_array_equal(model.components, vh[:7] * signs[:, None])
        np.testing.assert_array_equal(model.eigenvalues, lam[:7])
        assert model.total_variance == lam.sum()


class TestRowBlocks:
    """Fit and projection take stored float32 vectors through row blocks, never a float64 copy."""

    def test_float32_fit_equals_fit_on_its_float64_cast(self):
        d = 128
        n = 2 * (pca._BLOCK_BUDGET // d) + 123  # two full blocks and a partial one
        rng = np.random.default_rng(23)
        x = (rng.normal(size=(n, d)) * np.linspace(3.0, 0.1, d) + 2.0).astype(np.float32)
        wide = x.astype(np.float64)
        got, want = fit_pca(x), fit_pca(wide)
        for name in ("mean", "components", "eigenvalues"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.total_variance == want.total_variance
        assert transform_batch(got, x).tobytes() == transform_batch(want, wide).tobytes()
        # the summed block scatter matrices agree with one SVD of the whole centred matrix
        lam, _ = TestGramRoute._svd(wide)
        np.testing.assert_allclose(got.eigenvalues, lam[: got.n_components], rtol=1e-10)
        np.testing.assert_allclose(
            transform_batch(got, x), (wide - got.mean) @ got.components.T, rtol=1e-10, atol=1e-12
        )

    def test_fit_and_transform_peak_below_one_float64_copy(self):
        x = np.random.default_rng(24).normal(size=(20_000, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            transform_batch(fit_pca(x), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.size * np.dtype(np.float64).itemsize  # 39 MiB


class TestParts:
    """Rows given in parts fit the model of their concatenation, bit for bit, without stacking them."""

    D = 64
    ROWS = pca._BLOCK_BUDGET // D  # rows of one centred block

    @staticmethod
    def _data(n, d, seed):
        rng = np.random.default_rng(seed)
        # entries whose exponents spread widely, so float64 sums round and their order shows in the bits
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4, 4, size=(n, d)) + rng.normal(size=d)
        return x.astype(np.float32)

    @pytest.mark.parametrize(
        "sizes",
        [
            (3000, 2 * ROWS + 77),  # the seam inside a block
            (ROWS, ROWS + 77),  # the seam on a block boundary
            (2 * ROWS, 5),  # a part shorter than one block, at the end
            (7, ROWS - 3, 1, ROWS + 9),  # short parts at the start and between two blocks
            (10, 20),  # N < D: the SVD of one centred block
        ],
    )
    def test_parts_fit_equals_concatenated_fit(self, sizes):
        x = self._data(sum(sizes), self.D, seed=sum(sizes))
        parts = np.split(x, np.cumsum(sizes)[:-1])
        for r in (None, 3):
            got, want = fit_pca(*parts, r=r), fit_pca(np.concatenate(parts), r=r)
            for name in ("mean", "components", "eigenvalues"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (sizes, r, name)
            assert got.total_variance == want.total_variance

    @pytest.mark.parametrize("n, d", [(12, 3), (420, 8), (4200, 8), (3 * 2048 + 5, 256), (12_200, 512)])
    def test_mean_adds_rows_in_order_as_numpy_mean_does(self, n, d):
        x = self._data(n, d, seed=n + d)
        want = x.mean(axis=0, dtype=np.float64).tobytes()
        assert fit_pca(x).mean.tobytes() == want
        assert fit_pca(x[: n // 3], x[n // 3 :]).mean.tobytes() == want

    def test_parts_of_other_dimensions_are_refused(self):
        with pytest.raises(ValueError, match="all of one D"):
            fit_pca(np.ones((4, 3)), np.ones((4, 2)))
        with pytest.raises(ValueError, match="all of one D"):
            fit_pca()
