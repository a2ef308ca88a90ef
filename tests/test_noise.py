import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saltpepper import GrayImage, NoiseSpec, inject
from saltpepper import noise

interior_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
    elements=st.integers(1, 254),
)


def documented_rule(pixels, spec):
    """Both draws as whole arrays from one ``default_rng(seed)``, as ``inject`` documents."""
    rng = np.random.default_rng(spec.seed)
    select = rng.random(pixels.shape) < spec.density
    salt = rng.random(pixels.shape) < spec.salt_fraction
    return np.where(select, np.where(salt, 255, 0), pixels)


def constant_image(value, size=64):
    return GrayImage(np.full((size, size), value, dtype=np.uint8))


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec(density=0.3)
        assert spec.salt_fraction == 0.5
        assert spec.seed == 0

    @pytest.mark.parametrize("density", [-0.1, 1.1, 100.0])
    def test_rejects_bad_density(self, density):
        with pytest.raises(ValueError, match="density"):
            NoiseSpec(density=density)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5])
    def test_rejects_bad_salt_fraction(self, fraction):
        with pytest.raises(ValueError, match="salt_fraction"):
            NoiseSpec(density=0.5, salt_fraction=fraction)

    @pytest.mark.parametrize("field", ["density", "salt_fraction"])
    @pytest.mark.parametrize("value", ["0.5", None, 0.5j], ids=["str", "None", "complex"])
    def test_rejects_non_real_fractions(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number in"):
            NoiseSpec(**{"density": 0.5, field: value})

    def test_accepts_numpy_fractions(self):
        img = constant_image(128, size=8)
        spec = NoiseSpec(density=np.float32(0.5), salt_fraction=np.float64(0.25), seed=3)
        assert inject(img, spec) == inject(img, NoiseSpec(0.5, 0.25, seed=3))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(density=0.5, seed=seed)

    @pytest.mark.parametrize(
        "seed", [1.5, 1.0, np.float64(2.0), "1", None], ids=["1.5", "1.0", "np2.0", "str1", "None"]
    )
    def test_rejects_non_integer_seed(self, seed):
        # inject would otherwise fail later with a TypeError from NumPy
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            NoiseSpec(density=0.5, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        img = constant_image(128, size=8)
        spec = NoiseSpec(density=0.5, seed=np.uint64(2**64 - 1))
        assert inject(img, spec) == inject(img, NoiseSpec(density=0.5, seed=2**64 - 1))


class TestInject:
    def test_density_zero_is_identity(self):
        img = constant_image(128)
        assert inject(img, NoiseSpec(density=0.0, seed=3)) == img

    def test_density_one_corrupts_everything(self):
        out = inject(constant_image(128), NoiseSpec(density=1.0, seed=3))
        assert set(out.pixels.ravel().tolist()) <= {0, 255}

    def test_output_is_read_only(self):
        out = inject(constant_image(128), NoiseSpec(density=0.5, seed=3))
        assert not out.pixels.flags.writeable

    def test_deterministic(self):
        img = constant_image(128)
        spec = NoiseSpec(density=0.4, seed=11)
        assert inject(img, spec) == inject(img, spec)

    def test_seed_changes_the_pattern(self):
        img = constant_image(128)
        a = inject(img, NoiseSpec(density=0.4, seed=1))
        b = inject(img, NoiseSpec(density=0.4, seed=2))
        assert a != b

    def test_salt_fraction_extremes(self):
        img = constant_image(128)
        salted = inject(img, NoiseSpec(density=0.5, salt_fraction=1.0, seed=7))
        peppered = inject(img, NoiseSpec(density=0.5, salt_fraction=0.0, seed=7))
        assert set(salted.pixels.ravel().tolist()) == {128, 255}
        assert set(peppered.pixels.ravel().tolist()) == {0, 128}

    def test_selection_is_independent_of_image_content(self):
        # the corruption mask and impulse values depend on (shape, spec) only
        spec = NoiseSpec(density=0.3, seed=5)
        dark = inject(constant_image(1), spec)
        bright = inject(constant_image(254), spec)
        dark_hit = dark.pixels != 1
        bright_hit = bright.pixels != 254
        assert np.array_equal(dark_hit, bright_hit)
        assert np.array_equal(dark.pixels[dark_hit], bright.pixels[bright_hit])

    def test_corrupted_count_within_binomial_bound(self):
        # n=65536, d=0.3: mean 19660.8, 4 sigma ~ 470
        img = constant_image(128, size=256)
        for seed in range(5):
            out = inject(img, NoiseSpec(density=0.3, seed=seed))
            count = int((out.pixels != 128).sum())
            assert 19191 <= count <= 20131

    @given(pixels=interior_arrays, density=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
    def test_only_impulses_and_untouched_pixels(self, pixels, density, seed):
        img = GrayImage(pixels)
        out = inject(img, NoiseSpec(density=density, seed=seed))
        changed = out.pixels != img.pixels
        assert np.isin(out.pixels[changed], (0, 255)).all()
        assert np.array_equal(out.pixels[~changed], img.pixels[~changed])


class TestStreamRule:
    """``inject`` against the documented stream rule, with bands cut to 1, 2, 3 and 7 pixels."""

    SPECS = [
        NoiseSpec(density=0.0, seed=3),
        NoiseSpec(density=1.0, seed=3),
        NoiseSpec(density=0.4, salt_fraction=0.0, seed=5),
        NoiseSpec(density=0.4, salt_fraction=1.0, seed=5),
        NoiseSpec(density=1.0, salt_fraction=0.3, seed=2**64 - 1),
        NoiseSpec(density=0.55, salt_fraction=0.7, seed=2**64 - 1),
    ]

    @pytest.mark.parametrize("band", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 29), (29, 1), (19, 23)])
    def test_matches_rule(self, band, shape, rng):
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            if band is not None:
                mp.setattr(noise, "BAND", band)
            outs = [inject(GrayImage(pixels), spec).pixels for spec in self.SPECS]
        for spec, out in zip(self.SPECS, outs):
            assert np.array_equal(out, documented_rule(pixels, spec)), spec

    @pytest.mark.parametrize("band", [None, 3])
    @given(
        pixels=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)),
        density=st.floats(0.0, 1.0),
        salt_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_rule_on_any_input(self, band, pixels, density, salt_fraction, seed):
        spec = NoiseSpec(density=density, salt_fraction=salt_fraction, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if band is not None:
                mp.setattr(noise, "BAND", band)
            out = inject(GrayImage(pixels), spec)
        assert np.array_equal(out.pixels, documented_rule(pixels, spec))

    def test_matches_rule_across_default_bands(self):
        # 300 x 301 pixels are 90 300 draws per stream: one full band and a partial one
        pixels = np.random.default_rng(2).integers(0, 256, (300, 301), dtype=np.uint8)
        spec = NoiseSpec(density=0.5, salt_fraction=0.5, seed=9)
        assert np.array_equal(inject(GrayImage(pixels), spec).pixels, documented_rule(pixels, spec))
