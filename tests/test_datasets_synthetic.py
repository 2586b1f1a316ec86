"""Tests for the procedural MNIST-like and GTSRB-like generators.

- **Identity.**  Both generators render in chunked batches per class;
  every sample equals the lone render with the same generator at its
  turn, and the generator ends in the same state — across chunk
  boundaries (``RENDER_BYTES`` patched small).  ``render_digit`` and
  ``render_sign`` equal the per-image renderers they replaced, kept
  below as references.  ``make chaos`` runs both properties at length.
- **Pins.**  SHA-256 of both generators' output over a small grid,
  recorded with the per-image renderers, keyed by NumPy's SIMD target
  (its ``exp`` differs between X86_V4 and X86_V3).  Regenerate a
  table with ``PYTHONPATH=src python -m tests.test_datasets_synthetic``.
"""

import hashlib
import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.base as base_module
from repro.datasets import (
    DIGIT_STROKES,
    SIGN_CLASSES,
    make_synthetic_gtsrb,
    make_synthetic_mnist,
    render_digit,
    render_sign,
)
from tests.conftest import simd_target

#: ``make chaos`` (which sets CHAOS_SEEDS) runs the properties at length.
CHAOS = "CHAOS_SEEDS" in os.environ


class TestRenderDigit:
    def test_all_digits_defined(self):
        assert sorted(DIGIT_STROKES) == list(range(10))

    def test_shape_and_range(self):
        img = render_digit(3)
        assert img.shape == (28, 28)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_custom_size(self):
        assert render_digit(0, image_size=16).shape == (16, 16)

    def test_canonical_deterministic(self):
        np.testing.assert_array_equal(render_digit(5), render_digit(5))

    def test_augmented_varies(self, rng):
        a = render_digit(5, rng=rng)
        b = render_digit(5, rng=rng)
        assert not np.array_equal(a, b)

    def test_classes_are_distinct(self):
        """Canonical glyphs must be pairwise separable."""
        canonical = {d: render_digit(d) for d in range(10)}
        for a, b in itertools.combinations(range(10), 2):
            diff = np.abs(canonical[a] - canonical[b]).mean()
            assert diff > 0.01, f"digits {a} and {b} render too similarly"

    def test_has_ink(self):
        for d in range(10):
            assert render_digit(d).max() > 0.5, f"digit {d} renders blank"

    def test_invalid_digit_raises(self):
        with pytest.raises(ValueError):
            render_digit(10)


class TestMakeSyntheticMnist:
    def test_shapes(self, rng):
        ds = make_synthetic_mnist(50, rng, image_size=20)
        assert ds.x.shape == (50, 1, 20, 20)
        assert ds.y.shape == (50,)
        assert ds.num_classes == 10

    def test_roughly_balanced(self, rng):
        ds = make_synthetic_mnist(1000, rng)
        counts = ds.class_counts()
        assert counts.min() > 50

    def test_class_weights(self, rng):
        weights = np.zeros(10)
        weights[3] = 1.0
        ds = make_synthetic_mnist(40, rng, class_weights=weights)
        assert (ds.y == 3).all()

    def test_invalid_weights_raise(self, rng):
        with pytest.raises(ValueError):
            make_synthetic_mnist(10, rng, class_weights=[1.0] * 9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_raise(self, rng, bad):
        weights = [1.0] * 10
        weights[4] = bad
        with pytest.raises(ValueError, match="class_weights"):
            make_synthetic_mnist(10, rng, class_weights=weights)

    def test_zero_samples_raise(self, rng):
        with pytest.raises(ValueError):
            make_synthetic_mnist(0, rng)

    def test_deterministic_given_seed(self):
        a = make_synthetic_mnist(20, np.random.default_rng(5))
        b = make_synthetic_mnist(20, np.random.default_rng(5))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestRenderSign:
    def test_all_classes_defined(self):
        assert sorted(SIGN_CLASSES) == list(range(10))

    def test_shape_and_range(self):
        img = render_sign(0)
        assert img.shape == (3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_canonical_deterministic(self):
        np.testing.assert_array_equal(render_sign(4), render_sign(4))

    def test_augmented_varies(self, rng):
        assert not np.array_equal(render_sign(4, rng=rng), render_sign(4, rng=rng))

    def test_classes_are_distinct(self):
        canonical = {c: render_sign(c) for c in SIGN_CLASSES}
        for a, b in itertools.combinations(SIGN_CLASSES, 2):
            diff = np.abs(canonical[a] - canonical[b]).mean()
            assert diff > 0.005, f"signs {a} and {b} render too similarly"

    def test_colors_differ_between_red_and_blue_families(self):
        stop = render_sign(5)  # red octagon
        ahead = render_sign(6)  # blue circle
        # Pixel above center (inside fill, off the glyph): red channel
        # dominates for stop, blue for ahead-only.
        r, c = 9, 16
        assert stop[0, r, c] > stop[2, r, c]
        assert ahead[2, r, c] > ahead[0, r, c]

    def test_invalid_class_raises(self):
        with pytest.raises(ValueError):
            render_sign(99)


class TestMakeSyntheticGtsrb:
    def test_shapes(self, rng):
        ds = make_synthetic_gtsrb(30, rng, image_size=24)
        assert ds.x.shape == (30, 3, 24, 24)
        assert ds.num_classes == 10

    def test_restricted_classes(self, rng):
        ds = make_synthetic_gtsrb(40, rng, num_classes=4)
        assert ds.y.max() < 4

    def test_invalid_num_classes(self, rng):
        with pytest.raises(ValueError):
            make_synthetic_gtsrb(10, rng, num_classes=1)
        with pytest.raises(ValueError):
            make_synthetic_gtsrb(10, rng, num_classes=99)

    def test_deterministic_given_seed(self):
        a = make_synthetic_gtsrb(15, np.random.default_rng(6))
        b = make_synthetic_gtsrb(15, np.random.default_rng(6))
        np.testing.assert_array_equal(a.x, b.x)


class TestLearnability:
    """The substitution argument (DESIGN.md §2) requires both synthetic
    tasks to be learnable by small models — checked cheaply here."""

    def test_mnist_like_learnable(self):
        from repro.nn import SGD, accuracy, mlp

        rng = np.random.default_rng(0)
        train = make_synthetic_mnist(600, np.random.default_rng(1), image_size=14)
        test = make_synthetic_mnist(200, np.random.default_rng(2), image_size=14)
        model = mlp(np.random.default_rng(3), 14 * 14, 10, hidden=32)
        opt = SGD(lr=0.5)
        for _ in range(25):
            for xb, yb in train.batches(64, rng=rng):
                _, grad = model.loss_and_flat_grad(xb, yb)
                model.set_flat_params(opt.step(model.get_flat_params(), grad))
        assert accuracy(model.predict(test.x), test.y) > 0.8

    def test_gtsrb_like_learnable(self):
        from repro.nn import SGD, accuracy, mlp

        rng = np.random.default_rng(0)
        train = make_synthetic_gtsrb(700, np.random.default_rng(1), image_size=16)
        test = make_synthetic_gtsrb(200, np.random.default_rng(2), image_size=16)
        model = mlp(np.random.default_rng(3), 3 * 16 * 16, 10, hidden=32)
        opt = SGD(lr=0.1)
        for _ in range(30):
            for xb, yb in train.batches(64, rng=rng):
                _, grad = model.loss_and_flat_grad(xb, yb)
                model.set_flat_params(opt.step(model.get_flat_params(), grad))
        assert accuracy(model.predict(test.x), test.y) > 0.7


class TestRenderArguments:
    """A size or noise scale no image can be rendered with fails up
    front, naming the argument, before any draw."""

    @pytest.mark.parametrize("make", [make_synthetic_mnist, make_synthetic_gtsrb])
    @pytest.mark.parametrize("size", [0, -3])
    def test_generators_reject_empty_images(self, make, size):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="image_size"):
            make(4, rng, image_size=size)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("make", [make_synthetic_mnist, make_synthetic_gtsrb])
    @pytest.mark.parametrize("noise", [-0.01, np.nan])
    def test_generators_reject_bad_noise(self, make, noise):
        with pytest.raises(ValueError, match="noise_std"):
            make(4, np.random.default_rng(0), noise_std=noise)

    @pytest.mark.parametrize("render", [render_digit, render_sign])
    def test_renderers_reject_bad_arguments(self, render):
        with pytest.raises(ValueError, match="image_size"):
            render(1, image_size=0)
        with pytest.raises(ValueError, match="noise_std"):
            render(1, rng=np.random.default_rng(0), noise_std=-1.0)


# ----------------------------------------------------------------------
# identity: chunked batches == lone renders == the per-image references
# ----------------------------------------------------------------------
def lone_digit(digit, rng=None, image_size=28, stroke_width=0.055, jitter=0.02,
               max_rotation_deg=12.0, max_shift=0.06, noise_std=0.05):
    """``render_digit`` as it stood before batching, one image at a time."""
    segments = np.array(
        [[ax, ay, bx, by] for (ax, ay), (bx, by) in DIGIT_STROKES[digit]],
        dtype=np.float64,
    )
    width = stroke_width
    if rng is not None:
        segments = segments + rng.normal(0.0, jitter, size=segments.shape)
        width = stroke_width * float(rng.uniform(0.8, 1.35))
    coords = (np.arange(image_size) + 0.5) / image_size
    gx, gy = np.meshgrid(coords, coords)
    px = gx.ravel()
    py = gy.ravel()
    if rng is not None:
        theta = np.deg2rad(rng.uniform(-max_rotation_deg, max_rotation_deg))
        scale = rng.uniform(0.9, 1.1)
        shift_x = rng.uniform(-max_shift, max_shift)
        shift_y = rng.uniform(-max_shift, max_shift)
        cx = px - 0.5 - shift_x
        cy = py - 0.5 - shift_y
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        px = (cos_t * cx - sin_t * cy) / scale + 0.5
        py = (sin_t * cx + cos_t * cy) / scale + 0.5
    a = segments[:, 0:2][:, None, :]
    b = segments[:, 2:4][:, None, :]
    p = np.stack([px, py], axis=-1)[None, :, :]
    ab = b - a
    ab_len2 = np.maximum((ab**2).sum(axis=-1), 1e-12)
    t = np.clip(((p - a) * ab).sum(axis=-1) / ab_len2, 0.0, 1.0)
    nearest = a + t[..., None] * ab
    dist = np.sqrt(((p - nearest) ** 2).sum(axis=-1)).min(axis=0)
    image = np.exp(-((dist / width) ** 2)).reshape(image_size, image_size)
    if rng is not None:
        image = image * rng.uniform(0.75, 1.0)
        image = image + rng.normal(0.0, noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def lone_sign(cls, rng=None, image_size=32, max_rotation_deg=10.0, max_shift=0.12,
              noise_std=0.04):
    """``render_sign`` as it stood before batching, one image at a time."""
    spec = SIGN_CLASSES[cls]
    coords = np.linspace(-1.0, 1.0, image_size)
    gx, gy = np.meshgrid(coords, coords)
    if rng is not None:
        theta = np.deg2rad(rng.uniform(-max_rotation_deg, max_rotation_deg))
        scale = rng.uniform(0.85, 1.1)
        shift_x = rng.uniform(-max_shift, max_shift)
        shift_y = rng.uniform(-max_shift, max_shift)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        tx = (cos_t * (gx - shift_x) - sin_t * (gy - shift_y)) / scale
        ty = (sin_t * (gx - shift_x) + cos_t * (gy - shift_y)) / scale
    else:
        tx, ty = gx, gy
    outer = spec.outer(tx, ty)
    inner = spec.inner(tx, ty)
    glyph = spec.glyph(tx, ty) & inner
    if rng is not None:
        bg_base = rng.uniform(0.25, 0.65)
        image = np.stack(
            [np.full((image_size, image_size), bg_base * f)
             for f in rng.uniform(0.8, 1.2, size=3)]
        )
    else:
        image = np.full((3, image_size, image_size), 0.45)
    for mask, color in ((outer, spec.border_color), (inner, spec.fill_color),
                        (glyph, spec.glyph_color)):
        image = np.where(mask[None, :, :], np.asarray(color)[:, None, None], image)
    if rng is not None:
        image = image * rng.uniform(0.6, 1.15) * rng.uniform(0.9, 1.1, size=(3, 1, 1))
        image = image + rng.normal(0.0, noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0)


@pytest.mark.chaos
@settings(max_examples=200 if CHAOS else 25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    size=st.integers(1, 20),
    noise_std=st.sampled_from([0.0, 0.05, 0.3]),
    weights=st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=10, max_size=10)
                      .filter(any)),
    num_classes=st.integers(2, 10),
    render_bytes=st.one_of(st.none(), st.integers(1, 1 << 15)),
)
def test_chunked_batches_match_lone_renders(seed, n, size, noise_std, weights,
                                            num_classes, render_bytes):
    bound = base_module.RENDER_BYTES if render_bytes is None else render_bytes
    rng = np.random.default_rng(seed)
    with mock.patch.object(base_module, "RENDER_BYTES", bound):
        mnist = make_synthetic_mnist(n, rng, image_size=size, noise_std=noise_std,
                                     class_weights=weights)
        gtsrb = make_synthetic_gtsrb(n, rng, image_size=size, noise_std=noise_std,
                                     num_classes=num_classes)
    lone = np.random.default_rng(seed)
    probs = np.full(10, 0.1) if weights is None else np.asarray(weights) / sum(weights)
    labels = lone.choice(10, size=n, p=probs)
    assert np.array_equal(mnist.y, labels)
    for row, digit in zip(mnist.x, labels):
        image = render_digit(int(digit), rng=lone, image_size=size, noise_std=noise_std)
        assert np.array_equal(row[0], image), (digit, bound)
    labels = lone.integers(0, num_classes, size=n)
    assert np.array_equal(gtsrb.y, labels)
    for row, cls in zip(gtsrb.x, labels):
        image = render_sign(int(cls), rng=lone, image_size=size, noise_std=noise_std)
        assert np.array_equal(row, image), (cls, bound)
    assert rng.bit_generator.state == lone.bit_generator.state


@pytest.mark.chaos
@settings(max_examples=200 if CHAOS else 25, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    cls=st.integers(0, 9),
    size=st.integers(1, 33),
    noise_std=st.floats(0.0, 0.5),
    stroke_width=st.floats(0.02, 0.1),
    jitter=st.floats(0.0, 0.05),
    max_rotation_deg=st.floats(0.0, 30.0),
    max_shift=st.floats(0.0, 0.2),
)
def test_lone_renders_match_per_image_references(seed, cls, size, noise_std, stroke_width,
                                                 jitter, max_rotation_deg, max_shift):
    mine = ref = None
    if seed is not None:
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    digit = dict(image_size=size, stroke_width=stroke_width, jitter=jitter,
                 max_rotation_deg=max_rotation_deg, max_shift=max_shift,
                 noise_std=noise_std)
    assert np.array_equal(render_digit(cls, rng=mine, **digit),
                          lone_digit(cls, rng=ref, **digit))
    sign = dict(image_size=size, max_rotation_deg=max_rotation_deg, max_shift=max_shift,
                noise_std=noise_std)
    assert np.array_equal(render_sign(cls, rng=mine, **sign), lone_sign(cls, rng=ref, **sign))
    if seed is not None:
        assert mine.bit_generator.state == ref.bit_generator.state


# ----------------------------------------------------------------------
# dataset pins
# ----------------------------------------------------------------------
CASES = {
    ("mnist", "28px"): dict(seed=0, n=48, image_size=28),
    ("mnist", "16px"): dict(seed=1, n=300, image_size=16),
    ("mnist", "8px"): dict(seed=2, n=64, image_size=8),
    ("mnist", "11px"): dict(seed=3, n=40, image_size=11),  # 121 pixels
    ("mnist", "32px"): dict(seed=4, n=24, image_size=32),
    ("mnist", "weights"): dict(seed=5, n=40, image_size=14,
                               class_weights=[0, 3, 0, 1, 0, 0, 2, 0, 0, 1]),
    ("mnist", "noiseless"): dict(seed=6, n=32, image_size=12, noise_std=0.0),
    ("mnist", "noisy"): dict(seed=7, n=32, image_size=13, noise_std=0.3),
    ("mnist", "chunked"): dict(seed=8, n=2000, image_size=16),  # 2-4 chunks a digit
    ("gtsrb", "32px"): dict(seed=0, n=32, image_size=32),
    ("gtsrb", "16px"): dict(seed=1, n=200, image_size=16),
    ("gtsrb", "11px"): dict(seed=2, n=40, image_size=11, num_classes=4),
    ("gtsrb", "noiseless"): dict(seed=3, n=24, image_size=24, noise_std=0.0),
    ("gtsrb", "noisy"): dict(seed=4, n=24, image_size=13, noise_std=0.25),
    ("gtsrb", "chunked"): dict(seed=5, n=600, image_size=32),  # 2 chunks a sign
}

#: Recorded per NumPy SIMD target with the per-image renderers (before
#: batching), on BLAS core SkylakeX (no BLAS call renders).  The GTSRB
#: rows read the same on both targets: no SIMD ``exp`` draws a sign.
PINS = {
    "X86_V4": {
        ("mnist", "28px"): "4e41e27efc57c8c0f94bd98c9ef9de043b385051f55243f8807134ddaa6f9730",
        ("mnist", "16px"): "8d04e445881585d78f6e64a908eb2e84faa5e709e0177a6e173d8571f52d6301",
        ("mnist", "8px"): "03e4293f45b2de62934cc2552e09d34646ed3feef5d483d1fb34d8e9adedc6df",
        ("mnist", "11px"): "e1fb4b8cb0e4f4213af2aab307ce00f6fb1a7c652f16fa48f7061d6940ac5a26",
        ("mnist", "32px"): "05d7e2f8b3440e8ea9623b476bb729fed57cdd7056a410d58c7e85898550b388",
        ("mnist", "weights"): "0550abd4386d037a5d16310cf3df4823835e77bc666726ddcfd661a44a2124e2",
        ("mnist", "noiseless"): "b200a84327dbb61424fa1f433813c4870aae48f18541771b80c7c78322f1517c",
        ("mnist", "noisy"): "a6f7dbf2967c91c3251debf4c6eb0e9063415efbe879839201efefe0ae665531",
        ("mnist", "chunked"): "7a247eaf11201f9ecccabb4a781c2a401196a74877159a1850439c55785fd52c",
        ("gtsrb", "32px"): "de269fa108383def985c5579dd742cea1bba523c9fa46df45fa6665bc8d37bd2",
        ("gtsrb", "16px"): "a62c57a99fd41788175f2fbea76d4ce716babf60b3a4efd49bc3c245319aa05d",
        ("gtsrb", "11px"): "2ab5b6577e0dfc22e281f1c6d92eb8fcc28790e8a630ff5ad2f3bdf51c3c0266",
        ("gtsrb", "noiseless"): "f119c2b8c9e349b640a5e927d0197946c24eaad3d06426d15fdf79c6bd3c57f8",
        ("gtsrb", "noisy"): "c12ecd3ca9ca4e24c788690df400dc558fcd2dd86d0d2fea20832ee6da142e60",
        ("gtsrb", "chunked"): "8943893125431453f5d99b6206868ebb5e35e5cc0bd2c53648db397457e21886",
    },
    "X86_V3": {
        ("mnist", "28px"): "90d201b5eb276c4899e0e626f7b00b07552f6cce3e41be9b57c6122189c2d3b8",
        ("mnist", "16px"): "a5824856e82e2645d6dd62b8762b57b0d9c4d272f616c9966d0ca4fa6a120aeb",
        ("mnist", "8px"): "9f8f09f0cfe3fb93d5b9002f7179515178fc623b35656e84756665dd3392d180",
        ("mnist", "11px"): "bd3ef4433107563e56139e08cc54efc01a915b5ee73423b762b812b694d206c4",
        ("mnist", "32px"): "f3265bd4d53b296080eda139ad224ad81bf3143d282dfb34d47e5ab20746071c",
        ("mnist", "weights"): "617b847ca688f5acc6906d089fdf3af6e707260ddfa081ea97594f707f8dc7b0",
        ("mnist", "noiseless"): "e12efb6e6ccdf6dfa300371744630047223f9c6f2861e77d0f5553491e81edaa",
        ("mnist", "noisy"): "9eac2ff4cbf9646e78e6b8c65e217b5658aa0059631be32b34bb66278686f572",
        ("mnist", "chunked"): "92eb2d7206adcdbf7823a4fc9abeb72ee57c76b14a1625a9cbab59b00deb6f7d",
        ("gtsrb", "32px"): "de269fa108383def985c5579dd742cea1bba523c9fa46df45fa6665bc8d37bd2",
        ("gtsrb", "16px"): "a62c57a99fd41788175f2fbea76d4ce716babf60b3a4efd49bc3c245319aa05d",
        ("gtsrb", "11px"): "2ab5b6577e0dfc22e281f1c6d92eb8fcc28790e8a630ff5ad2f3bdf51c3c0266",
        ("gtsrb", "noiseless"): "f119c2b8c9e349b640a5e927d0197946c24eaad3d06426d15fdf79c6bd3c57f8",
        ("gtsrb", "noisy"): "c12ecd3ca9ca4e24c788690df400dc558fcd2dd86d0d2fea20832ee6da142e60",
        ("gtsrb", "chunked"): "8943893125431453f5d99b6206868ebb5e35e5cc0bd2c53648db397457e21886",
    },
}


def dataset_digest(kind, seed, n, **kwargs):
    """SHA-256 over ``x``, ``y`` and the generator's next two draws."""
    make = make_synthetic_mnist if kind == "mnist" else make_synthetic_gtsrb
    rng = np.random.default_rng(seed)
    data = make(n, rng, **kwargs)
    digest = hashlib.sha256()
    for part in (data.x, data.y, rng.random(2)):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_dataset_digest_is_pinned(case):
    target = simd_target()
    assert target in PINS, (
        f"no dataset pins for SIMD target {target}; record them with "
        "`PYTHONPATH=src python -m tests.test_datasets_synthetic` at a "
        "commit whose pins pass on a recorded target"
    )
    assert dataset_digest(case[0], **CASES[case]) == PINS[target][case], (
        f"SIMD target {target}; pins recorded on {', '.join(PINS)}"
    )


if __name__ == "__main__":
    print(f"    {simd_target()!r}: {{")
    for case in sorted(CASES, key=list(CASES).index):
        print(f"        {case!r}: {dataset_digest(case[0], **CASES[case])!r},")
    print("    },")
