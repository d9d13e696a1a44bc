import numpy as np
import pytest

from shadowgeo.sampling import _sphere_blocks, fibonacci_sphere, sample_sphere
from shadowgeo.spherecover import _SAMPLE_BLOCK


def test_fibonacci_points_are_unit_and_deterministic():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pts, fibonacci_sphere(500))
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_fibonacci_is_roughly_uniform():
    pts = fibonacci_sphere(2000)
    # octant counts stay within a few percent of each other
    octants = (pts > 0) @ np.array([1, 2, 4])
    counts = np.bincount(octants, minlength=8)
    assert counts.min() > 0.8 * counts.max()


def test_sample_sphere_determinism_and_norms():
    a = sample_sphere(100, seed=3, dim=5)
    b = sample_sphere(100, seed=3, dim=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 5)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = sample_sphere(100, seed=4, dim=5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, 2 * _SAMPLE_BLOCK + 7])
def test_sample_sphere_is_its_blocks_joined_and_one_normal_draw(n, dim):
    whole = sample_sphere(n, 11, dim)
    blocks = list(_sphere_blocks(n, 11, dim, _SAMPLE_BLOCK))
    assert all(len(b) == _SAMPLE_BLOCK for b in blocks[:-1])
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    # the points of one draw of n normal rows, each divided by its norm
    v = np.random.default_rng(11).standard_normal((n, dim))
    np.testing.assert_array_equal(whole, v / np.linalg.norm(v, axis=1)[:, None])
