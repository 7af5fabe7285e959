import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpverify import (
    TorusGrid,
    VectorField,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    transform_forward,
)
from lpverify.errors import FieldError, GridError
from lpverify.spectral import TWO_PI, FOURIER_NORM, _left_sum, inverse_fractional_laplacian
from lpverify import forge


def test_grid_validation():
    with pytest.raises(GridError):
        TorusGrid(6)
    with pytest.raises(GridError):
        TorusGrid(24)
    with pytest.raises(GridError):
        TorusGrid(16, -1.0)


def test_zero_array_transforms_to_zero(grid16):
    f = transform_forward(grid16, np.zeros((16, 16, 16)))
    assert f.max_abs_coeff() == 0.0


def test_single_mode_coefficients(grid16):
    _, _, Z = grid16.mesh
    f = transform_forward(grid16, np.sin(Z))
    expected = TWO_PI**1.5 / 2.0
    got = abs(f.coeffs[0, 0, 1])
    assert abs(got - expected) <= 1e-12 * expected
    assert abs(abs(f.coeffs[0, 0, -1]) - expected) <= 1e-12 * expected
    # everything else is at rounding level
    mask = np.ones_like(f.coeffs, dtype=bool)
    mask[0, 0, 1] = mask[0, 0, -1] = False
    assert np.max(np.abs(f.coeffs[mask])) <= 1e-13 * expected


def test_round_trip_and_plancherel(grid32, rng):
    x = rng.standard_normal((32, 32, 32))
    f = transform_forward(grid32, x)
    back = f.samples()
    assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))
    phys = np.sum(x**2) * grid32.cell_volume
    spec = np.sum(np.abs(f.coeffs) ** 2) * grid32.spectral_cell
    assert abs(phys - spec) <= 1e-12 * phys


def test_plancherel_off_unit_box(rng):
    g = TorusGrid(16, 3.5)
    x = rng.standard_normal((16, 16, 16))
    f = transform_forward(g, x)
    phys = np.sum(x**2) * g.cell_volume
    spec = np.sum(np.abs(f.coeffs) ** 2) * g.spectral_cell
    assert abs(phys - spec) <= 1e-12 * phys


def test_hermitian_symmetry_bit_exact(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    assert f.hermitian_defect() == 0.0


def test_transform_rejects_bad_input(grid16):
    with pytest.raises(FieldError):
        transform_forward(grid16, np.zeros((8, 8, 8)))
    bad = np.zeros((16, 16, 16))
    bad[0, 0, 0] = np.nan
    with pytest.raises(FieldError):
        transform_forward(grid16, bad)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_round_trip_property(seed):
    g = TorusGrid(8, TWO_PI)
    x = np.random.default_rng(seed).uniform(-5, 5, size=(8, 8, 8))
    f = transform_forward(g, x)
    assert np.max(np.abs(f.samples() - x)) <= 1e-12 * max(np.max(np.abs(x)), 1e-30)


# -- differential operators --------------------------------------------------


def test_gradient_of_sine(grid16):
    _, _, Z = grid16.mesh
    f = transform_forward(grid16, np.sin(Z))
    grad = gradient(f)
    assert np.max(np.abs(grad.components[2].samples() - np.cos(Z))) < 1e-13
    assert grad.components[0].max_abs_coeff() == 0.0
    assert grad.components[1].max_abs_coeff() == 0.0


def test_taylor_green_is_divergence_free(grid32):
    v = forge.taylor_green(grid32)
    X, Y, Z = grid32.mesh
    assert np.max(np.abs(v.components[0].samples() - np.sin(X) * np.cos(Y) * np.cos(Z))) < 1e-13
    assert np.max(np.abs(divergence(v).samples())) < 1e-13


def test_div_grad_equals_minus_laplacian(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    dg = divergence(gradient(f))
    lap = fractional_laplacian(f, 1.0)
    scale = lap.max_abs_coeff()
    assert np.max(np.abs(dg.coeffs + lap.coeffs)) <= 1e-12 * scale


def test_fractional_laplacian_unit_mode(grid16):
    _, _, Z = grid16.mesh
    f = transform_forward(grid16, np.sin(Z))
    out = fractional_laplacian(f, 1.0)
    assert np.max(np.abs(out.samples() - np.sin(Z))) < 1e-12


def test_fractional_semigroup(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    twice = fractional_laplacian(fractional_laplacian(f, 0.5), 0.5)
    once = fractional_laplacian(f, 1.0)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-13 * once.max_abs_coeff()


def test_fractional_matches_scalar_loop_oracle(rng):
    g = TorusGrid(8, TWO_PI)
    f = transform_forward(g, rng.standard_normal((8,) * 3))
    s = 5.0 / 6.0
    out = fractional_laplacian(f, s)
    m = g.modes.astype(float)
    expect = np.empty_like(f.coeffs)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                xi2 = m[i] ** 2 + m[j] ** 2 + m[k] ** 2
                expect[i, j, k] = f.coeffs[i, j, k] * xi2**s if xi2 > 0 else 0.0
    assert np.max(np.abs(out.coeffs - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_fractional_exponent_range(grid16):
    f = forge.taylor_green(grid16).components[0]
    for s in (0.0, -0.5, 2.5):
        with pytest.raises(FieldError):
            fractional_laplacian(f, s)


def test_inverse_fractional_laplacian(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    f = fractional_laplacian(f, 1.0)  # mean-zero
    rt = inverse_fractional_laplacian(fractional_laplacian(f, 0.75), 0.75)
    assert np.max(np.abs(rt.coeffs - f.coeffs)) <= 1e-12 * f.max_abs_coeff()


# -- Leray projection ---------------------------------------------------------


def test_leray_fixes_divergence_free(grid32):
    v = forge.taylor_green(grid32)
    pv = leray_project(v)
    for a, b in zip(pv.components, v.components):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * b.max_abs_coeff()


def test_leray_annihilates_gradients(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    g = gradient(f)
    killed = leray_project(VectorField(g.components))
    scale = max(c.max_abs_coeff() for c in g.components)
    assert max(c.max_abs_coeff() for c in killed.components) <= 1e-13 * scale


def test_leray_output_divergence_free_and_idempotent(grid16, rng):
    v = VectorField.from_samples(
        grid16, tuple(rng.standard_normal((16,) * 3) for _ in range(3))
    )
    pv = leray_project(v)
    scale = max(c.max_abs_coeff() for c in pv.components) * float(grid16.xi_abs.max())
    assert pv.divergence_defect() <= 1e-12 * scale
    ppv = leray_project(pv)
    for a, b in zip(ppv.components, pv.components):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * max(
            b.max_abs_coeff(), 1e-300
        )
    assert pv.check_div_free()


def test_left_sum_adds_in_order_without_compensation():
    # compensated summation (the builtin sum from Python 3.12) gives 1.0 here
    assert _left_sum([1e16, 1.0, -1e16]) == 0.0
    assert _left_sum(v for v in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
    assert _left_sum([]) == 0.0 and type(_left_sum([])) is float  # reports write 0.0, not 0
    assert math.copysign(1.0, _left_sum([-0.0])) == math.copysign(1.0, sum([-0.0])) == 1.0
