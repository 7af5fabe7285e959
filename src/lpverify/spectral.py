"""Discrete torus geometry, Fourier transforms, and multiplier calculus.

Fields live on the wavenumber lattice of the periodic box [0, L)^3 sampled
at n points per axis.  The transform pair uses the symmetric (2*pi)^(-3/2)
convention, so

    coeffs(xi) = (2*pi)^(-3/2) * (L/n)^3 * sum_x exp(-i x.xi) f(x)

and physical/spectral quadratures use the cell volumes (L/n)^3 and
(2*pi/L)^3 respectively.  With these weights the discrete Plancherel
identity holds to rounding, so every L^2 pairing may be evaluated on
either side of the transform.

All operations are pure: fields are treated as immutable after
construction and every operator returns a new field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

from .errors import FieldError, GridError

TWO_PI = 2.0 * math.pi
#: symmetric Fourier normalisation constant (2*pi)^(3/2)
FOURIER_NORM = TWO_PI ** 1.5

_fft_workers = 1


def set_fft_workers(workers: int) -> None:
    """Cap the number of threads scipy's FFT may use."""
    global _fft_workers
    _fft_workers = max(1, int(workers))


def fft_workers() -> int:
    return _fft_workers


class TorusGrid:
    """Uniform n^3 sampling of the periodic box [0, L)^3.

    The integer mode lattice is {-n/2, ..., n/2 - 1}^3 in FFT-standard
    order; physical wavenumbers are xi = (2*pi/L) * m.
    """

    def __init__(self, n: int, box_length: float = TWO_PI):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {n}")
        if not (box_length > 0 and math.isfinite(box_length)):
            raise GridError(f"box_length must be positive and finite, got {box_length}")
        self.n = n
        self.box_length = float(box_length)
        self._mult_cache: dict = {}
        self._mult_cache_bytes = 0

    # -- lattice geometry ---------------------------------------------------

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        """Physical quadrature weight (L/n)^3."""
        return self.dx ** 3

    @property
    def xi_min(self) -> float:
        """Lowest nonzero wavenumber magnitude 2*pi/L."""
        return TWO_PI / self.box_length

    @property
    def spectral_cell(self) -> float:
        """Spectral quadrature weight (2*pi/L)^3."""
        return self.xi_min ** 3

    @property
    def nyquist(self) -> float:
        """Along-axis resolution limit pi*n/L."""
        return self.xi_min * (self.n // 2)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer modes per axis in FFT order, shape (n,)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def mode_cubes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.modes
        return tuple(np.meshgrid(m, m, m, indexing="ij"))  # type: ignore[return-value]

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the full lattice (float64 cube)."""
        m = self.modes.astype(np.float64) * self.xi_min
        m2 = m * m
        return m2[:, None, None] + m2[None, :, None] + m2[None, None, :]

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    def xi_component(self, axis: int) -> np.ndarray:
        """xi_axis broadcast to the lattice cube."""
        m = self.modes.astype(np.float64) * self.xi_min
        shape = [1, 1, 1]
        shape[axis] = self.n
        return m.reshape(shape)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.arange(self.n) * self.dx
        return tuple(np.meshgrid(x, x, x, indexing="ij"))  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusGrid)
            and other.n == self.n
            and other.box_length == self.box_length
        )

    def __hash__(self) -> int:
        return hash((self.n, self.box_length))

    def __repr__(self) -> str:
        return f"TorusGrid(n={self.n}, box_length={self.box_length!r})"


_PAD_GRIDS: dict[tuple[int, float], TorusGrid] = {}


def padded_grid(grid: TorusGrid, factor: int = 2) -> TorusGrid:
    """The factor-refined grid used for de-aliased products."""
    key = (grid.n * factor, grid.box_length)
    g = _PAD_GRIDS.get(key)
    if g is None:
        g = _PAD_GRIDS.setdefault(key, TorusGrid(grid.n * factor, grid.box_length))
    return g


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a scalar field on a TorusGrid.

    Flags record structural facts used by downstream checks: real-valued
    fields carry exact Hermitian symmetry, mean-zero fields a vanishing
    zero mode.  Immutable by convention; operators return new instances.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    real_valued: bool = True
    mean_zero: bool = True

    def __post_init__(self):
        n = self.grid.n
        if self.coeffs.shape != (n, n, n):
            raise FieldError(
                f"coefficient shape {self.coeffs.shape} does not match grid n={n}"
            )
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: TorusGrid, **flags) -> "SpectralField":
        return cls(grid, np.zeros((grid.n,) * 3, dtype=np.complex128), **flags)

    # -- basic algebra (spectral side) --------------------------------------

    def with_coeffs(self, coeffs: np.ndarray, **flags) -> "SpectralField":
        kw = dict(real_valued=self.real_valued, mean_zero=self.mean_zero)
        kw.update(flags)
        return SpectralField(self.grid, coeffs, **kw)

    def apply_multiplier(self, mult: np.ndarray) -> "SpectralField":
        """Coefficient-wise multiply by a real radial symbol (keeps symmetry)."""
        return self.with_coeffs(self.coeffs * mult)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(
            self.grid,
            self.coeffs + other.coeffs,
            real_valued=self.real_valued and other.real_valued,
            mean_zero=self.mean_zero and other.mean_zero,
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(
            self.grid,
            self.coeffs - other.coeffs,
            real_valued=self.real_valued and other.real_valued,
            mean_zero=self.mean_zero and other.mean_zero,
        )

    def __mul__(self, scalar: float) -> "SpectralField":
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    # -- physical side -------------------------------------------------------

    def samples(self) -> np.ndarray:
        """Inverse transform to the physical sampling grid."""
        return transform_inverse(self)

    # -- diagnostics ---------------------------------------------------------

    def l2(self) -> float:
        """L^2 norm via the spectral quadrature."""
        c = self.coeffs
        return math.sqrt(float(np.vdot(c, c).real) * self.grid.spectral_cell)

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    @cached_property
    def band_axis(self) -> int:
        """Largest axis |mode| carrying a nonzero coefficient (0 for the zero field)."""
        nz = self.coeffs != 0
        if not nz.any():
            return 0
        m = np.abs(self.grid.modes)
        out = 0
        for axis in range(3):
            proj = nz.any(axis=tuple(a for a in range(3) if a != axis))
            out = max(out, int(m[proj].max()))
        return out

    def band_radius(self) -> float:
        """Largest |xi| carrying a nonzero coefficient."""
        nz = self.coeffs != 0
        if not nz.any():
            return 0.0
        return float(self.grid.xi_abs[nz].max())

    def hermitian_defect(self) -> float:
        """max |coeffs(-xi) - conj(coeffs(xi))| over the lattice."""
        c = self.coeffs
        rev = c[_reflect_index(self.grid.n)][:, _reflect_index(self.grid.n)][
            :, :, _reflect_index(self.grid.n)
        ]
        return float(np.max(np.abs(rev - np.conj(c))))


def _reflect_index(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridError("fields live on different grids")


@dataclass(frozen=True)
class VectorField:
    """Three scalar spectral fields sharing one grid, plus a div-free certificate."""

    components: tuple[SpectralField, SpectralField, SpectralField]
    div_free: bool = False

    def __post_init__(self):
        g = self.components[0].grid
        if any(c.grid != g for c in self.components[1:]):
            raise GridError("vector components live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    @classmethod
    def zeros(cls, grid: TorusGrid, **flags) -> "VectorField":
        z = SpectralField.zeros(grid, **flags)
        return cls((z, z, z), div_free=True)

    @classmethod
    def from_samples(
        cls, grid: TorusGrid, samples: tuple[np.ndarray, np.ndarray, np.ndarray], **kw
    ) -> "VectorField":
        comps = tuple(transform_forward(grid, s) for s in samples)
        return cls(comps, **kw)  # type: ignore[arg-type]

    def map(self, fn) -> "VectorField":
        return VectorField(tuple(fn(c) for c in self.components), div_free=self.div_free)  # type: ignore[arg-type]

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            tuple(a + b for a, b in zip(self.components, other.components)),  # type: ignore[arg-type]
            div_free=self.div_free and other.div_free,
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            tuple(a - b for a, b in zip(self.components, other.components)),  # type: ignore[arg-type]
            div_free=self.div_free and other.div_free,
        )

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(tuple(c * scalar for c in self.components), div_free=self.div_free)  # type: ignore[arg-type]

    __rmul__ = __mul__

    def l2(self) -> float:
        return math.sqrt(sum(c.l2() ** 2 for c in self.components))

    def band_axis(self) -> int:
        return max(c.band_axis for c in self.components)

    def divergence_defect(self) -> float:
        """max |xi . u_hat(xi)| over the lattice."""
        g = self.grid
        acc = np.zeros((g.n,) * 3, dtype=np.complex128)
        for axis, c in enumerate(self.components):
            acc += g.xi_component(axis) * c.coeffs
        return float(np.max(np.abs(acc)))

    def check_div_free(self, rtol: float = 1e-12) -> bool:
        scale = max(c.max_abs_coeff() for c in self.components) * float(
            self.grid.xi_abs.max()
        )
        defect = self.divergence_defect()
        return defect <= rtol * scale or defect == 0.0

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(c.samples() for c in self.components)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# transforms


def transform_forward(grid: TorusGrid, samples: np.ndarray) -> SpectralField:
    """Physical samples -> spectral coefficients (symmetric convention).

    Real input is transformed through the half-spectrum and mirrored so the
    stored coefficients are Hermitian-symmetric bit-exactly.
    """
    samples = np.asarray(samples)
    n = grid.n
    if samples.shape != (n, n, n):
        raise FieldError(f"sample shape {samples.shape} does not match grid n={n}")
    if not np.isfinite(samples).all():
        raise FieldError("samples contain non-finite values")
    scale = grid.cell_volume / FOURIER_NORM
    if np.isrealobj(samples):
        half = _fft.rfftn(samples, workers=_fft_workers)
        coeffs = _mirror_half_spectrum(half, n) * scale
        mean_zero = coeffs[0, 0, 0] == 0
        return SpectralField(grid, coeffs, real_valued=True, mean_zero=bool(mean_zero))
    coeffs = _fft.fftn(samples, workers=_fft_workers) * scale
    return SpectralField(
        grid, coeffs, real_valued=False, mean_zero=bool(coeffs[0, 0, 0] == 0)
    )


def transform_inverse(u: SpectralField) -> np.ndarray:
    """Spectral coefficients -> physical samples."""
    g = u.grid
    scale = FOURIER_NORM / g.cell_volume
    if u.real_valued:
        half = u.coeffs[:, :, : g.n // 2 + 1] * scale
        return _fft.irfftn(half, s=(g.n,) * 3, workers=_fft_workers)
    return _fft.ifftn(u.coeffs * scale, workers=_fft_workers)


def _mirror_half_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Expand an rfftn half-spectrum to the full Hermitian cube.

    The kz = 0 and kz = n/2 planes are self-conjugate; averaging them with
    their reflections makes the stored symmetry bit-exact.
    """
    half = np.array(half, dtype=np.complex128)
    rev = _reflect_index(n)
    for kz in (0, n // 2):
        plane = half[:, :, kz]
        half[:, :, kz] = 0.5 * (plane + np.conj(plane[rev][:, rev]))
    full = np.empty((n, n, n), dtype=np.complex128)
    full[:, :, : n // 2 + 1] = half
    # remaining planes kz = n/2+1 .. n-1 carry conj at reflected indices
    src = np.conj(half[:, :, 1 : n // 2][rev][:, rev])
    full[:, :, n // 2 + 1 :] = src[:, :, ::-1]
    return full


# ---------------------------------------------------------------------------
# multiplier operators


def fractional_laplacian(u: SpectralField, s: float) -> SpectralField:
    """(-Delta)^s via the symbol |xi|^(2s); the zero mode is annihilated."""
    if not (0.0 < s <= 2.0):
        raise FieldError(f"fractional exponent s must lie in (0, 2], got {s}")
    return _apply_xi_power(u, 2.0 * s)


def inverse_fractional_laplacian(u: SpectralField, s: float) -> SpectralField:
    """(-Delta)^(-s) on mean-zero fields (zero mode stays zero)."""
    if not (0.0 < s <= 2.0):
        raise FieldError(f"fractional exponent s must lie in (0, 2], got {s}")
    return _apply_xi_power(u, -2.0 * s)


def _apply_xi_power(u: SpectralField, power: float) -> SpectralField:
    g = u.grid
    with np.errstate(divide="ignore"):
        mult = g.xi_sq ** (power / 2.0)
    mult[0, 0, 0] = 0.0
    out = u.coeffs * mult
    out[0, 0, 0] = 0.0
    return u.with_coeffs(out, mean_zero=True)


def gradient(u: SpectralField) -> VectorField:
    """Spectral gradient: component j is i*xi_j * u_hat.

    Plain symbol multiplication, so divergence(gradient(f)) matches
    -(-Delta)f coefficient-exactly.  If the field carries energy on the
    unpaired Nyquist planes the odd symbol breaks Hermitian symmetry
    there, and the result is flagged complex.
    """
    g = u.grid
    real = u.real_valued and u.band_axis < g.n // 2
    comps = []
    for axis in range(3):
        c = u.coeffs * (1j * g.xi_component(axis))
        comps.append(SpectralField(g, c, real_valued=real, mean_zero=True))
    return VectorField(tuple(comps))  # type: ignore[arg-type]


def divergence(u: VectorField) -> SpectralField:
    g = u.grid
    acc = np.zeros((g.n,) * 3, dtype=np.complex128)
    for axis, c in enumerate(u.components):
        acc += c.coeffs * (1j * g.xi_component(axis))
    real = all(c.real_valued and c.band_axis < g.n // 2 for c in u.components)
    return SpectralField(g, acc, real_valued=real, mean_zero=True)


def leray_project(u: VectorField) -> VectorField:
    """Remove the gradient part: u_hat -> u_hat - xi (xi . u_hat)/|xi|^2."""
    g = u.grid
    dot = np.zeros((g.n,) * 3, dtype=np.complex128)
    for axis, c in enumerate(u.components):
        dot += g.xi_component(axis) * c.coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        dot = np.where(g.xi_sq > 0, dot / g.xi_sq, 0.0)
    comps = []
    for axis, c in enumerate(u.components):
        out = c.coeffs - g.xi_component(axis) * dot
        out[0, 0, 0] = 0.0
        comps.append(SpectralField(g, out, real_valued=c.real_valued, mean_zero=True))
    return VectorField(tuple(comps), div_free=True)  # type: ignore[arg-type]
