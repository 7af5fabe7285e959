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

Every field carries its support: the ascending flat indices of its
nonzero coefficients, the exact set and never a superset.  Constructors
that know it pass it in (generated bands, filters, sums, gradients,
products from a coarser grid); any other field (a forward transform, a
snapshot) scans its cube when the support is first asked for.

Storage follows one rule.  A field built on a known support of at most
1/8 of the cube (``_SPARSE``) holds only that support and its values;
every other field holds its n^3 complex cube.  ``coeffs`` is the cube
either way: a field stored on its support builds it on first read (a
snapshot, a test) and keeps it.  Every coefficient kernel (filters, sums,
gradients, the Leray projection, the pressure, fractional powers, maxima,
band radii, block norms, Sobolev weights, the L^2 norm and pairings)
reads and writes only the ``active`` indices, or the union of its
operands' ``active`` sets: a known support covering at most 1/8 of the
cube, else the whole cube.  A real field's inverse transform places only
the box |mx|, |my| <= B, 0 <= kz <= B of its half spectrum, B its axis
bandwidth, scattered from a small support or sliced from a cube, and runs
each FFT pass only on the lines that box reaches; the samples equal
``irfftn``'s bit for bit.  Products and maxima are exact, so they equal
the full-cube evaluation bit for bit.  A sum runs over the ``active`` set
in ascending flat order, so over a small support it adds only the nonzero
terms and differs from a full-cube sum at rounding level.  Every sum of
squares and every pairing goes through ``_re_dot``, which calls no BLAS
routine, so its bits do not depend on how many threads BLAS may use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.fft as _fft

from .errors import FieldError, GridError

TWO_PI = 2.0 * math.pi
#: symmetric Fourier normalisation constant (2*pi)^(3/2)
FOURIER_NORM = TWO_PI ** 1.5

_fft_workers = 1


def set_fft_workers(workers: int) -> int:
    """Cap the number of threads scipy's FFT may use; returns the previous cap."""
    global _fft_workers
    previous, _fft_workers = _fft_workers, max(1, int(workers))
    return previous


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


# ---------------------------------------------------------------------------


class SpectralField:
    """Complex Fourier coefficients of a scalar field on a TorusGrid.

    Flags record structural facts used by downstream checks: real-valued
    fields carry exact Hermitian symmetry, mean-zero fields a vanishing
    zero mode.  Immutable by convention; operators return new instances.

    A field holds its n^3 cube, or, when built on a support of at most
    1/_SPARSE of the cube, only that support and its values; ``coeffs``
    then builds the cube on first read and keeps it.
    """

    #: the values at ``support`` of a field stored on its support, else None
    _values: np.ndarray | None = None

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, real_valued: bool = True, mean_zero: bool = True):
        n = grid.n
        if coeffs.shape != (n, n, n):
            raise FieldError(f"coefficient shape {coeffs.shape} does not match grid n={n}")
        self.grid, self.real_valued, self.mean_zero = grid, real_valued, mean_zero
        self.coeffs = coeffs.astype(np.complex128, copy=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: TorusGrid, **flags) -> "SpectralField":
        return cls.on_support(grid, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128), **flags)

    @classmethod
    def on_support(
        cls, grid: TorusGrid, at, values: np.ndarray, real_valued: bool = True, mean_zero: bool = True
    ) -> "SpectralField":
        """The field with ``values`` at the flat indices ``at`` and zeros elsewhere.

        ``at`` is an ascending index array, whose entries with a zero value
        leave the support, or ``slice(None)``: then ``values`` is the whole
        flattened cube and the support is left to be scanned on first use.
        """
        if isinstance(at, slice):
            return cls(grid, values.reshape((grid.n,) * 3), real_valued, mean_zero)
        keep = values != 0
        if not keep.all():
            at, values = at[keep], values[keep]
        if at.size * _SPARSE > grid.n**3:
            u = cls(grid, _scatter(grid, at, values), real_valued, mean_zero)
        else:
            u = cls.__new__(cls)
            u.grid, u.real_valued, u.mean_zero = grid, real_valued, mean_zero
            u._values = values.astype(np.complex128, copy=False)
        u.support = at
        return u

    # -- storage ---------------------------------------------------------------

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The n^3 coefficient cube; a field stored on its support builds it here, once."""
        return _scatter(self.grid, self.support, self._values)

    @cached_property
    def support(self) -> np.ndarray:
        """Ascending flat indices of the nonzero coefficients (the exact set)."""
        return _scan_support(self.coeffs)

    @property
    def active(self):
        """The flat indices the coefficient kernels visit.

        This is the support when it is known and covers at most 1/8 of the
        cube.  Otherwise it is ``slice(None)``, every index: gathering and
        scattering a support that large costs more than the whole cube, and
        a field built from a cube (a transform, cube arithmetic) is not
        scanned just to find that out.
        """
        sup = self.__dict__.get("support")
        if sup is None or sup.size * _SPARSE > self.grid.n**3:
            return slice(None)
        return sup

    @property
    def values(self) -> np.ndarray:
        """The coefficients at ``active``, in its order."""
        if self._values is not None:
            return self._values
        return _take(self.coeffs, self.active)

    @property
    def nbytes(self) -> int:
        """Bytes of coefficient data held: the cube once built, the support once
        known, and the values of a field stored on its support."""
        held = (self.__dict__.get("coeffs"), self.__dict__.get("support"), self._values)
        return sum(a.nbytes for a in held if a is not None)

    def _at(self, at) -> np.ndarray:
        """The coefficients at an ascending index set ``at``, in its order;
        for ``slice(None)``, the flattened cube.  A field stored on its
        support reads its values there and keeps no cube."""
        if self._values is None:
            return _take(self.coeffs, at)
        if at is self.support:
            return self._values
        if isinstance(at, slice):
            return _scatter(self.grid, self.support, self._values).reshape(-1)
        out = np.zeros(at.size, dtype=np.complex128)
        sup = self.support
        if sup.size:
            pos = np.minimum(np.searchsorted(sup, at), sup.size - 1)
            hit = sup[pos] == at
            out[hit] = self._values[pos[hit]]
        return out

    # -- basic algebra (spectral side) --------------------------------------

    def with_values(self, values: np.ndarray, **flags) -> "SpectralField":
        """``values`` at ``active``, zeros elsewhere; this field's flags but ``flags``."""
        kw = {"real_valued": self.real_valued, "mean_zero": self.mean_zero, **flags}
        return SpectralField.on_support(self.grid, self.active, values, **kw)

    def apply_multiplier(self, mult: np.ndarray) -> "SpectralField":
        """Multiply by a real symbol given at ``active`` (keeps symmetry)."""
        return self.with_values(self.values * mult)

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        _check_same_grid(self, other)
        at, (a, b) = _gather([self, other])
        real, mean_zero = self.real_valued and other.real_valued, self.mean_zero and other.mean_zero
        return SpectralField.on_support(self.grid, at, op(a, b), real_valued=real, mean_zero=mean_zero)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__

    # -- physical side -------------------------------------------------------

    def samples(self) -> np.ndarray:
        """Inverse transform to the physical sampling grid."""
        return transform_inverse(self)

    # -- diagnostics ---------------------------------------------------------

    def l2(self) -> float:
        """L^2 norm via the spectral quadrature, summed over ``active``."""
        return math.sqrt(_re_dot(self.values, self.values) * self.grid.spectral_cell)

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    @cached_property
    def band_axis(self) -> int:
        """Largest axis |mode| carrying a nonzero coefficient (0 for the zero field)."""
        m = np.abs(self.grid.modes)
        at = self.active
        if isinstance(at, slice):  # project the nonzero mask on each axis
            nz = self.coeffs != 0
            per_axis = [m[nz.any(axis=tuple(b for b in range(3) if b != a))] for a in range(3)]
        else:
            per_axis = [m[i] for i in np.unravel_index(at, (self.grid.n,) * 3)]
        return max((int(p.max()) for p in per_axis if p.size), default=0)

    def nonzero_radii(self) -> np.ndarray:
        """|xi| at each nonzero coefficient, in ascending flat order."""
        return _take(self.grid.xi_abs, self.active)[self.values != 0]

    def band_radius(self) -> float:
        """Largest |xi| carrying a nonzero coefficient."""
        return float(np.max(self.nonzero_radii(), initial=0.0))

    def hermitian_defect(self) -> float:
        """max |coeffs(-xi) - conj(coeffs(xi))| over the lattice."""
        c = self.coeffs
        rev = c[_reflect_index(self.grid.n)][:, _reflect_index(self.grid.n)][
            :, :, _reflect_index(self.grid.n)
        ]
        return float(np.max(np.abs(rev - np.conj(c))))


#: a known support is visited index by index while it covers at most
#: 1/_SPARSE of the cube.  Measured at n = 32 and 64 (one thread): a
#: filter, a block norm or a maximum on the support beats the cube up to
#: 1/8 at n=64 and is within a few microseconds of it at n=32; a sum of
#: two fields wins only up to about 1/16 (``_union``).
_SPARSE = 8


def _scan_support(coeffs: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the nonzero entries: a scan of the whole array."""
    return np.flatnonzero(coeffs)


def _take(cube: np.ndarray, at) -> np.ndarray:
    """The entries of a lattice cube at the flat indices ``at`` (a flat view
    of the whole cube for ``slice(None)``)."""
    return cube.reshape(-1)[at]


def _scatter(grid: TorusGrid, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The complex n^3 cube holding ``values`` at the flat indices ``at`` and zeros elsewhere."""
    cube = np.zeros((grid.n,) * 3, dtype=np.complex128)
    cube.reshape(-1)[at] = values
    return cube


def _re_dot(a: np.ndarray, b: np.ndarray, weight=1.0) -> float:
    """Sum of weight * Re(a conj b) = weight * (a.re b.re + a.im b.im) in array
    order, by numpy alone: a BLAS dot would split the sum by its thread count."""
    return float(np.sum(weight * (a.real * b.real + a.imag * b.imag)))


def _left_sum(values) -> float:
    """``sum(values)`` added left to right, as Python 3.11 adds floats; from
    3.12 the builtin compensates.  An empty sum is 0.0, not ``sum``'s int 0."""
    total = 0.0
    for v in values:
        total += v
    return total


def _union(a, b, size: int):
    """The union of two ``active`` index sets of a cube of ``size`` entries,
    ascending; the whole cube once the two hold more than 1/(2 _SPARSE) of
    it, where merging them and gathering both operands costs more than
    adding the cubes."""
    if isinstance(a, slice) or isinstance(b, slice) or (a.size + b.size) * 2 * _SPARSE > size:
        return slice(None)
    if not a.size:
        return b
    if not b.size:
        return a
    both = np.concatenate((a, b))
    both.sort(kind="stable")  # a merge of the two ascending runs
    keep = np.empty(both.size, dtype=bool)
    keep[0] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def _common_axis(src: TorusGrid, dst: TorusGrid) -> tuple[slice, slice]:
    """Axis slices holding the modes 0..h and -h..-1, h = min(n_src, n_dst)/2 - 1.

    They index m % n on either grid, so one slice pair serves both sides.
    """
    if dst.box_length != src.box_length:
        raise GridError("grids cover different boxes")
    h = min(src.n, dst.n) // 2 - 1
    return slice(0, h + 1), slice(-h, None)


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
        return math.sqrt(_left_sum(c.l2() ** 2 for c in self.components))

    def band_axis(self) -> int:
        return max(c.band_axis for c in self.components)

    def divergence_defect(self) -> float:
        """max |xi . u_hat(xi)| over the lattice."""
        return divergence(self).max_abs_coeff()

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

    Real input is transformed through the half spectrum, whose kz = 0 and
    kz = n/2 planes are averaged with their reflections; the planes
    kz > n/2 are their conjugates, written through reversed-stride views.
    So the stored coefficients are Hermitian-symmetric bit-exactly.
    """
    samples = np.asarray(samples)
    n = grid.n
    if samples.shape != (n, n, n):
        raise FieldError(f"sample shape {samples.shape} does not match grid n={n}")
    if not np.isfinite(samples).all():
        raise FieldError("samples contain non-finite values")
    scale = grid.cell_volume / FOURIER_NORM
    if np.isrealobj(samples):
        h = n // 2
        coeffs = np.empty((n, n, n), dtype=np.complex128)
        coeffs[:, :, : h + 1] = _fft.rfftn(samples, workers=_fft_workers)
        for kz in (0, h):  # the self-conjugate planes
            plane = coeffs[:, :, kz]
            mirror = np.empty_like(plane)
            _conj_reflect(plane, mirror)
            plane[...] = 0.5 * (plane + mirror)
        _conj_reflect(coeffs[:, :, h - 1 : 0 : -1], coeffs[:, :, h + 1 :])
        coeffs *= scale
        return SpectralField(grid, coeffs, real_valued=True, mean_zero=bool(coeffs[0, 0, 0] == 0))
    coeffs = _fft.fftn(samples, workers=_fft_workers) * scale
    return SpectralField(
        grid, coeffs, real_valued=False, mean_zero=bool(coeffs[0, 0, 0] == 0)
    )


def _conj_reflect(src: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = conj(src[-i, -j]), indices mod n on the first two axes:
    four reversed-stride views, no gather."""
    parts = ((slice(0, 1),) * 2, (slice(1, None), slice(None, 0, -1)))  # (out, src): 0 <- 0, i <- n - i
    for (oi, si), (oj, sj) in itertools.product(parts, repeat=2):
        np.conjugate(src[si, sj], out=out[oi, oj])


def transform_inverse(u: SpectralField) -> np.ndarray:
    """Spectral coefficients -> physical samples.

    A real field goes through ``_inverse_real``, which transforms only the
    box of the half spectrum its band reaches; a complex one through
    ``ifftn`` of its cube.
    """
    if u.real_valued:
        return _inverse_real(u, u.grid)
    n = u.grid.n
    cube = u._at(slice(None)).reshape((n,) * 3)
    return _fft.ifftn(cube * (FOURIER_NORM / u.grid.cell_volume), workers=_fft_workers)


def _inverse_real(u: SpectralField, dst: TorusGrid) -> np.ndarray:
    """Samples of the real field u on ``dst`` (u's grid, or one of the same
    box that u's band fits), equal bit for bit to ``irfftn`` of the scaled
    kz >= 0 half cube.

    Only the box |mx|, |my| <= B, 0 <= kz <= B of the half cube is nonzero,
    B = u's axis bandwidth.  It is scattered from a small support, or sliced
    from the cube, into a zeroed half cube.  Then ``ifft`` runs along axis 0
    on the box's lines, along axis 1 on the kz <= B slab, and ``irfft``
    along axis 2: the passes of ``irfftn``, in its order, on the lines
    where they can meet a nonzero (Markel's FFT pruning).  The two ``ifft``
    passes do not scale, and ``irfft`` scales by 1/n where ``irfftn``
    scales by 1/n^3; 1/n^2 is a power of two, so it folds into the input's
    scale exactly.  When 2B + 1 >= n (a field on its Nyquist planes) the
    box is the whole half cube, for ``irfftn``.
    """
    g, n = u.grid, dst.n
    h = n // 2
    b = min(u.band_axis, h)
    whole = 2 * b + 1 >= n
    d = h + 1 if whole else b + 1  # the box's kz planes
    scale = FOURIER_NORM / dst.cell_volume
    if not whole:
        scale /= n * n
    at = u.active
    half = np.zeros((n, n, h + 1), dtype=np.complex128)
    if isinstance(at, slice):  # the four blocks of modes 0..b and -b..-1 on axes 0 and 1
        blocks = ((slice(0, b + 1), slice(0, b + 1)), (slice(n - b, n), slice(g.n - b, g.n)))
        for (dx, sx), (dy, sy) in itertools.product(blocks, repeat=2):
            np.multiply(u.coeffs[sx, sy, :d], scale, out=half[dx, dy, :d])
    else:
        lift = g.modes % n  # an axis index on u's grid -> its mode's index on dst
        ix, iy, iz = (lift[i] for i in np.unravel_index(at, (g.n,) * 3))
        keep = iz < d
        half.reshape(-1)[(ix[keep] * n + iy[keep]) * (h + 1) + iz[keep]] = u.values[keep] * scale
    if whole:
        return _fft.irfftn(half, s=(n,) * 3, workers=_fft_workers)
    for ys in (slice(0, b + 1), slice(n - b, n))[: 1 + (b > 0)]:
        _ifft_unscaled(half[:, ys, :d], 0)
    _ifft_unscaled(half[:, :, :d], 1)
    return _fft.irfft(half, n=n, axis=2, workers=_fft_workers)


def _ifft_unscaled(a: np.ndarray, axis: int) -> None:
    """Overwrite the view ``a`` with its unscaled inverse FFT along ``axis``."""
    out = _fft.ifft(a, axis=axis, norm="forward", overwrite_x=True, workers=_fft_workers)
    if not np.may_share_memory(out, a):  # scipy may return a copy rather than overwrite
        a[...] = out


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


def _xi_power(grid: TorusGrid, power: float, at) -> np.ndarray:
    """The symbol |xi|^power at the flat indices ``at`` (ascending, or
    ``slice(None)`` for the flattened cube), with the zero mode set to 0."""
    xi_sq = _take(grid.xi_sq, at)
    with np.errstate(divide="ignore"):
        w = xi_sq ** (power / 2.0)
    if w.size and (not isinstance(at, np.ndarray) or at[0] == 0):
        w.flat[0] = 0.0
    return w


def _apply_xi_power(u: SpectralField, power: float) -> SpectralField:
    return u.with_values(u.values * _xi_power(u.grid, power, u.active), mean_zero=True)


def _xi_at(grid: TorusGrid, at) -> list[np.ndarray]:
    """xi_j for j = 0, 1, 2 at the flat indices ``at``; for ``slice(None)``,
    broadcast to the cube (the shape of ``_gather``'s cubes)."""
    xi = [grid.xi_component(axis) for axis in range(3)]
    if isinstance(at, slice):
        return xi
    return [x.reshape(-1)[i] for x, i in zip(xi, np.unravel_index(at, (grid.n,) * 3))]


def _gather(fields) -> tuple:
    """The union ``at`` of the fields' ``active`` sets, and each field's
    coefficients there: 1-D arrays, or n^3 cubes when ``at`` is the whole
    cube."""
    n = fields[0].grid.n
    at = reduce(lambda a, b: _union(a, b, n**3), (f.active for f in fields))
    shape = (n,) * 3 if isinstance(at, slice) else at.shape
    return at, [f._at(at).reshape(shape) for f in fields]


def gradient(u: SpectralField) -> VectorField:
    """Spectral gradient: component j is i*xi_j * u_hat.

    Plain symbol multiplication, so divergence(gradient(f)) matches
    -(-Delta)f coefficient-exactly.  If the field carries energy on the
    unpaired Nyquist planes the odd symbol breaks Hermitian symmetry
    there, and the result is flagged complex.  A known small support is
    kept: each component is the nonzero part of it.
    """
    g = u.grid
    real = u.real_valued and u.band_axis < g.n // 2
    at, (vals,) = _gather([u])
    comps = (SpectralField.on_support(g, at, vals * (1j * x), real_valued=real, mean_zero=True)
             for x in _xi_at(g, at))
    return VectorField(tuple(comps))  # type: ignore[arg-type]


def divergence(u: VectorField) -> SpectralField:
    """sum_j i*xi_j * u_j_hat, on the union of the components' known small
    supports when it is small too, else on the cube."""
    g = u.grid
    at, vals = _gather(u.components)
    acc = sum(v * (1j * x) for v, x in zip(vals, _xi_at(g, at)))
    real = all(c.real_valued and c.band_axis < g.n // 2 for c in u.components)
    return SpectralField.on_support(g, at, acc, real_valued=real, mean_zero=True)


def leray_project(u: VectorField) -> VectorField:
    """Remove the gradient part: u_hat -> u_hat - xi (xi . u_hat)/|xi|^2,
    on the union of the components' ``active`` sets."""
    g = u.grid
    at, vals = _gather(u.components)
    xi_sq = _take(g.xi_sq, at).reshape(vals[0].shape)
    comps = (SpectralField.on_support(g, at, v, real_valued=c.real_valued, mean_zero=True)
             for c, v in zip(u.components, _leray_modes(vals, _xi_at(g, at), xi_sq)))
    return VectorField(tuple(comps), div_free=True)  # type: ignore[arg-type]


def _leray_modes(coeffs: list, xi: list, xi_sq: np.ndarray) -> list:
    """The projection mode by mode (0 at xi = 0) on three coefficient arrays;
    ``xi`` and ``xi_sq`` broadcast to them (lattice cubes or a list of modes)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        dot = sum(x * c for x, c in zip(xi, coeffs)) / xi_sq
    return [np.where(xi_sq > 0, c - x * dot, 0.0) for x, c in zip(xi, coeffs)]
