"""Discrete cosine transforms for the four symmetric Chebyshev node families.

Nodes live on the half-circle: a grid is a set of equispaced angles
``theta`` in ``[0, pi]`` and the abscissae are ``x = cos(theta)``.  Four
distinct families exist for a given point count, distinguished by which of
the endpoints ``x = +1`` (``theta = 0``) and ``x = -1`` (``theta = pi``)
they contain:

================  ============================  ==========  ===========
family            theta_i                        endpoints   full circle
================  ============================  ==========  ===========
``TYPE_I``        ``pi * i / (n - 1)``           both        ``2(n-1)``
``TYPE_II``       ``pi * (2i + 1) / (2n)``       neither     ``2n``
``TYPE_V_MINUS``  ``pi * 2i / (2n - 1)``         ``+1``      ``2n - 1``
``TYPE_V_PLUS``   ``pi * (2i + 1) / (2n - 1)``   ``-1``      ``2n - 1``
================  ============================  ==========  ===========

"full circle" is the number of points the grid unfolds to on the whole
circle once reflected through ``theta = 0``; it is the quantity that
governs aliasing (modes ``k`` and ``k'`` coincide on the grid when
``k' = +-k mod N``).

Normalization: `dct_1d` returns coefficients ``c`` such that sampling
``cos(k * theta)`` on the grid yields exactly the unit vector ``e_k``, so
``f(theta_i) = sum_k c_k cos(k theta_i)`` always holds and `idct_1d` is an
exact inverse.  This "unit recovery" convention makes round trips and
unisolvency checks crisp; it differs from an orthonormal DCT by diagonal
factors only.

Types I and II are computed with :mod:`scipy.fft`; the type V transforms,
which common FFT packages do not provide, are computed by embedding the
reflected data in a complex FFT of length ``2n - 1``.  `GridDCT` is the
planned n-d operator (forward, inverse and adjoint of one tensor-product
grid, by dense matrix products on short axes); `dct_nd`, `idct_nd` and
`adjoint_dct_nd` are thin checked calls to it, and the transforms in
:mod:`cheblat.transform` hold one per sublattice.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft


class BoundaryType(enum.Enum):
    """Which endpoints of ``[-1, 1]`` a node family contains."""

    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_V_MINUS = "V-"
    TYPE_V_PLUS = "V+"

    @property
    def contains_plus_one(self) -> bool:
        return self in (BoundaryType.TYPE_I, BoundaryType.TYPE_V_MINUS)

    @property
    def contains_minus_one(self) -> bool:
        return self in (BoundaryType.TYPE_I, BoundaryType.TYPE_V_PLUS)


@dataclass(frozen=True)
class Grid1D:
    """A one-dimensional symmetric node set.

    Attributes
    ----------
    n : int
        Number of nodes.
    boundary : BoundaryType
        Node family.
    thetas : ndarray
        Angles in ``[0, pi]``, strictly increasing.
    xs : ndarray
        Abscissae ``cos(thetas)`` (strictly decreasing).
    """

    n: int
    boundary: BoundaryType
    thetas: np.ndarray
    xs: np.ndarray

    @property
    def circle_count(self) -> int:
        """Number of distinct points after unfolding to the full circle."""
        return circle_count(self.n, self.boundary)


def circle_count(n: int, boundary: BoundaryType) -> int:
    if boundary is BoundaryType.TYPE_I:
        return 2 * (n - 1)
    if boundary is BoundaryType.TYPE_II:
        return 2 * n
    return 2 * n - 1


def grid_spec_from_circle(N: int, half_shift: int) -> tuple[int, BoundaryType]:
    """Node count and family of the grid with ``N`` full-circle points.

    ``half_shift`` selects whether the grid contains ``theta = 0``
    (``0``) or is offset by half a spacing (``1``).
    """
    if N < 1 or half_shift not in (0, 1):
        raise ValueError(f"invalid grid spec N={N}, half_shift={half_shift}")
    if N % 2 == 0:
        if half_shift == 0:
            return N // 2 + 1, BoundaryType.TYPE_I
        return N // 2, BoundaryType.TYPE_II
    if half_shift == 0:
        return (N + 1) // 2, BoundaryType.TYPE_V_MINUS
    return (N + 1) // 2, BoundaryType.TYPE_V_PLUS


def nodes_1d(n: int, boundary: BoundaryType) -> Grid1D:
    """Build the ``n``-point node set of the given family.

    Angles are returned in increasing order, so ``xs`` runs from ``+1``
    (or just below) down to ``-1`` (or just above).

    Raises
    ------
    ValueError
        If ``n < 1``, or ``n < 2`` for ``TYPE_I``.
    """
    _check_axis_size(n, boundary)
    i = np.arange(n)
    if boundary is BoundaryType.TYPE_I:
        thetas = np.pi * i / (n - 1)
    elif boundary is BoundaryType.TYPE_II:
        thetas = np.pi * (2 * i + 1) / (2 * n)
    elif boundary is BoundaryType.TYPE_V_MINUS:
        thetas = np.pi * (2 * i) / (2 * n - 1)
    else:
        thetas = np.pi * (2 * i + 1) / (2 * n - 1)
    return Grid1D(n=n, boundary=boundary, thetas=thetas, xs=np.cos(thetas))


def _check_axis_size(n: int, boundary: BoundaryType) -> None:
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    if boundary is BoundaryType.TYPE_I and n < 2:
        raise ValueError("TYPE_I requires at least 2 nodes")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("input samples contain NaN or Inf")


def analysis_prefactor(n: int, boundary: BoundaryType) -> np.ndarray:
    """Diagonal factor ``a_k`` of the analysis transform.

    ``c_k = a_k * sum_i w_i f_i cos(k theta_i)`` with ``w_i = 1/2`` at
    ``theta in {0, pi}`` and 1 elsewhere.
    """
    a = np.empty(n)
    if boundary is BoundaryType.TYPE_I:
        a[:] = 2.0 / (n - 1)
        a[0] = 1.0 / (n - 1)
        a[-1] = 1.0 / (n - 1)  # top mode pairs with itself on the circle
    elif boundary is BoundaryType.TYPE_II:
        a[:] = 2.0 / n
        a[0] = 1.0 / n
    else:
        N = 2 * n - 1
        a[:] = 4.0 / N
        a[0] = 2.0 / N
    return a


def node_weights(n: int, boundary: BoundaryType) -> np.ndarray:
    """Trapezoidal node weights ``w_i`` (1/2 at ``theta in {0, pi}``)."""
    w = np.ones(n)
    if boundary is BoundaryType.TYPE_I:
        w[0] = 0.5
        w[-1] = 0.5
    elif boundary is BoundaryType.TYPE_V_MINUS:
        w[0] = 0.5
    elif boundary is BoundaryType.TYPE_V_PLUS:
        w[-1] = 0.5
    return w


def _halving(n: int, boundary: BoundaryType) -> np.ndarray:
    """Synthesis factor ``h``: 1/2 on every mode that appears twice on the circle.

    The analysis is ``a/2`` times the unscaled forward transform (DCT-I,
    DCT-II or the type V FFT), the synthesis is the unscaled backward
    transform (DCT-I, DCT-III or the inverse type V FFT) of ``h * c``, and
    the adjoint is ``w`` times the unscaled synthesis of ``a * h * u``, with
    ``a`` = `analysis_prefactor` and ``w`` = `node_weights`.
    """
    half = np.full(n, 0.5)
    half[0] = 1.0
    if boundary is BoundaryType.TYPE_I:
        half[-1] = 1.0
    return half


def _reflect_index(n: int, boundary: BoundaryType) -> np.ndarray:
    """Index map unfolding samples to the full circle (type V only)."""
    if boundary is BoundaryType.TYPE_V_MINUS:
        # angles 2*pi*j/N for j = 0..N-1; j >= n mirrors index N - j
        return np.concatenate([np.arange(n), np.arange(n - 1, 0, -1)])
    # V+: angles 2*pi*(j + 1/2)/N; j >= n mirrors index N - 1 - j
    return np.concatenate([np.arange(n), np.arange(n - 2, -1, -1)])


def _dct_v_axis(values: np.ndarray, boundary: BoundaryType, axis: int) -> np.ndarray:
    """Unscaled type V analysis: ``sum_j g_j cos(k theta_j)`` over the full circle."""
    n = values.shape[axis]
    g = np.take(values, _reflect_index(n, boundary), axis=axis)
    G = np.moveaxis(scipy.fft.fft(g, axis=axis), axis, -1)[..., :n]
    if boundary is BoundaryType.TYPE_V_PLUS:
        G = G * np.exp(-1j * np.pi * np.arange(n) / (2 * n - 1))
    return np.moveaxis(G.real, -1, axis)


def _idct_v_axis(halved: np.ndarray, boundary: BoundaryType, axis: int) -> np.ndarray:
    """Unscaled type V synthesis of coefficients already multiplied by ``h``."""
    n = halved.shape[axis]
    N = 2 * n - 1
    c = np.moveaxis(halved, axis, -1)
    S = np.empty(c.shape[:-1] + (N,), dtype=complex)
    S[..., :n] = c
    if boundary is BoundaryType.TYPE_V_MINUS:
        S[..., n:] = c[..., -1:0:-1]
    else:
        # raw index N - k carries -exp(-ik theta) on the half-offset grid
        S[..., n:] = -c[..., -1:0:-1]
        S *= np.exp(1j * np.pi * np.arange(N) / N)
    samples = scipy.fft.ifft(S, axis=-1, norm="forward")[..., :n].real
    return np.moveaxis(samples, -1, axis)


def _on_axis(apply, array: np.ndarray, boundary: BoundaryType, axis: int) -> np.ndarray:
    """``apply(op, array)`` along ``axis``, with ``op`` the 1-d `GridDCT` of ``boundary``."""
    array = np.moveaxis(array, axis, -1)
    return np.moveaxis(apply(GridDCT(array.shape[-1:], (boundary,)), array), -1, axis)


def dct_axis(values: np.ndarray, boundary: BoundaryType, axis: int = -1) -> np.ndarray:
    """Analysis transform along one axis of a sample array."""
    values = np.asarray(values, dtype=float)
    _check_finite(values)
    return _on_axis(GridDCT.forward, values, boundary, axis)


def idct_axis(coeffs: np.ndarray, boundary: BoundaryType, axis: int = -1) -> np.ndarray:
    """Synthesis transform along one axis: evaluate the cosine sum at the nodes."""
    return _on_axis(GridDCT.inverse, np.asarray(coeffs, dtype=float), boundary, axis)


def adjoint_dct_axis(functional: np.ndarray, boundary: BoundaryType, axis: int = -1) -> np.ndarray:
    """Transpose of `dct_axis` as a linear map (used for quadrature stencils).

    With ``A`` the analysis matrix, ``A = diag(a) C diag(w)`` where
    ``C[k, j] = cos(k theta_j)``, so ``A^T u = w * synth(a * u)``.
    """
    return _on_axis(GridDCT.adjoint, np.asarray(functional, dtype=float), boundary, axis)


def dct_1d(values: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """Coefficients ``c`` with ``f(theta_i) = sum_k c_k cos(k theta_i)``.

    Sampling ``cos(k theta)`` on the grid returns exactly ``e_k`` for
    every representable ``k`` (including the top type I mode).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("dct_1d expects a 1-d sample vector")
    return dct_axis(values, boundary, axis=0)


def idct_1d(coeffs: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """Exact inverse of `dct_1d`."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("idct_1d expects a 1-d coefficient vector")
    return idct_axis(coeffs, boundary, axis=0)


def dct_typeV(values: np.ndarray, variant: BoundaryType) -> np.ndarray:
    """Type V analysis transform via a reflected complex FFT of length 2n-1."""
    if variant not in (BoundaryType.TYPE_V_MINUS, BoundaryType.TYPE_V_PLUS):
        raise ValueError(f"variant must be a type V family, got {variant}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sample vector")
    return dct_axis(values, variant)


def idct_typeV(coeffs: np.ndarray, variant: BoundaryType) -> np.ndarray:
    """Synthesis inverse of `dct_typeV`."""
    if variant not in (BoundaryType.TYPE_V_MINUS, BoundaryType.TYPE_V_PLUS):
        raise ValueError(f"variant must be a type V family, got {variant}")
    return idct_axis(coeffs, variant)


# Axes up to this length are transformed by a dense matrix product, not an
# FFT, whose fixed cost per call and per line dominates on short axes.  The
# benchmark's transform rounds get faster as the cut rises, but the dense cost
# per point grows linearly in n: above 20 the n log n fit of the forward
# transform over bcc r=24..100 nears its bound, and from n = 23 an n^3 grid's
# n^4 product passes OpenBLAS's threading threshold (10x slower at n = 32).
_DENSE_MAX = 20


def _cosine_matrix(n: int, boundary: BoundaryType) -> np.ndarray:
    """``C[k, j] = cos(k theta_j)``, with the angle reduced exactly mod ``2 pi``.

    ``theta_j = pi p_j / q`` for integers ``p_j, q``, so ``k theta_j`` is
    reduced as the integer ``k p_j mod 2q`` before the cosine is taken.
    """
    j = np.arange(n)
    if boundary is BoundaryType.TYPE_I:
        p, q = 2 * j, 2 * (n - 1)
    elif boundary is BoundaryType.TYPE_II:
        p, q = 2 * j + 1, 2 * n
    elif boundary is BoundaryType.TYPE_V_MINUS:
        p, q = 2 * j, 2 * n - 1
    else:
        p, q = 2 * j + 1, 2 * n - 1
    return np.cos(np.pi * (np.outer(j, p) % (2 * q)) / q)


def _dense_axis(values: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` applied along the negative ``axis`` of ``values``, as one (batched) product."""
    shape = values.shape
    if axis == -1:
        return (values.reshape(-1, shape[-1]) @ matrix.T).reshape(shape)
    post = math.prod(shape[axis + 1:])
    return np.matmul(matrix, values.reshape(-1, shape[axis], post)).reshape(shape)


class GridDCT:
    """Planned separable transform of one tensor-product grid.

    ``forward``, ``inverse`` and ``adjoint`` compute `dct_nd`, `idct_nd`
    and `adjoint_dct_nd` over the last ``len(sizes)`` axes of their input,
    without their input checks; any leading axes are a batch.  Axes of
    length up to ``_DENSE_MAX`` are transformed by a dense matrix product
    with their scale factors folded in.  On longer axes, all type I axes go
    through one ``dctn`` call and all type II axes through another; type V
    axes are transformed one at a time.  The matrices and the diagonal
    scale tensors are built here, once, and are read-only, so one operator
    can serve any number of threads.
    """

    __slots__ = ("sizes", "boundaries", "_dense", "_dctn", "_type_v", "_scaled",
                 "_analysis_scale", "_synthesis_scale", "_adjoint_scale", "_weights")

    def __init__(self, sizes: tuple[int, ...], boundaries: tuple[BoundaryType, ...]):
        sizes = tuple(int(n) for n in sizes)
        boundaries = tuple(boundaries)
        if not sizes or len(sizes) != len(boundaries):
            raise ValueError(
                f"grid needs one boundary type per axis, got {len(sizes)} axes "
                f"and {len(boundaries)} boundary types"
            )
        for n, boundary in zip(sizes, boundaries):
            _check_axis_size(n, boundary)
        self.sizes = sizes
        self.boundaries = boundaries
        ndim = len(sizes)
        dense = tuple(n <= _DENSE_MAX for n in sizes)
        a = [analysis_prefactor(n, b) for n, b in zip(sizes, boundaries)]
        w = [node_weights(n, b) for n, b in zip(sizes, boundaries)]
        # (axis, analysis diag(a) C diag(w), synthesis C^T, adjoint: the
        # analysis matrix's transpose), all read-only; axes count from the end
        dense_ops = []
        for ax, (n, b) in enumerate(zip(sizes, boundaries)):
            if dense[ax]:
                C = _cosine_matrix(n, b)
                A, S = a[ax][:, None] * C * w[ax], np.ascontiguousarray(C.T)
                A.flags.writeable = S.flags.writeable = False
                dense_ops.append((ax - ndim, A, S, A.T))
        self._dense = tuple(dense_ops)
        fft = [(ax - ndim, b) for ax, b in enumerate(boundaries) if not dense[ax]]
        # (analysis DCT type, synthesis DCT type, axes)
        dctn = []
        for family, types in ((BoundaryType.TYPE_I, (1, 1)), (BoundaryType.TYPE_II, (2, 3))):
            axes = tuple(ax for ax, b in fft if b is family)
            if axes:
                dctn.append(types + (axes,))
        self._dctn = tuple(dctn)
        self._type_v = tuple(
            (ax, b) for ax, b in fft if b in (BoundaryType.TYPE_V_MINUS, BoundaryType.TYPE_V_PLUS)
        )
        self._scaled = not all(dense)
        # the FFT axes' factors; dense axes have theirs in the matrices
        # and broadcast with length 1 here
        one = np.ones(1)
        half = [one if d else _halving(n, b) for n, b, d in zip(sizes, boundaries, dense)]
        outer = functools.partial(functools.reduce, np.multiply.outer)  # factors -> tensor
        self._analysis_scale = outer([one if d else ak / 2.0 for ak, d in zip(a, dense)])
        self._synthesis_scale = outer(half)
        self._adjoint_scale = outer([one if d else ak * hk for ak, hk, d in zip(a, half, dense)])
        self._weights = outer([one if d else wk for wk, d in zip(w, dense)])
        for t in (self._analysis_scale, self._synthesis_scale, self._adjoint_scale, self._weights):
            t.flags.writeable = False

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of samples on the grid (unit recovery, as `dct_nd`)."""
        x = values
        for ax, A, _, _ in self._dense:
            x = _dense_axis(x, A, ax)
        for dct_type, _, axes in self._dctn:
            x = scipy.fft.dctn(x, type=dct_type, axes=axes, overwrite_x=x is not values)
        for ax, boundary in self._type_v:
            x = _dct_v_axis(x, boundary, ax)
        if self._scaled:
            np.multiply(x, self._analysis_scale, out=x)
        return x

    def _synthesis(self, x: np.ndarray, dense: int) -> np.ndarray:
        """FFT synthesis of the long axes (``x`` is a fresh array when there
        are any), then dense matrix ``dense`` of `_dense` on the short ones."""
        for _, dct_type, axes in self._dctn:
            x = scipy.fft.dctn(x, type=dct_type, axes=axes, overwrite_x=True)
        for ax, boundary in self._type_v:
            x = _idct_v_axis(x, boundary, ax)
        for ax, *matrices in self._dense:
            x = _dense_axis(x, matrices[dense], ax)
        return x

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples on the grid of a coefficient tensor (as `idct_nd`)."""
        if self._scaled:
            coeffs = coeffs * self._synthesis_scale
        return self._synthesis(coeffs, 1)

    def adjoint(self, functional: np.ndarray) -> np.ndarray:
        """Transpose of `forward` (as `adjoint_dct_nd`)."""
        if not self._scaled:
            return self._synthesis(functional, 2)
        x = self._synthesis(functional * self._adjoint_scale, 2)
        np.multiply(x, self._weights, out=x)
        return x


def _check_ndim(array: np.ndarray, boundaries: tuple[BoundaryType, ...]) -> None:
    if array.ndim != len(boundaries):
        raise ValueError(
            f"tensor has {array.ndim} axes but {len(boundaries)} boundary types given"
        )


def dct_nd(values: np.ndarray, boundaries: tuple[BoundaryType, ...]) -> np.ndarray:
    """Separable analysis transform: `dct_axis` along every axis.

    Sampling ``prod_i cos(k_i theta_i)`` returns the unit tensor at
    multi-index ``k``; the result is independent of axis order.
    """
    values = np.asarray(values, dtype=float)
    _check_ndim(values, boundaries)
    _check_finite(values)
    return GridDCT(values.shape, boundaries).forward(values)


def idct_nd(coeffs: np.ndarray, boundaries: tuple[BoundaryType, ...]) -> np.ndarray:
    """Separable synthesis transform, inverse of `dct_nd`."""
    coeffs = np.asarray(coeffs, dtype=float)
    _check_ndim(coeffs, boundaries)
    return GridDCT(coeffs.shape, boundaries).inverse(coeffs)


def adjoint_dct_nd(functional: np.ndarray, boundaries: tuple[BoundaryType, ...]) -> np.ndarray:
    """Separable transpose of `dct_nd`."""
    functional = np.asarray(functional, dtype=float)
    _check_ndim(functional, boundaries)
    return GridDCT(functional.shape, boundaries).adjoint(functional)
