"""Discrete cosine transforms for the four symmetric Chebyshev node families.

Nodes live on the half-circle: a grid is a set of equispaced angles
``theta`` in ``[0, pi]`` and the abscissae are ``x = cos(theta)``.  Every
family is one rule, ``theta_j = pi (2j + s) / N`` for ``j < n`` (the
symmetric-extension view of Martucci, IEEE TSP 42, 1994): the grid unfolds
to ``N`` points on the whole circle once reflected through ``theta = 0``,
and the shift ``s`` is 1 when it is offset by half a spacing.  ``N mod 2``
and ``s`` fix which endpoints, ``x = +1`` (``theta = 0``) and ``x = -1``
(``theta = pi``), the family contains:

================  ============  =====  ==========
family            ``N``         ``s``  endpoints
================  ============  =====  ==========
``TYPE_I``        ``2(n-1)``    0      both
``TYPE_II``       ``2n``        1      neither
``TYPE_V_MINUS``  ``2n - 1``    0      ``+1``
``TYPE_V_PLUS``   ``2n - 1``    1      ``-1``
================  ============  =====  ==========

Modes ``k`` and ``k'`` coincide on the grid when ``k' = +-k mod N``.  The
reflection ``theta -> -theta`` fixes the nodes with ``N | 2j + s`` (the
endpoints) and the modes with ``N | 2k``; every per-family factor follows.

Normalization: the analysis transform (`GridDCT.forward`, `dct_axis`)
returns coefficients ``c`` such that sampling ``cos(k * theta)`` on the grid
yields exactly the unit vector ``e_k``, so ``f(theta_i) = sum_k c_k cos(k
theta_i)`` always holds and the synthesis (`GridDCT.inverse`, `idct_axis`)
is an exact inverse.  This "unit recovery" convention makes round trips and
unisolvency checks crisp; it differs from an orthonormal DCT by diagonal
factors only.

`GridDCT` is the planned n-d operator: forward, inverse and adjoint of one
tensor-product grid.  It transforms an axis by a dense cosine-matrix product
up to a per-family node count (`_DENSE_MAX`), and longer axes by FFT.  Long
type I and II axes go through :mod:`scipy.fft`'s DCTs.  Common FFT packages
provide no type V transform, and its FFT is slow for the Padua axis lengths
(the circle count ``2n - 1`` is 257, a prime, at ``n = 129``), so type V axes
stay dense up to 256 nodes.  A longer type V axis reflects each line to its
``2n - 1`` full-circle points, where it is real and even, and packs two such
lines into one complex FFT of length ``2n - 1`` as its real and imaginary
parts.  `dct_nd`, `idct_nd` and `adjoint_dct_nd` are thin checked calls to
`GridDCT`, and the transforms in :mod:`cheblat.transform` hold one per
sublattice.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
import scipy.fft


class BoundaryType(enum.Enum):
    """Which endpoints of ``[-1, 1]`` a node family contains, and its ``shift`` ``s``."""

    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_V_MINUS = "V-"
    TYPE_V_PLUS = "V+"

    def __init__(self, value: str):
        # plain attributes: the transforms read them on every call
        self.shift = int(value in ("II", "V+"))
        self.contains_plus_one = not self.shift
        self.contains_minus_one = value in ("I", "V+")


def circle_count(n: int, boundary: BoundaryType) -> int:
    # an endpoint is its own mirror, every other node unfolds to two points
    return 2 * n - boundary.contains_plus_one - boundary.contains_minus_one


# the family of each (N mod 2, s)
_FAMILY = {(circle_count(2, b) % 2, b.shift): b for b in BoundaryType}


def grid_spec_from_circle(N: int, half_shift: int) -> tuple[int, BoundaryType]:
    """Node count and family of the grid with ``N`` full-circle points.

    ``half_shift`` selects whether the grid contains ``theta = 0``
    (``0``) or is offset by half a spacing (``1``).
    """
    if N < 1 or half_shift not in (0, 1):
        raise ValueError(f"invalid grid spec N={N}, half_shift={half_shift}")
    return (N + 2 - half_shift) // 2, _FAMILY[N % 2, half_shift]


def _numerators(n: int, boundary: BoundaryType) -> tuple[np.ndarray, int]:
    """``p_j = 2j + s`` and ``N``: the nodes' angles are ``pi p_j / N``."""
    s = boundary.shift
    return np.arange(s, 2 * n + s, 2), circle_count(n, boundary)


def _mirror_fill(n: int, s: int, N: int, value: float, own: float) -> np.ndarray:
    """``value`` at each ``j < n``, but ``own`` where ``N | 2j + s``: the endpoint
    nodes for ``s`` a family's shift, the modes met once on the circle for
    ``s = 0``.  As ``0 <= 2j + s <= N``, only ``j = 0`` and ``n - 1`` can be."""
    out = np.empty(n)
    out.fill(value)
    for j in (0, n - 1):
        if (2 * j + s) % N == 0:
            out[j] = own
    return out


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

    ``c_k = a_k * sum_i w_i f_i cos(k theta_i)`` with ``w`` = `node_weights`;
    ``a_k = 4 / N``, halved on the modes that are their own mirror.
    """
    N = circle_count(n, boundary)
    return _mirror_fill(n, 0, N, 4.0 / N, 2.0 / N)


def node_weights(n: int, boundary: BoundaryType) -> np.ndarray:
    """Trapezoidal node weights ``w_i`` (1/2 at ``theta in {0, pi}``)."""
    return _mirror_fill(n, boundary.shift, circle_count(n, boundary), 1.0, 0.5)


def _halving(n: int, boundary: BoundaryType) -> np.ndarray:
    """Synthesis factor ``h``: 1/2 on every mode that appears twice on the circle.

    The analysis is ``a/2`` times the unscaled forward transform (DCT-I,
    DCT-II or the type V FFT), the synthesis is the unscaled backward
    transform (DCT-I, DCT-III or the inverse type V FFT) of ``h * c``, and
    the adjoint is ``w`` times the unscaled synthesis of ``a * h * u``, with
    ``a`` = `analysis_prefactor` and ``w`` = `node_weights`.
    """
    return _mirror_fill(n, 0, circle_count(n, boundary), 0.5, 1.0)


def _reflect_index(n: int, boundary: BoundaryType) -> np.ndarray:
    """Index map unfolding samples to the full circle (type V only): circle
    point ``t`` has angle ``pi (2t + s) / N``, and ``t >= n`` mirrors node ``N - s - t``."""
    s = boundary.shift
    return np.concatenate([np.arange(n), np.arange(n - 1 - s, -s, -1)])


def _pack(lines: np.ndarray) -> np.ndarray:
    """Real rows ``(m, k)`` as ``ceil(m / 2)`` complex rows: row ``2r`` is the
    real part of row ``r`` and row ``2r + 1`` its imaginary part (zero when
    ``m`` is odd)."""
    m = len(lines)
    z = np.empty(((m + 1) // 2, lines.shape[1]), dtype=complex)
    z.real = lines[0::2]
    z.imag[: m // 2] = lines[1::2]
    z.imag[m // 2:] = 0.0
    return z


def _unpack(z: np.ndarray, m: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_pack` on transformed rows, reshaped to ``shape``."""
    return np.stack((z.real, z.imag), axis=1).reshape(-1, z.shape[1])[:m].reshape(shape)


def _dct_v_axis(values: np.ndarray, boundary: BoundaryType, axis: int) -> np.ndarray:
    """Unscaled type V analysis: ``sum_j g_j cos(k theta_j)`` over the full circle.

    The reflected lines ``g`` are real and even, so their DFT ``G`` is real
    (V-) or real after the phase ``exp(-i pi k / N)`` (V+, since ``G_k =
    exp(2 pi i k / N) conj(G_k)``); two lines therefore share one complex FFT
    as its real and imaginary parts.
    """
    n = values.shape[axis]
    g = np.take(np.moveaxis(values, axis, -1), _reflect_index(n, boundary), axis=-1)
    lines = g.reshape(-1, 2 * n - 1)
    G = scipy.fft.fft(_pack(lines), axis=-1, overwrite_x=True)[:, :n]
    if boundary is BoundaryType.TYPE_V_PLUS:
        G *= np.exp(-1j * np.pi * np.arange(n) / (2 * n - 1))
    return np.moveaxis(_unpack(G, len(lines), g.shape[:-1] + (n,)), -1, axis)


def _idct_v_axis(halved: np.ndarray, boundary: BoundaryType, axis: int) -> np.ndarray:
    """Unscaled type V synthesis of coefficients already multiplied by ``h``.

    Each line's reflected spectrum makes its inverse DFT real, so two lines
    share one complex inverse FFT, packed as in `_dct_v_axis`.
    """
    n = halved.shape[axis]
    N = 2 * n - 1
    c = np.moveaxis(halved, axis, -1)
    lines = c.reshape(-1, n)
    # raw index N - k carries coefficient k
    S = _pack(lines[:, _reflect_index(n, BoundaryType.TYPE_V_MINUS)])
    if boundary is BoundaryType.TYPE_V_PLUS:
        # ... with the sign and phase of -exp(-ik theta) on the half-offset grid
        np.negative(S[:, n:], out=S[:, n:])
        S *= np.exp(1j * np.pi * np.arange(N) / N)
    samples = scipy.fft.ifft(S, axis=-1, norm="forward", overwrite_x=True)[:, :n]
    return np.moveaxis(_unpack(samples, len(lines), c.shape), -1, axis)


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


# Axes of up to ``_DENSE_MAX[family]`` nodes are transformed by a dense matrix
# product, not an FFT, whose fixed cost per call and per line dominates on
# short axes.  Types I and II stop at 20: the benchmark's transform rounds get
# faster as the cut rises, but the dense cost per point grows linearly in n:
# above 20 the n log n fit of the forward transform over bcc r=24..100 nears
# its bound, and from n = 23 an n^3 grid's n^4 product passes OpenBLAS's
# threading threshold (10x slower at n = 32).  A type V FFT also pays for
# reflect, pack, unpack and phase passes and runs at the length 2n - 1, which
# is awkward for Padua's n = 2^k + 1 (257 is prime), so the dense product
# stays faster much longer.  `scripts/dct_crossover.py` times both routes on
# forward, inverse and adjoint of 2-d and 3-d grids, with the type V axis
# first, in the middle and last; on a 2-vCPU x86-64 host (OpenBLAS 0.3.31)
# dense/FFT read 0.04-0.48 for n = 21..129, 0.23-0.61 at n = 256, 0.34-0.77
# at 257 and 0.36-0.85 at 513.  With one BLAS thread it read up to 0.61 at
# n = 256, 0.99 at 257 and 1.43 at 513.  The type V cut of 256 keeps one
# matrix within 8 * 256^2 bytes = 512 KB (two per dense axis); longer axes
# keep the packed FFT, with bounded memory and O(n log n) cost.
_DENSE_MAX = {BoundaryType.TYPE_I: 20, BoundaryType.TYPE_II: 20,
              BoundaryType.TYPE_V_MINUS: 256, BoundaryType.TYPE_V_PLUS: 256}


def _cosine_matrix(n: int, boundary: BoundaryType) -> np.ndarray:
    """``C[k, j] = cos(k theta_j)``, with the angle reduced exactly mod ``2 pi``.

    ``theta_j = pi p_j / q`` for integers ``p_j, q``, so ``k theta_j`` is
    reduced as the integer ``m = k p_j mod 2q``, and ``C[k, j]`` is gathered
    from the ``2q`` values ``cos(pi m / q)``.
    """
    p, q = _numerators(n, boundary)
    return np.cos(np.pi * np.arange(2 * q) / q)[np.outer(np.arange(n), p) % (2 * q)]


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
    without their input checks; any leading axes are a batch.  Axes of up
    to ``_DENSE_MAX[family]`` nodes are transformed by a dense matrix
    product with their scale factors folded in.  On longer axes, all type I
    axes go through one ``dctn`` call and all type II axes through another;
    type V axes are transformed one at a time.  The matrices and the diagonal
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
        dense = tuple(n <= _DENSE_MAX[b] for n, b in zip(sizes, boundaries))
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
