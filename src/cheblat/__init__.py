"""Euclidean-degree-efficient Chebyshev interpolation on the square and cube.

Collocation lattices (tensor, Padua, hexagonal, BCC, FCC, composite
octagonal), fast forward/inverse/adjoint transforms, spectral
differentiation and Clenshaw-Curtis style quadrature, plus a
rotation-averaged convergence benchmark harness.

``__all__`` lists the public names.  The per-axis transforms (`dct_axis`
and its inverse and adjoint) and the CSV readers and writers are reached
through their modules, :mod:`cheblat.dct` and :mod:`cheblat.transform`.
"""

from .calculus import (
    Interpolant,
    QuadratureStencil,
    basis_integrals,
    differentiate,
    evaluate,
    gauss_legendre,
    integrate,
    interpolate,
    quadrature_stencil,
)
from .dct import BoundaryType, dct_nd, idct_nd
from .lattice import (
    BasisEntry,
    CartesianSublattice,
    ChebyshevLattice,
    Family,
    LatticeError,
    ReciprocalBasis,
    boundary_efficiency,
    build,
    decompose,
    degree_config,
    efficiency,
    lattice_descriptor,
)
from .transform import (
    TransformPlan,
    adjoint,
    dense_oracle,
    forward,
    forward_padua,
    inverse,
    plan,
)

__all__ = [
    "BasisEntry",
    "BoundaryType",
    "CartesianSublattice",
    "ChebyshevLattice",
    "Family",
    "Interpolant",
    "LatticeError",
    "QuadratureStencil",
    "ReciprocalBasis",
    "TransformPlan",
    "adjoint",
    "basis_integrals",
    "boundary_efficiency",
    "build",
    "dct_nd",
    "decompose",
    "degree_config",
    "dense_oracle",
    "differentiate",
    "efficiency",
    "evaluate",
    "forward",
    "forward_padua",
    "gauss_legendre",
    "idct_nd",
    "integrate",
    "interpolate",
    "inverse",
    "lattice_descriptor",
    "plan",
    "quadrature_stencil",
]

__version__ = "0.1.0"
