"""The package's public names: any addition or removal shows up here."""

import cheblat

PUBLIC = [
    "BasisEntry", "BoundaryType", "CartesianSublattice", "ChebyshevLattice", "Family",
    "Interpolant", "LatticeError", "QuadratureStencil", "ReciprocalBasis", "TransformPlan",
    "adjoint", "aliasing_class", "basis_integrals", "boundary_efficiency", "brillouin_union",
    "build", "dct_nd", "decompose", "degree_config", "dense_oracle", "differentiate",
    "efficiency", "evaluate", "forward", "forward_padua", "gauss_legendre", "idct_nd",
    "integrate", "interpolate", "inverse", "lattice_descriptor", "plan", "quadrature_stencil",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 33
    assert sorted(cheblat.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(cheblat, name) is not None, name
