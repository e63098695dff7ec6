"""The package's public names, and a guard against dead module-level code."""

import ast
import re
from pathlib import Path

import cheblat

PUBLIC = [
    "BasisEntry", "BoundaryType", "CartesianSublattice", "ChebyshevLattice", "Family",
    "Interpolant", "LatticeError", "QuadratureStencil", "ReciprocalBasis", "TransformPlan",
    "adjoint", "basis_integrals", "boundary_efficiency", "build", "dct_nd", "decompose",
    "degree_config", "dense_oracle", "differentiate", "efficiency", "evaluate", "forward",
    "forward_padua", "gauss_legendre", "idct_nd", "integrate", "interpolate", "inverse",
    "lattice_descriptor", "plan", "quadrature_stencil",
]

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cheblat"


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 31
    assert sorted(cheblat.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(cheblat, name) is not None, name


def unreferenced_definitions(package: Path, root: Path) -> list[str]:
    """Module-level functions and classes of ``package`` that nothing uses.

    A name counts as used when it appears as a word outside its own
    definition in the package's modules (the ``__init__.py`` re-export does
    not count), in ``scripts/`` or ``perfbench/``, or in the README.
    """
    modules = {p: p.read_text() for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    elsewhere = [p.read_text() for d in ("scripts", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    readme = (root / "README.md").read_text()
    unused = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "\n".join(lines[:start] + lines[node.end_lineno:])
            texts = [rest, readme, *elsewhere, *(t for p, t in modules.items() if p != path)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in texts):
                unused.append(f"{path.name}:{node.name}")
    return unused


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions(PACKAGE, ROOT) == []
