"""Numerical laboratory for global transverse Poincaré sections of
Hamiltonian flows: exterior calculus on flat charts, flow integration,
first-return maps, cosymplectic structures and their correspondence with
transverse symplectic fields, period rationalization, and topological
non-existence obstructions.

The API is the submodules (`cosymlab.forms`, `cosymlab.phase`,
`cosymlab.section`, ...).  The package itself imports none of them, so a
process loads only the layers it uses."""

__version__ = "0.1.0"
