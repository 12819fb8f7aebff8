"""Numerical laboratory for global transverse Poincaré sections of
Hamiltonian flows: exterior calculus on flat charts, flow integration,
first-return maps, cosymplectic structures and their correspondence with
transverse symplectic fields, period rationalization, and topological
non-existence obstructions."""

from .forms import (ChartManifold, ChartMap, KForm, constant_form, coordinate_form,
                    evaluate_frame, exterior_derivative, interior, power, pullback, wedge)
from .phase import EnergySurface, FlowSystem, HamiltonianSystem, SingularOmegaError
from .section import (Crossings, GlobalityReport, MappingTorusChart, NoCrossingError,
                      RefinementError, Returns, SectionSpec, TangencyError,
                      coordinate_section, first_crossings, iterate_returns,
                      mapping_torus_chart, return_map_jacobians, verify_global,
                      write_crossings_csv)
from .cosym import (CollarModel, CosymplecticStructure, TransversalityError,
                    TransverseFieldReport, build_collar_form, build_product_system,
                    cosym_to_field, field_to_cosym, verify_cosymplectic)
from .tischler import (PeriodVector, RationalApproximation, RationalizationError,
                       build_approximation, check_transversality_preserved,
                       extract_leaf, periods, rationalize)
from .obstruct import (BettiProfile, BettiResult, MeshedSurface, PrimitiveError,
                       Verdict, betti_necessary_condition, exactness_verdict,
                       simply_connected_verdict, stokes_exactness_check,
                       surface_integral)

__version__ = "0.1.0"
