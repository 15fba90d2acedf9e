"""Stone spectra, spectral families and observable functions at finite scale.

The package realizes, on exhaustively checkable finite instances, the
correspondence between classical observables (measurable or continuous point
functions) and spectral families in lattices: level sets turn functions into
monotone families, and the observable-function transform turns families into
functions on the Stone spectrum of the lattice.
"""

from . import checks, dsl, family, lattice, measurable, stone, topology
from .errors import (InputError, InvalidFamilyError, NoOrthocomplementError,
                     UnsupportedStructureError)
from .family import (ComplexObservableFunction, ComplexSpectralFamily,
                     ObservableFunction, SpectralFamily, SpectrumDecomposition,
                     decompose, enumerate_families, from_observable_function,
                     observable_function, observable_function_complex,
                     product_family, riemann_stieltjes, spectrum_of)
from .lattice import (Lattice, ValidationReport, Violation, boolean_lattice,
                      chain_lattice, mo_lattice, product_lattice)
from .measurable import (FieldOfSets, MeasurableFunction, QuotientAlgebra,
                         SetIdeal, all_fields, bijection_report, function_of,
                         gamma_transform, ideals_of, lift_spectral_family,
                         quotient, riemann_stieltjes_on_points,
                         spectral_family_of)
from .stone import (DualIdeal, StoneSpace, dual_ideal_intersection_law,
                    enumerate_quasipoints, is_completely_distributive,
                    principal_dual_ideal, stone_space)
from .topology import (PtStructure, TopSpace,
                       all_topologies, classify_family,
                       completely_increasing_check, cpt_membership, f_star,
                       identification_check, induced_function, is_continuous,
                       is_strongly_regular, pt_structure, r_function,
                       spectral_family_of_continuous, star_condition_check)

__version__ = "0.1.0"
