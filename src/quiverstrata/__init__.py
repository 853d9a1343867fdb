"""Stratification toolkit for representation schemes of bound quiver algebras.

Exact rational codimensions of relation-induced linear systems on fixed
Jordan data, stratum dimensions, reducibility certificates, and exhaustive
finite-field oracles, with a batch CLI.
"""

from .quiver import (Arrow, BoundQuiverPresentation, CycleDiagnostic, Path,
                     PresentationError, Quiver, Relation, SubstitutionError,
                     apply_arrow_substitution, check_cycle_conditions,
                     detect_shortcuts, invert_substitution, parse_presentation,
                     path_degree, relation_degree, relation_mod_orders,
                     serialize_presentation)
from .partitions import (JordanAssignment, Partition, commutant_dim_oracle,
                         end_dim, hom_dim, jordan_matrix, maximal_partition,
                         orbit_count, orbit_count_ff, orbit_dim,
                         partitions_bounded)
from .linsys import (BadPrimeError, ConstraintSystem, SymbolicArrowEntry,
                     UnsupportedDegreeError, assemble_system,
                     assemble_system_at, c_additivity_split, codim_c,
                     evaluate_relation, rank_exact, rank_mod)
from .formulas import (FormulaCase, SideConditionError, c_closed_form,
                       evaluate_case, formula_cases)
from .strata import (ReducibilityCertificate, ScanCapExceeded, StratumReport,
                     ambient_arrow_dim, assignments_for, split_gap_test,
                     dim_vectors_up_to, max_stratum, nooverlap_dims,
                     reducibility_scan, stratum_dim)
from .families import (FamilyTag, ProductCheck, build_family,
                       parse_family_spec, product_decomposition_check,
                       recognize_family)
from .fforacle import (EnumerationCapExceeded, StratumCountTable,
                       dimension_estimate, enumerate_and_classify,
                       verify_count_identity)

__version__ = "0.1.0"
