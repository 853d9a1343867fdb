"""Stratification toolkit for representation schemes of bound quiver algebras.

Exact rational codimensions of relation-induced linear systems on fixed
Jordan data, stratum dimensions, reducibility certificates, and exhaustive
finite-field oracles, with a batch CLI.
"""

from .quiver import (Arrow, BoundQuiverPresentation, PresentationError, Quiver,
                     Relation, parse_presentation, serialize_presentation)
from .partitions import (JordanAssignment, Partition, end_dim, jordan_types, orbit_count,
                         orbit_count_ff, orbit_dim)
from .linsys import (ConstraintSystem, PartPairTable, assemble_system,
                     integer_terms, rank_exact, split_terms)
from .formulas import FormulaCase, SideConditionError, c_closed_form, evaluate_case
from .strata import (ReducibilityCertificate, ScanCapExceeded, StratumReport,
                     ambient_arrow_dim, dim_vectors_up_to, reducibility_scan, stratum_dim)
from .families import FamilyTag, build_family, parse_family_spec
from .fforacle import (BadPrimeError, EnumerationCapExceeded, StratumCountTable,
                       enumerate_and_classify, verify_count_identity)

__version__ = "0.1.0"
