"""Exact-arithmetic Lie algebra calculus and geometric-structure checks."""

from .scalars import (DenominatorVanishes, ParameterValueError, Poly,
                      Scalar, ScalarError, ScalarParseError, parse_scalar,
                      scalar_eval)
from .lie_core import (LieAlgebra, LieError, center, centralizer,
                       derived_subalgebra, extend_by_derivation, is_derivation)
from .exterior import (KForm, ce_d, interior, lie_derivative, solve_potential,
                       twisted_cohomology_dim, twisted_d, wedge)
from .structures import (CONVENTION_DEF, CONVENTION_THM, ComplexStructure,
                         LckData, LcsData, Metric, StructureError,
                         StructureReport, assemble_lck, biinvariant_identities,
                         compatibility_check, lcs_check, metric_from,
                         nijenhuis, signatures, subalgebra_to_J,
                         J_to_subalgebra, vaisman_check)
from .constructions import (OrbitData, coadjoint_stabilizer,
                            kirillov_kostant_form, lcs_from_orbit)
from . import catalog, document

__version__ = "0.1.0"
