"""genbound: certified lower bounds on the minimal number of generators of
the profinite completion of a free product of finite groups, computed by
exact homomorphism counting into constructed finite targets.
"""

from .bounds import (
    BoundCertificate,
    CertificateError,
    Comparison,
    EmbeddingContribution,
    ExactContribution,
    FormulaContribution,
    certificate_from_doc,
    certificate_to_doc,
    check_certificate,
    lower_bound_explicit,
    weak_bound,
)
from .constructions import (
    ConstructionError,
    CoprimeFamilyInstance,
    MetabelianTarget,
    SemidirectTarget,
    SplitBound,
    VerificationFailure,
    abelianization_split,
    coprime_family,
    metabelian_target,
    min_m_for_conclusion,
    reduce_cyclic_orders,
    semidirect_target,
)
from .groups import (
    CayleyGroup,
    ClosureOverflowError,
    FiniteGroup,
    GeneratedGroup,
    MatrixGroup,
    PermGroup,
    ProductGroup,
)
from .homcount import (
    HomCountResult,
    HomSearchBudgetError,
    WitnessQuotient,
    WitnessWidthError,
    count_homs,
    enumerate_homs,
    evaluate_word,
    group_presentation,
    witness_quotient,
)
from .io import serialize_group
from .modules import ModuleAction, SimpleModuleSearch, find_simple_module, is_irreducible
from .presentations import (
    Presentation,
    cyclic_presentation,
    free_product,
    presentation_from_words,
)
from .subgroups import (
    MinGenResult,
    SubgroupHandle,
    abelian_invariants,
    d_min_generators,
    derived_subgroup,
    largest_normal_p_subgroup,
    orbits,
    quotient_group,
)

__version__ = "0.1.0"
