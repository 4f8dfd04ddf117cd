"""Constructive solving of finite split embedding problems over surface
groups, with independently checkable certificates."""

from .errors import SurfepError
from .groups import (
    ActionSpec,
    FiniteGroup,
    GroupHom,
    SubgroupHandle,
    catalog,
    cyclic_group,
    direct_product,
    group_from_permutations,
    image,
    inversion_action,
    kernel,
    klein_four_group,
    make_group,
    make_hom,
    minimal_generator_count,
    semidirect_product,
    subgroup_closure,
    symmetric_group_3,
    trivial_action,
    trivial_group,
)
from .surface import (
    BasisState,
    SurfaceTuple,
    Word,
    evaluate_word,
    expand_word,
    initial_basis_state,
    make_surface_tuple,
    map_tuple,
    normalize_to_front,
    open_subgroup_genus,
    parse_word,
    pigeonhole_select,
    tuple_image,
    word_x,
    word_y,
)
from .embedding import (
    SolutionCertificate,
    SplitEP,
    SubgroupSpec,
    claim_proper,
    image_of_restriction,
    make_split_ep,
    verify_solution,
)
from .solver import (
    ExtensionPlan,
    eta_construct,
    make_eta_params,
    plan_extension,
    reverify_certificate,
    solve_free_product,
    solve_gamma_level,
    solve_relative,
)

__version__ = "0.1.0"

# the oracle draws and counts instances; solve and verify never run it, so
# it is imported when one of these is first read (PEP 562)
_ORACLE = (
    "InstanceRecipe",
    "enumerate_surface_tuples",
    "generate_instances",
    "random_surface_tuple",
    "reference_minimal_generators",
)


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
