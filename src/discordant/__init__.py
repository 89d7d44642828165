"""Two-qudit circulant states and quantum-discord analysis.

The package builds block-circulant bipartite density matrices, decides
whether their quantum discord vanishes through structural linear-algebra
criteria, and independently certifies the verdict with a numeric
optimizer over local projective measurements.

The attribute ``discord`` is the function, which shadows the submodule:
``import discordant.discord as m`` binds the function, and
``importlib.import_module("discordant.discord")`` returns the module.
"""

from types import ModuleType as _ModuleType

from .blocks import (
    CRITERION_BELL,
    CRITERION_CIRCULANT,
    CRITERION_COMMUTATION,
    CRITERION_DIAGONAL,
    StructuralVerdict,
    bell_zero_discord_check,
    circulant_necessary_conditions,
    circulant_theorem_check,
    classical_decomposition,
    completely_classical_check,
    extract_blocks,
    generate_zero_discord,
    is_prime,
    structural_discord_zero,
    structural_verdicts,
)
from .discord import (
    DiscordResult,
    MeasurementBasis,
    OptimizerConfig,
    conditional_entropy,
    discord,
    discord_sides,
    mutual_information,
)
from .errors import (
    DimensionError,
    DiscordantError,
    InvalidMeasurement,
    InvalidSpec,
    PreconditionError,
    PrimeRequired,
)
from .linalg import (
    check_density_matrix,
    fourier_matrix,
    partial_trace,
    random_unitary,
    von_neumann_entropy,
)
from .serialize import (
    LoadedState,
    bell_to_json,
    circulant_to_json,
    dense_to_json,
    load_state_file,
    parse_state,
)
from .states import (
    BellWeights,
    CirculantSpec,
    NotCirculant,
    bell_diagonal_state,
    bell_projector,
    circulant_state,
    commuting_group_invariant_state,
    flip_operator,
    isotropic_state,
    max_entangled_projector,
    orthogonal_invariant_state,
    ppt_check_commuting,
    project_circulant,
    shift_operator,
    validate_circulant_spec,
    werner_state,
)
from .verify import (SuiteResult, analyze, o2_simplex_rows, perturb_spec, random_zero_discord_spec,
                     run_verify)

__version__ = "0.1.0"

#: The import block above is the list of public names: every name it binds, less the
#: submodules that importing binds as attributes.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
