"""Shadow state sums in S^2 x S^1 and torus-gauge determinant kernels."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose otherwise: a job is one process on small
# arrays, and a default pool of one OpenBLAS thread per core slows numpy's import,
# burns the other cores and makes the last digits of float results depend on the
# machine's core count.  It must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .errors import OracleError, ParseError, PreconditionError, ShadowsumError
from .roots import (
    RootSystem,
    build_root_system,
    is_regular,
    weyl_orbit,
)
from .reps import (
    LevelAlphabet,
    WeightSystem,
    character_eval,
    level_alphabet,
    weight_multiplicities,
    weyl_dimension,
)
from .fusion import (
    QuantumWeylGroup,
    build_fusion_table,
    fusion_matrix,
    quantum_dimension,
    verlinde_table,
)
from .diagrams import (
    Circle,
    ShadowDiagram,
    StateSumResult,
    build_diagram,
    contract_state_sum,
    empty_link_value,
)
from .determinants import (
    SphereMetricSample,
    SteppedField,
    det_half,
    det_k,
    det_rig_constant,
    det_rig_quadrature,
    det_rig_step,
    flat_torus_metric,
    round_sphere_metric,
)
from .regularize import det_rig_n, regularized_indicator
from .circleop import CircleOperatorData, apply_operator, circle_inverse_apply
from .holonomy import (
    VerticalRibbon,
    holonomy,
    ribbon_holonomy,
    scaled_ribbon,
    weight_phases,
    wilson_closed_form,
)
