"""catfpca: dimension reduction of continuous-time categorical trajectories.

Each state of a categorical trajectory is encoded as a 0/1 indicator
function; a panel of trajectories is then summarized by a weighted
multivariate functional PCA computed exactly on the union cell grid.
"""

from .errors import (
    CatfpcaError,
    DomainError,
    GridError,
    NumericalError,
    ProtocolError,
    SchemaError,
    ValidationError,
)
from .trajectory import (
    CategoricalTrajectory,
    CellGrid,
    StateSpace,
    union_grid,
)
from .ingest import (
    EventTable,
    IngestReport,
    Panel,
    PanelItem,
    apply_protocol_normalization,
    parse_events,
    validate_panel,
)
from .estimation import (
    WeightScheme,
    compute_weights,
    mean_on_grid,
    panel_cell_values,
    selection_count_curve,
)
from .mfpca import (
    MfpcaResult,
    eigendecompose,
    importance,
    reconstruct,
    run_mfpca,
)
from .simulate import (
    ProcessSpec,
    SojournSpec,
    simulate_panel,
)

__version__ = "0.1.0"
