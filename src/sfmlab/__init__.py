"""Camera model catalog, dimension counting, rank analysis, and reconstruction
for multi-view geometry problems, including moving-point scenes."""

from .cameras import (
    Camera,
    CameraClass,
    camera_map,
    catalog,
    catalog_lookup,
    embed,
    project,
    project_points,
    random_camera,
)
from .counting import (
    CIRCLE_PRESET,
    REFERENCE_COUNT_NOTES,
    FeasibilityReport,
    anchored_slack,
    feasible,
    forbidden_region,
    jet_feasible,
    jet_min_cameras,
    jet_min_points,
    min_cameras,
    min_points,
)
from .errors import (
    ChartRangeError,
    DegenerateConfigurationError,
    FormatError,
    GroupMismatchError,
    InfeasibleCountError,
    SfmlabError,
    SingularConfigurationError,
    UnknownClassError,
)
from .reconstruct import (
    GaugeChart,
    LocalUniquenessReport,
    SolveReport,
    gauge_fix,
    local_uniqueness,
    perturb_jet_scene,
    perturb_scene,
    reprojection_rmse,
    solve,
    solve_jet,
)
from .sfm import (
    GenericRankReport,
    JetScene,
    Measurements,
    RankReport,
    Scene,
    evaluate,
    evaluate_jet,
    generic_rank,
    jacobian,
    jet_position,
    numerical_rank,
    predicted_rank,
    random_jet_scene,
    random_scene,
)
from .symmetry import (
    GroupElement,
    KernelCheckReport,
    act_camera,
    act_point,
    act_scene,
    align,
    align_jet,
    generators,
    identity,
    kernel_check,
    random_element,
)

__version__ = "0.1.0"
