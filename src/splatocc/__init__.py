"""splatocc: sparse Gaussian splatting into semantic occupancy grids.

Depth maps are sampled inward along camera rays into interior points, which
become anisotropic Gaussians that splat probabilistically into voxel grids.
Per-frame Gaussians can be fused incrementally into a global memory bank for
streaming input, and grids are compared with frustum-masked IoU / mIoU.
"""

from .camera import (
    CameraModel,
    RigidTransform,
    backproject,
    project,
    ray_direction,
    to_world,
    z_depth_to_ray_distance,
)
from .fusion import (
    FusionConfig,
    FusionStats,
    GaussianMemoryBank,
    top1_confidence,
)
from .gaussians import (
    DEFAULT_PRUNE_TAU,
    SCALE_FLOOR,
    AttributeConfig,
    GaussianSet,
    heuristic_attributes_batch,
    prune,
)
from .losses import (
    UndefinedLossError,
    focal_loss,
    huber_depth,
    lovasz_softmax,
)
from .metrics import (
    CLASS_NAMES,
    ConfusionCounts,
    MetricReport,
    UndefinedMetricError,
    confusion,
    frustum_mask,
    iou_miou,
)
from .pipeline import (
    PipelineConfig,
    frame_gaussians,
    run_monocular,
    run_streaming,
)
from .sampling import (
    DepthMap,
    SampleBatch,
    SamplingConfig,
    sample_offsets,
    volumetric_sample,
)
from .scenes import (
    Box,
    SyntheticScene,
    WallPatch,
    frontal_grid,
    generate_frontal_room,
    oracle_occupancy,
    render_depth,
    scene_grid,
    standard_camera,
    standard_pose,
    thick_box_room,
)
from .spatial_hash import SpatialHashGrid
from .splatting import (
    DEFAULT_THETA_OCC,
    GridSpec,
    OccupancyGrid,
    splat,
)

__version__ = "0.1.0"
