"""Room-scale point-cloud stitching from panorama matches, plane-based
scene composition, and policy-evaluation metrics."""

from .geometry import (Aabb, GeometryError, Plane, PointCloud, PointIndex,
                       RigidTransform, compose, pose_difference,
                       voxel_downsample)
from .ply import PlyError, read_ply, write_ply
from .panorama import (BearingMatchSet, MatchFileError, PanoramaSpec,
                       bearing_to_pixel, load_matches, pixel_to_bearing)
from .epipolar import (CheiralityError, EssentialEstimate, EstimationError,
                       RansacConfig, RelativePose, TriangulatedSet,
                       decompose_essential, estimate_essential,
                       triangulate_set)
from .scale import (GroundConfig, GroundModel, GroundPlaneError, apply_scale,
                    recover_scale, select_ground_points)
from .icp import (IcpConfig, IcpError, IcpResult, estimate_normals,
                  eval_icp_error, point_to_plane_icp)
from .scene import (AssetInstance, ManifestError, PairRegistration,
                    PlacementError, PlaneFitConfig, PlaneFitError, RoomNode,
                    SceneGraphError, SceneManifest, SupportPlane,
                    fit_plane_ransac, flatten_to_plane, load_manifest,
                    merge_rooms, overlap_rms, place_asset, save_manifest,
                    support_plane_from_inliers)
from .metrics import (EpisodeRecord, GeneralizationReport, MetricError,
                      RateEntry, Tier, dtw, fluid_containment_success,
                      generalization_report, pearson, read_episode_csv,
                      read_rates_csv, read_trajectory, simreal_correlation,
                      spl, success_rate, wilson_interval, write_episode_csv)
from .pipeline import PairConfig, PairResult, register_room_pair
from .testkit import (EpisodeSpec, SynthRoomPair, SynthSceneConfig,
                      synth_episodes, synth_room_pair)

__version__ = "0.1.0"
