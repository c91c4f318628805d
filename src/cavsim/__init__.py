"""cavsim: deterministic tick-based simulator of connected-vehicle
on-board data flow (trace replay, geometric camera perception with
occlusion, single-hop V2X broadcast, per-vehicle module DAGs, and indexed
per-tick metrics)."""

from .errors import (ConfigError, ContractViolation, GeometryError,
                     NotFoundError, SchemaError, SimError, TraceParseError,
                     ValidationError)
from .identity import MatchTable, PlateRegistry
from .messages import Cpm, PerceivedObject
from .metrics import MetricsWriter
from .network import NetworkSim, cpm_wire_size, serialize_cpm
from .perception import (BoundingBox, CameraPose, PerceptionConfig,
                         ProjectionView, fov_relevant, get_visible_lines,
                         get_visible_lines_naive, heading_visible,
                         normalize_heading, perceive, projection_angles,
                         reconstruct_box)
from .sandbox import (FlowGraph, SandboxContext, Vehicle, VehicleTypeSpec,
                      build_vehicle, builtin_vehicle_types, register_module,
                      tick_vehicle, validate_flow)
from .scenario import (RunSummary, ScenarioConfig, assign_type, load_config,
                       parse_config, report, run)
from .spatial import (GridIndex, get_nearby_vehicles, query_radius, rebuild,
                      sweep_neighbors)
from .trace import (TraceTick, VehicleState, iter_trace, load_trace,
                    normalize_angle, synth_traffic, write_csv)

__version__ = "0.1.0"
