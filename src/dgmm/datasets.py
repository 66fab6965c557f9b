"""Data ingestion and generation.

Three kinds of input feed the library and its experiment harness:

* motion sample CSVs (command triple, optional terrain block, pose delta),
* plain numeric point files (the bundled Old Faithful benchmark table and
  generated synthetic point clouds),
* the simulated incline run, a synthetic stand-in for driving a walking
  robot on a slope: every non-trivial command from the 3x3x3 discretized
  command cube is issued several times at several starting orientations,
  with a gravity-aligned drift that couples the pose delta to the measured
  terrain attitude.  The run is array code: one block of normals, one
  row per record, and no per-record draw.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .em import FixedGaussianMixture
from .mixture import MAX_COORDINATE, check_coordinates, check_count
from .motion import CommandKey, DeltaPose, Standardizer, TerrainVector

SAMPLE_COLUMNS = ("cmd_long", "cmd_lat", "cmd_turn")
Z_COLUMNS = ("z_pitch", "z_roll")
X_COLUMNS = ("dx", "dy", "dz", "droll", "dpitch", "dyaw")

HEADER_WITH_Z = SAMPLE_COLUMNS + Z_COLUMNS + X_COLUMNS
HEADER_NO_Z = SAMPLE_COLUMNS + X_COLUMNS

# nominal displacement per unit command value, and the drift law constants;
# recorded in the generator metadata so learned models can be checked
# against the truth that produced the data
FORWARD_GAIN = 0.4
LATERAL_GAIN = 0.3
TURN_GAIN = 0.6


@dataclass(frozen=True)
class SampleRecord:
    """One observation: the command issued, the terrain measured before it
    ran (absent for limited-perception datasets), and the resulting pose
    delta."""

    command: CommandKey
    z: TerrainVector | None
    x: DeltaPose


def command_set() -> list[CommandKey]:
    """All 26 non-trivial commands of the discretized cube {-0.5, 0, +0.5}^3."""
    vals = (-0.5, 0.0, 0.5)
    return [
        CommandKey(a, b, c)
        for a in vals
        for b in vals
        for c in vals
        if not (a == 0.0 and b == 0.0 and c == 0.0)
    ]


def strip_z(records: list[SampleRecord]) -> list[SampleRecord]:
    """Limited-perception copy of a dataset: same commands and pose deltas,
    terrain dropped."""
    return [SampleRecord(r.command, None, r.x) for r in records]


# -- motion sample CSV ---------------------------------------------------------


def load_samples(path) -> list[SampleRecord]:
    """Read a motion sample CSV.  The header decides whether the records
    carry terrain vectors (HEADER_WITH_Z) or not (HEADER_NO_Z); data errors
    report the offending line number.  Lines starting with '#' are
    ignored."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [
            (lineno, row)
            for lineno, row in enumerate(csv.reader(f), start=1)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise ValueError(f"{path}: empty sample file")
    header_line, header = rows[0]
    header = tuple(h.strip() for h in header)
    if header == HEADER_WITH_Z:
        has_z = True
    elif header == HEADER_NO_Z:
        has_z = False
    else:
        raise ValueError(f"{path}:{header_line}: unrecognized header {','.join(header)!r}")
    records = []
    width = len(header)
    for lineno, row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}:{lineno}: non-finite cell")
        command = CommandKey(*vals[:3])
        if has_z:
            z = TerrainVector(*vals[3:5])
            x = DeltaPose(*vals[5:])
        else:
            z = None
            x = DeltaPose(*vals[3:])
        records.append(SampleRecord(command, z, x))
    return records


def write_samples(path, records: list[SampleRecord], comment: str | None = None) -> None:
    has_z = bool(records) and records[0].z is not None
    if any((r.z is not None) != has_z for r in records):
        raise ValueError("terrain presence must be uniform across records")
    with open(path, "w", newline="", encoding="utf-8") as f:
        if comment:
            f.write(f"# {comment}\n")
        writer = csv.writer(f)
        writer.writerow(HEADER_WITH_Z if has_z else HEADER_NO_Z)
        for r in records:
            row = list(r.command.as_tuple())
            if has_z:
                row += [r.z.pitch, r.z.roll]
            row += list(r.x.as_vector())
            writer.writerow([repr(float(v)) for v in row])


# -- plain numeric point files ----------------------------------------------------


def load_points(path, expect_cols: int | None = None) -> np.ndarray:
    """Read a whitespace- or comma-separated numeric table; '#' lines are
    comments."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite cell")
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: ragged row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    pts = np.array(rows)
    if expect_cols is not None and pts.shape[1] != expect_cols:
        raise ValueError(f"{path}: expected {expect_cols} columns, found {pts.shape[1]}")
    return pts


def write_points(path, points: np.ndarray, comment: str | None = None) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="utf-8") as f:
        if comment:
            f.write(f"# {comment}\n")
        for row in points:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def old_faithful_path() -> str:
    """Path of the bundled Old Faithful benchmark table."""
    return str(resources.files("dgmm").joinpath("data/old_faithful.txt"))


def load_old_faithful(path=None, standardize: bool = True):
    """Load the two-column geyser benchmark (eruption duration, waiting
    time).  With standardize, both columns are shifted and scaled to zero
    mean and unit variance and the (offset, scale) pair is returned
    alongside; otherwise the raw values are returned with (None, None).
    """
    pts = load_points(path if path is not None else old_faithful_path(), expect_cols=2)
    if not standardize:
        return pts, None, None
    std = Standardizer.fit(pts)
    return std.transform(pts), std.offset, std.scale


# -- synthetic generators --------------------------------------------------------


def sample_gmm(gmm: FixedGaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent points: categorical component choice by weight,
    then the component's lower Cholesky transform of unit normals, from the
    mixture's evaluation covariances (one batched factorization).  n must
    be an integer of at least 0; it is checked before any draw."""
    n = check_count(n, "n", 0)
    if n == 0:
        return np.empty((0, gmm.dim))
    comp = rng.choice(len(gmm), size=n, p=gmm.weights)
    normals = rng.standard_normal((n, gmm.dim))
    out = np.empty((n, gmm.dim))
    for j, chol in enumerate(np.linalg.cholesky(gmm._eval_cov)):
        mask = comp == j
        if mask.any():
            out[mask] = gmm._mean[j] + normals[mask] @ chol.T
    return out


def three_component_benchmark() -> FixedGaussianMixture:
    """Fixed 2-D, 3-component mixture used as the known generator for the
    merge-constant sweep experiments."""
    return FixedGaussianMixture(
        [0.4, 0.35, 0.25],
        [[-2.5, 0.0], [2.5, 2.0], [0.5, -2.5]],
        [[[0.6, 0.2], [0.2, 0.4]], [[0.5, -0.15], [-0.15, 0.7]], [[0.4, 0.0], [0.0, 0.4]]],
    )


@dataclass(frozen=True)
class InclineConfig:
    """Configuration of the simulated slope run."""

    slope_deg: float = 18.0
    orientations_deg: tuple[float, ...] = (0.0, 90.0, -90.0)
    reps_per_orientation: int = 5
    noise_scale: float = 0.02
    drift_gain: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.slope_deg <= 45.0:
            raise ValueError("slope_deg must lie in [0, 45]")
        check_count(self.reps_per_orientation, "reps_per_orientation", 1)
        # an infinite gain makes infinite pose deltas; a negative noise
        # scale a negative noise standard deviation in the metadata
        if not math.isfinite(self.drift_gain):
            raise ValueError("drift_gain must be finite")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and >= 0")
        orientations = tuple(float(o) for o in self.orientations_deg)
        if not (orientations and all(map(math.isfinite, orientations))):
            raise ValueError("orientations_deg must be a non-empty sequence of finite angles")
        object.__setattr__(self, "orientations_deg", orientations)


def simulate_incline(cfg: InclineConfig) -> list[SampleRecord]:
    """Generate one full slope run: every command x orientation x rep.

    The robot sits on a plane of the configured slope; its measured pitch
    and roll follow the starting orientation (orientation 90 deg faces
    straight downhill).  The pose delta is the command's nominal
    displacement plus a downhill drift proportional to the measured
    attitude (drift_gain) plus isotropic Gaussian noise (noise_scale).
    At zero slope the terrain vector is exactly zero and the drift
    vanishes, so the terrain block carries no information.

    Records run command by command (command_set's order), then
    orientation, then rep.  Their noise is one (N, 8) block of standard
    normals from default_rng(seed), row i record i's: pitch, roll, three
    position and three attitude values, the order a record-by-record
    loop draws them in.

    A noise_scale or drift_gain so large that a record would hold a NaN,
    infinite or overflowing coordinate (one that no model accepts, see
    mixture.check_rows) raises ValueError naming that parameter
    (_check_incline_rows), and no record is returned.
    """
    commands = command_set()
    slope = math.radians(cfg.slope_deg)
    # nominal displacement per command and attitude per orientation, from
    # math's sin and cos: numpy's can differ in the last bit, and a seeded
    # run keeps its records
    nominal = np.array([(FORWARD_GAIN * c.long, LATERAL_GAIN * c.lat, 0.0, 0.0, 0.0, TURN_GAIN * c.turn)
                        for c in commands])
    attitude = np.array([(-slope * math.sin(t), slope * math.cos(t))
                         for t in map(math.radians, cfg.orientations_deg)])
    per_command = len(attitude) * cfg.reps_per_orientation
    normals = np.random.default_rng(cfg.seed).standard_normal((len(commands) * per_command, 8))
    x = np.repeat(nominal, per_command, axis=0)
    z = np.tile(np.repeat(attitude, cfg.reps_per_orientation, axis=0), (len(commands), 1))
    # a huge noise_scale or drift_gain overflows here; the rows are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        z += cfg.noise_scale * slope * normals[:, :2]
        # gravity drift projected into the robot frame: nose-down slides
        # forward, right-side-down slides right
        x[:, 0] += cfg.drift_gain * -z[:, 0]
        x[:, 1] += cfg.drift_gain * z[:, 1]
        x[:, :3] += cfg.noise_scale * normals[:, 2:5]
        x[:, 3:] += 0.5 * cfg.noise_scale * normals[:, 5:]
    rows = np.concatenate([x, z], 1)
    _check_incline_rows(rows, cfg)
    return [SampleRecord(commands[i // per_command], TerrainVector(*row[6:]), DeltaPose(*row[:6]))
            for i, row in enumerate(rows.tolist())]


def _check_incline_rows(rows: np.ndarray, cfg: InclineConfig) -> None:
    """check_rows' rule on the rows (N, 8) of pose delta || terrain that
    simulate_incline generated, with a message that names the parameter at
    fault: ValueError("<parameter> = <value> is too large; simulated record
    i coordinate j ...") for the first row holding a NaN, infinite or
    overflowing coordinate.  The terrain and coordinates 2-5 are a nominal
    value plus noise, so noise_scale made them; dx and dy add the drift
    drift_gain * (-pitch) and drift_gain * roll, and drift_gain is named
    when that term is out of range by itself."""
    bad = ~(np.abs(rows) <= MAX_COORDINATE)
    if not bad.any():
        return
    i = int(np.argwhere(bad)[0, 0])
    pitch, roll = float(rows[i, 6]), float(rows[i, 7])
    drift = (cfg.drift_gain * -pitch, cfg.drift_gain * roll)
    name = "noise_scale"
    if not bad[i, 2:].any() and not all(abs(d) <= MAX_COORDINATE for d in drift):
        name = "drift_gain"
    check_coordinates(rows[i], f"{name} = {getattr(cfg, name)!r} is too large; simulated record {i}")


def incline_metadata(cfg: InclineConfig) -> dict:
    """Ground-truth description of the generator, for sidecar files."""
    return {
        "generator": "simulated-incline/1",
        "config": {
            "slope_deg": cfg.slope_deg,
            "orientations_deg": list(cfg.orientations_deg),
            "reps_per_orientation": cfg.reps_per_orientation,
            "noise_scale": cfg.noise_scale,
            "drift_gain": cfg.drift_gain,
            "seed": cfg.seed,
        },
        "truth": {
            "forward_gain": FORWARD_GAIN,
            "lateral_gain": LATERAL_GAIN,
            "turn_gain": TURN_GAIN,
            "drift_law": "dx += drift_gain * (-pitch); dy += drift_gain * roll",
            "z_noise_std": cfg.noise_scale * math.radians(cfg.slope_deg),
            "x_noise_std": [cfg.noise_scale] * 3 + [0.5 * cfg.noise_scale] * 3,
        },
        "n_records": 26 * len(cfg.orientations_deg) * cfg.reps_per_orientation,
    }
