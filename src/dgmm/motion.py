"""Command-conditioned motion model.

For every discrete command the model keeps one dynamic Gaussian mixture
over the robot's change in pose.  Optionally each training vector is
augmented with a terrain measurement z = (pitch, roll) taken before the
command runs; the stored mixture is then a joint density over x || z (pose
delta block first, terrain block last) and querying conditions the joint
on the observed terrain:

    p(x | c, z) = p(x || z | c) / p(z | c)

Both sides of that ratio are mixtures of the same components, so the
conditional is again a Gaussian mixture: component i is conditioned on z
in closed form and reweighted by w_i times its terrain-block marginal
density at z (`conditional_motion_density` returns that mixture).
`log_density` evaluates the ratio itself, in log space, without building
that mixture or a marginal one: x || z is whitened once against the
joint's inverse upper factors, and the trailing z_dim entries of that
whitening are the terrain marginal's (see dgmm.mixture), so one pass gives
both sides of the ratio, per component, as the two columns of an (m, 2)
array s.  Each side is then one shifted weighted sum,
log sum_i w_i exp(s_i) = top + log(w @ exp(s - top)) with top the column's
maximum, taken for both columns in the same few array operations; the
support test is the unshifted sum of the marginal column, w @ exp(s[:, 1]),
which is 0 exactly where every component's terrain weight underflows.  A
model without terrain reads the same kernel, whose marginal column then
covers no coordinate and is 0, so its sum is the total weight and p(x | c)
is the same ratio.  It is the one query path: `motion_density` and
`conditional_density` are its exp, and it is the one place that checks a
query's command, pose delta and terrain vector.

Models are serialized to a single JSON document with exact decimal
round-trip of all floating point values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import asymmetric
from .mixture import (
    DynamicGaussianMixture,
    MixtureCore,
    _check_creation_cov_scale,
    check_batch,
    check_coordinates,
    check_count,
    check_k,
)

MODEL_FORMAT = "dgmm-motion-model/1"

TWO_PI = 2.0 * math.pi

#: A model file's component covariance may have eigenvalues down to
#: -PSD_TOLERANCE * max(1, largest |eigenvalue|), the rounding of exact moments.
PSD_TOLERANCE = 1e-8


class TerrainSupportError(ValueError):
    """Raised when a query terrain vector lies so far outside the training
    data that every component's terrain marginal underflows to zero."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(a + math.pi, TWO_PI)
    if w <= 0.0:
        w += TWO_PI
    return w - math.pi


@dataclass(frozen=True)
class CommandKey:
    """Discrete command <long, lat, turn>, each from {-0.5, 0, +0.5}."""

    long: float
    lat: float
    turn: float

    def __post_init__(self):
        for name in ("long", "lat", "turn"):
            v = float(getattr(self, name))
            if v not in (-0.5, 0.0, 0.5):
                raise ValueError(f"command {name} must be one of -0.5, 0, +0.5; got {v}")
            object.__setattr__(self, name, v)
        # the hash the dataclass would build from a tuple on every call,
        # built once: a live model looks its key up about six times per
        # control cycle
        object.__setattr__(self, "_hash", hash(self.as_tuple()))

    def __hash__(self):
        return self._hash

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.long, self.lat, self.turn)

    def is_noop(self) -> bool:
        return self.long == 0.0 and self.lat == 0.0 and self.turn == 0.0

    @classmethod
    def parse(cls, text: str) -> "CommandKey":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"command must be three comma-separated numbers, got {text!r}")
        return cls(*(float(p) for p in parts))

    def __str__(self):
        return f"{self.long:g},{self.lat:g},{self.turn:g}"


@dataclass(frozen=True)
class Pose:
    """Robot pose: position plus attitude angles stored in (-pi, pi]."""

    x: float
    y: float
    z: float
    roll: float
    pitch: float
    yaw: float

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))


@dataclass(frozen=True)
class DeltaPose:
    """Change in pose over one command, angles wrapped to (-pi, pi]."""

    dx: float
    dy: float
    dz: float
    droll: float
    dpitch: float
    dyaw: float

    def __post_init__(self):
        for name in ("droll", "dpitch", "dyaw"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    def as_vector(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz, self.droll, self.dpitch, self.dyaw])


@dataclass(frozen=True)
class TerrainVector:
    """Terrain proxy measured before a command runs: robot pitch and roll."""

    pitch: float
    roll: float

    def __post_init__(self):
        if not (math.isfinite(self.pitch) and math.isfinite(self.roll)):
            raise ValueError("terrain angles must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([self.pitch, self.roll])


def _query_vector(v, dim: int, name: str, what: str) -> np.ndarray:
    """A query's pose delta or terrain vector, in original units: a
    ValueError unless it has dim entries ("<name> has dimension n,
    expected dim"), then check_coordinates(v, what)."""
    v = (v.as_vector() if isinstance(v, (DeltaPose, TerrainVector))
         else np.asarray(v, dtype=float).reshape(-1))
    if v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return check_coordinates(v, what)


def pose_delta(prev: Pose, curr: Pose) -> DeltaPose:
    """Componentwise pose difference with angle wrap-around."""
    return DeltaPose(
        curr.x - prev.x,
        curr.y - prev.y,
        curr.z - prev.z,
        wrap_angle(curr.roll - prev.roll),
        wrap_angle(curr.pitch - prev.pitch),
        wrap_angle(curr.yaw - prev.yaw),
    )


class Standardizer:
    """Per-dimension affine map to roughly unit scale: u = (v - offset)/scale.

    The identity creation covariance of new mixture components is scale
    sensitive, so training data should be near unit scale.  Constant
    dimensions get scale 1 to stay well defined.  With offset 0 and scale 1
    the map is the identity bit for bit.  Offsets must be finite and scales
    positive and finite: an infinite scale would map every value to 0.
    """

    def __init__(self, offset, scale):
        self.offset = np.asarray(offset, dtype=float).reshape(-1)
        self.scale = np.asarray(scale, dtype=float).reshape(-1)
        if self.offset.shape != self.scale.shape:
            raise ValueError("offset and scale must have the same length")
        if not np.isfinite(self.offset).all():
            raise ValueError("offsets must be finite")
        # NaN fails both comparisons
        if not np.all((self.scale > 0) & (self.scale < math.inf)):
            raise ValueError("scales must be positive and finite")

    @classmethod
    def fit(cls, points: np.ndarray) -> "Standardizer":
        """Offset and scale of the points (N, D), 1-D points as one column:
        their mean and standard deviation.  A coordinate the mixture
        rejects (NaN, infinite, or with a square that overflows float64)
        raises add_sample's ValueError, and so does a column spread too
        widely to standardize, whose squared deviations overflow: its scale
        would be inf and the column would standardize to 0."""
        points = check_batch(points, "sample")
        offset = points.mean(axis=0)
        with np.errstate(over="ignore"):
            scale = points.std(axis=0)
        if not np.isfinite(scale).all():
            col = int(np.argmin(np.isfinite(scale)))
            raise ValueError(f"sample coordinate {col} is spread too widely to standardize: "
                             "its squared deviations overflow float64")
        scale = np.where(scale > 1e-12, scale, 1.0)
        return cls(offset, scale)

    def transform(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=float) - self.offset) / self.scale

    def log_jacobian(self) -> float:
        """log of the density change of variables over every dim:
        p_orig(v) = p_std(u) * exp(log_jacobian)."""
        return float(-np.sum(np.log(self.scale)))


class MotionModel:
    """Map from command keys to dynamic Gaussian mixtures over pose deltas,
    optionally augmented with a terrain block.

    The standardizer is fixed at construction: training vectors and
    queries, x || z or x alone for a model without terrain, go through it
    whole, and a query's log density gains its pose block's log Jacobian.
    Without one, the map is the identity, so there is one query path
    either way.

    k and creation_cov_scale are the constants of every mixture the model
    builds, checked here as DynamicGaussianMixture checks them."""

    def __init__(self, k: float, x_dim: int = 6, z_dim: int = 0,
                 standardizer: Standardizer | None = None,
                 creation_cov_scale: float = 1.0):
        self.x_dim = check_count(x_dim, "x_dim", 1)
        self.z_dim = check_count(z_dim, "z_dim", 0)
        if standardizer is not None and standardizer.offset.shape[0] != self.dim:
            raise ValueError("standardizer length must equal x_dim + z_dim")
        self.creation_cov_scale = _check_creation_cov_scale(creation_cov_scale)
        check_k(k)
        self.k = float(k)
        self.standardizer = standardizer
        # without a standardizer the map is the identity (offset 0, scale
        # 1), which changes no bit
        std = self._std = standardizer or Standardizer(np.zeros(self.dim), np.ones(self.dim))
        self._x_log_jacobian = Standardizer(std.offset[:self.x_dim], std.scale[:self.x_dim]).log_jacobian()
        self.models: dict[CommandKey, DynamicGaussianMixture] = {}

    @property
    def dim(self) -> int:
        return self.x_dim + self.z_dim

    @property
    def augmented(self) -> bool:
        return self.z_dim > 0

    def commands(self) -> list[CommandKey]:
        return sorted(self.models, key=CommandKey.as_tuple)

    def mixture_for(self, c: CommandKey) -> DynamicGaussianMixture:
        try:
            return self.models[c]
        except KeyError:
            raise KeyError(f"no model for command {c}") from None

    # -- training ----------------------------------------------------------

    def _check_terrain_given(self, z) -> None:
        """ValueError unless a terrain vector is given exactly when the
        model has a terrain block."""
        if (z is None) == self.augmented:
            raise ValueError("model is terrain-augmented; a terrain vector is required" if z is None
                             else "model has no terrain block; got a terrain vector")

    def record_sample(self, c: CommandKey, x: DeltaPose, z: TerrainVector | None,
                      rng: np.random.Generator) -> None:
        """Add one (command, pose delta, optional terrain) observation: its
        x || z vector, or x alone without terrain, standardized, is one
        training step (_record).

        A non-finite or overflowing sample raises ValueError (see
        DynamicGaussianMixture.add_sample) and leaves the model and rng
        untouched."""
        self._check_terrain_given(z)
        d = np.concatenate([x.as_vector(), z.as_vector()]) if self.augmented else x.as_vector()
        self._record(c, self._std.transform(d), rng)

    def _record(self, c: CommandKey, u: np.ndarray, rng: np.random.Generator) -> None:
        """The one training step, which record_sample and a batch fit
        (evaluation._fit) both take: add u, a vector in the model's internal
        space, to the mixture of command c by one add_sample, drawing from
        rng (a generator, or its mixture._Uniforms).

        The no-op command raises ValueError.  A command without a mixture
        gets a new one with the model's k and creation_cov_scale,
        registered only once it holds the sample, so a sample that
        add_sample rejects adds no command."""
        if c.is_noop():
            raise ValueError("the no-op command <0,0,0> is not trainable")
        mix = self.models.get(c)
        if mix is None:
            mix = DynamicGaussianMixture(self.dim, self.k, self.creation_cov_scale)
        mix.add_sample(u, rng)
        self.models[c] = mix

    def record_step(self, c: CommandKey, prev: Pose, curr: Pose,
                    z: TerrainVector | None, rng: np.random.Generator) -> None:
        """One cycle of the incremental update loop: difference the pose
        measurements taken around the command, then record the sample."""
        self.record_sample(c, pose_delta(prev, curr), z, rng)

    # -- queries -------------------------------------------------------------

    def motion_density(self, c: CommandKey, x) -> float:
        """p(x | c) for an un-augmented model, in original sample units:
        exp of log_density, which raises ValueError for a terrain model."""
        return math.exp(self.log_density(c, x))

    def _query(self, c: CommandKey, z, x=None):
        """(mixture of c, y, s) for a query, the one routine of both model
        kinds, in the model's internal space: the one whitening
        y_i = V_i (u - mean_i) (m, D) of u = x || z, or of x alone without
        terrain, and s (m, 2), log N(u; component i) in column 0 and
        log N(z; marginal_i) in column 1 (MixtureCore._split_log_density),
        which covers no coordinate without terrain.  Without x the pose
        block is zero; y[:, x_dim:] and column 1 are the same for any
        finite pose block, so every conditioned query decides support from
        the same numbers.

        z is required exactly when the model has a terrain block: a
        missing or superfluous one raises ValueError, and an unknown
        command then raises KeyError, before any vector is read.  A NaN,
        infinite or overflowing terrain coordinate, then query coordinate,
        raises ValueError naming it.  With terrain, where every w_i N(z;
        marginal_i) underflows to 0, that is where their sum, one dot
        product, is 0 -- exactly where the conditioned mixture would be
        empty -- raises TerrainSupportError.  A terrain-free query skips
        the concatenation and that test."""
        self._check_terrain_given(z)
        mix = self.mixture_for(c)
        zv = None if z is None else _query_vector(z, self.z_dim, "terrain vector", "terrain")
        u = np.zeros(self.x_dim) if x is None else _query_vector(x, self.x_dim, "query", "query")
        if zv is not None:
            u = np.concatenate([u, zv])
        y, s = mix._split_log_density(self._std.transform(u), self.x_dim)
        # the weights w_i N(z; marginal_i) that _conditional gives the components
        if zv is not None and not mix._w @ np.exp(s[:, 1]) > 0.0:
            raise TerrainSupportError(
                f"terrain {np.array2string(zv, precision=4)} is far outside the training support"
            )
        return mix, y, s

    def conditional_motion_density(self, c: CommandKey, z: TerrainVector) -> MixtureCore:
        """Mixture over the pose-delta block representing p(x | c, z).

        Component i of the joint is conditioned on the terrain block at z
        and reweighted by w_i times its terrain marginal at z, which makes
        the returned mixture pointwise equal to joint(x || z) / marginal(z).
        All components are conditioned in one batched pass
        (MixtureCore._conditional).  Lives in the model's internal
        (possibly standardized) space; use conditional_density for values
        in original units.  A model without terrain raises ValueError
        ("model has no terrain block"), and a NaN, infinite or overflowing
        terrain coordinate raises ValueError naming it.
        """
        if not self.augmented:
            raise ValueError("model has no terrain block")
        joint, y, s = self._query(c, z)
        return joint._conditional(self.x_dim, y, s)

    def conditional_density(self, c: CommandKey, x, z: TerrainVector) -> float:
        """p(x | c, z) in original sample units: exp of log_density, so it
        builds no conditioned mixture and checks its input as that does."""
        return math.exp(self.log_density(c, x, z))

    def log_density(self, c: CommandKey, x, z: TerrainVector | None = None) -> float:
        """log p(x | c[, z]) in original units, summed in log space: finite
        even where the density itself underflows to 0.  A NaN, infinite or
        overflowing query coordinate raises ValueError naming it.

        With terrain this is the ratio joint(x || z) / marginal(z) in log
        space, from one whitening of x || z: no conditioned or marginal
        mixture is built.  Each side is log sum_i w_i exp(s_i) over a column
        of _split_log_density's s, shifted by the column's maximum
        (MixtureCore._log_ratio), so no sum overflows or underflows to 0.
        Without terrain the same kernel has an empty column 1, whose sum is
        the total weight, so it is one path for both, and the one
        MixtureCore.log_density takes for one point.  Both kinds of model
        take the one query routine, _query, which conditional_motion_density
        shares, so it raises TerrainSupportError exactly where that does; a
        bad x is reported before an unsupported z.  z is required exactly
        when the model has a terrain block: a missing or superfluous one
        raises ValueError."""
        mix, _, s = self._query(c, z, x)
        return mix._log_ratio(s) + self._x_log_jacobian

    # -- persistence -----------------------------------------------------------

    def to_dict(self, invocation: dict | None = None) -> dict:
        """The model file's document.  A model file holds finite numbers
        only, so a model whose k is not finite (k = inf is valid in memory)
        raises ValueError naming k, as from_dict would reject its file."""
        if not math.isfinite(self.k):
            raise ValueError(f"k = {self.k!r} cannot be written to a model file: it must be finite")
        doc = {
            "format": MODEL_FORMAT,
            "k": self.k,
            "layout": {"x_dim": self.x_dim, "z_dim": self.z_dim},
            "creation_cov_scale": self.creation_cov_scale,
            "standardizer": None
            if self.standardizer is None
            else {
                "offset": self.standardizer.offset.tolist(),
                "scale": self.standardizer.scale.tolist(),
            },
            "commands": [
                {"key": list(c.as_tuple()),
                 "components": _component_docs(self.models[c])}
                for c in self.commands()
            ],
        }
        if invocation is not None:
            doc["invocation"] = invocation
        return doc

    def save(self, path, invocation: dict | None = None) -> None:
        """Write the model file; the document is built first, so a model
        to_dict rejects leaves no file."""
        doc = self.to_dict(invocation)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "MotionModel":
        if not isinstance(doc, dict):
            _fail("<root>", "not a JSON object")
        if doc.get("format") != MODEL_FORMAT:
            _fail("format", f"expected {MODEL_FORMAT!r}, got {doc.get('format')!r}")
        k = _expect_number(doc, "k")
        if not k >= 0:
            _fail("k", "must be non-negative")
        layout = doc.get("layout")
        if not isinstance(layout, dict):
            _fail("layout", "missing or not an object")
        x_dim = _expect_count(layout, "x_dim", 1, prefix="layout.")
        z_dim = _expect_count(layout, "z_dim", 0, prefix="layout.")
        dim = x_dim + z_dim
        if "creation_cov_scale" in doc:
            scale = _expect_number(doc, "creation_cov_scale")
            if scale <= 0:
                _fail("creation_cov_scale", "must be positive")
        else:
            scale = 1.0
        std = None
        raw_std = doc.get("standardizer")
        if raw_std is not None:
            if not isinstance(raw_std, dict):
                _fail("standardizer", "not an object or null")
            offset = _expect_floats(raw_std, "offset", dim, prefix="standardizer.")
            std_scale = _expect_floats(raw_std, "scale", dim, prefix="standardizer.")
            if any(s <= 0 for s in std_scale):
                _fail("standardizer.scale", "entries must be positive")
            std = Standardizer(offset, std_scale)
        mm = cls(k=k, x_dim=x_dim, z_dim=z_dim, standardizer=std, creation_cov_scale=scale)
        commands = doc.get("commands")
        if not isinstance(commands, list):
            _fail("commands", "missing or not a list")
        for ci, entry in enumerate(commands):
            where = f"commands[{ci}]"
            if not isinstance(entry, dict):
                _fail(where, "not an object")
            key = _expect_floats(entry, "key", 3, prefix=where + ".")
            try:
                command = CommandKey(*key)
            except ValueError as exc:
                _fail(f"{where}.key", str(exc))
            if command.is_noop():
                _fail(f"{where}.key", "the no-op command <0,0,0> is not trainable")
            if command in mm.models:
                _fail(f"{where}.key", "duplicate command key")
            comps_raw = entry.get("components")
            if not isinstance(comps_raw, list):
                _fail(f"{where}.components", "missing or not a list")
            if not comps_raw:
                _fail(f"{where}.components", "empty: a trained command has at least one component")
            w, means, covs, nulls = [], [], [], []
            for gi, comp in enumerate(comps_raw):
                cwhere = f"{where}.components[{gi}]"
                if not isinstance(comp, dict):
                    _fail(cwhere, "not an object")
                w.append(_expect_number(comp, "w", prefix=cwhere + "."))
                if w[-1] <= 0:
                    _fail(f"{cwhere}.w", "must be a positive finite number")
                means.append(_expect_floats(comp, "mean", dim, prefix=cwhere + "."))
                covs.append(_expect_floats(comp, "cov", dim * dim, prefix=cwhere + "."))
                # absent: the model's creation_cov_scale * I; null: none
                nulls.append("creation_cov" in comp)
                if comp.get("creation_cov") is not None:
                    _fail(f"{cwhere}.creation_cov", "must be absent (the model's creation_cov_scale * I) "
                                                    "or null (none): a matrix is not accepted")
                if nulls[-1] != nulls[0]:
                    _fail(f"{cwhere}.creation_cov", "every component of a command must leave it out, "
                                                    "or every one must give null")
            # the command's covariances are checked together, in one pass each
            covs = np.array(covs).reshape(-1, dim, dim)
            _fail_first_cov(where, asymmetric(covs), "cov is not symmetric")
            # exact moments are PSD, rank-deficient ones up to rounding
            eig = np.linalg.eigvalsh(covs)
            _fail_first_cov(where, eig[:, 0] < -PSD_TOLERANCE * np.maximum(1.0, np.abs(eig).max(axis=1)),
                            "not positive semidefinite")
            mm.models[command] = DynamicGaussianMixture._from_arrays(
                np.array(w), np.array(means), covs, mm.k, None if nulls[0] else mm.creation_cov_scale)
        return mm

    @classmethod
    def load(cls, path) -> "MotionModel":
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"model file: field '<root>': invalid JSON ({exc})") from exc
        return cls.from_dict(doc)


def _component_docs(mix: DynamicGaussianMixture) -> list[dict]:
    """The components of one command in a model file, one per row of the
    mixture's arrays.  Every component of a mixture without a creation
    covariance (a hand-built one) has creation_cov null; no other has the
    key, as the model's creation_cov_scale * I is every mixture's, so files
    of models trained online hold exactly the moments."""
    none = {} if mix.creation_cov_scale is not None else {"creation_cov": None}
    rows = zip(mix._w.tolist(), mix._mean.tolist(), mix._cov.reshape(len(mix), -1).tolist())
    return [{"w": w, "mean": mean, "cov": cov, **none} for w, mean, cov in rows]


def _fail(field: str, why: str):
    raise ValueError(f"model file: field '{field}': {why}")


def _fail_first_cov(where: str, bad: np.ndarray, why: str) -> None:
    """_fail naming the covariance of the first component of command
    `where` that bad (m,) flags, if any."""
    if bad.any():
        _fail(f"{where}.components[{int(bad.argmax())}].cov", why)


def _finite_number(val) -> bool:
    """True for a JSON number (int or float, not a boolean) that is a
    finite float64: an int too large to convert, such as 10**400, is not."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _expect_number(obj: dict, name: str, prefix: str = "") -> float:
    val = obj.get(name)
    if not _finite_number(val):
        _fail(prefix + name, "missing or not a finite number")
    return float(val)


def _expect_count(obj: dict, name: str, low: int, prefix: str = "") -> int:
    val = _expect_number(obj, name, prefix)
    if not (val.is_integer() and val >= low):
        _fail(prefix + name, f"must be an integer >= {low}")
    return int(val)


def _expect_floats(obj: dict, name: str, length: int, prefix: str = "") -> np.ndarray:
    """The list obj[name] of `length` finite numbers (JSON ints or floats,
    not booleans) as a float array.  The numbers are checked in one pass
    over their types and one over their values; only a list that fails
    is walked entry by entry, to name its first bad entry."""
    val = obj.get(name)
    if not isinstance(val, list) or len(val) != length:
        _fail(prefix + name, f"missing or not a list of {length} numbers")
    if set(map(type, val)) <= {float, int}:
        try:
            out = np.array(val, dtype=float)
        except OverflowError:  # an int beyond float64's range, named below
            out = None
        if out is not None and np.isfinite(out).all():
            return out
    for i, v in enumerate(val):
        if not _finite_number(v):
            _fail(f"{prefix}{name}[{i}]", "not a finite number")
    # subclasses of int or float, from a document not read from JSON
    return np.array(val, dtype=float)

