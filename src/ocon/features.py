"""Feature transforms: F0-ratio normalization, min-max scaling, matrix files.

The pipeline is ratio-first: each formant frequency is divided by the
utterance's steady-state F0, then the whole feature set is min-max scaled
into [0, 1].  Scaling is fit on the full processed dataset before any split
(this reproduces the reference pipeline; the train/test leakage this implies
is deliberate and documented).  Min-max is the only scaling: the files
still record it as ``"minmax"`` and refuse any other mode.  A
``ScalingRecord`` or ``FeatureMatrix`` checks its own arrays when it is
built, so one that exists is valid; ``load_matrix`` only translates a
refusal into CorruptPayload.  ``FeatureSetKind`` lives in ``ocon.dataset``
(record filtering needs it without numpy) and is re-exported here.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .dataset import ARPABET_CODES, FeatureSetKind, SpeakerGroup, filter_usable
from .errors import (ConstantColumn, CorruptPayload, DimensionMismatch, TooFewSamples,
                     UnusableRecord)
from .util import sha256_json

MATRIX_KIND = "feature_matrix"
MATRIX_VERSION = 1
#: The scaling mode matrix files and scaling records carry (v1 format key).
SCALING_MODE = "minmax"
#: The F0 mode matrix files and ``ensemble.json`` carry: raw Hz (v1 format key).
F0_MODE = "raw"


def ratio_matrix(records, kind):
    """(N, dim) ratio feature rows of ``records``, in record order.

    Every component is Fi(t)/F0 with the single steady-state F0, all rows in
    one numpy division; the SS4 variant appends the raw F0 in Hz.  Raises
    UnusableRecord naming the first record with a required field <= 0 or an
    output row that is not finite (a tiny but positive F0 such as 1e-320
    overflows its ratios; an infinite one is SS4's raw channel).
    """
    keys = kind.required_keys
    fields = np.array([[getattr(rec, k) for k in keys] for rec in records], dtype=np.float64)
    with np.errstate(all="ignore"):  # a zero or tiny F0 is refused below
        rows = fields[:, 1:] / fields[:, :1]
    if kind is FeatureSetKind.SS4:
        rows = np.concatenate((rows, fields[:, :1]), axis=1)
    nonpositive = (fields <= 0).any(axis=1)
    if (unusable := nonpositive | ~np.isfinite(rows).all(axis=1)).any():
        first = int(np.argmax(unusable))
        reason = ("has non-positive required fields" if nonpositive[first]
                  else "has a non-finite F0 ratio or F0")
        raise UnusableRecord(f"record {records[first].filename} {reason}")
    return rows


def normalize_by_f0(record, kind):
    """Ratio feature vector for one record: row 0 of ``ratio_matrix``."""
    return ratio_matrix([record], kind)[0]


@dataclass(frozen=True)
class ScalingRecord:
    """Per-column min-max scaling used to produce a matrix: lo/hi are the
    fitted per-column min and max (float64), application clamps into [0, 1].
    Bounds that are not 1-D of one length with hi > lo and a finite ``span =
    hi - lo`` raise ValueError: they would serve NaN or mirrored features."""

    lo: np.ndarray
    hi: np.ndarray
    span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, dtype=np.float64), np.asarray(self.hi, dtype=np.float64)
        with np.errstate(over="ignore"):
            if not (lo.ndim == 1 and lo.shape == hi.shape and (hi > lo).all()
                    and np.isfinite(span := hi - lo).all()):
                raise ValueError("scaling needs 1-D bounds of one length, hi > lo, finite hi - lo")
        self.__dict__.update(lo=lo, hi=hi, span=span)   # the class is frozen

    @property
    def dim(self):
        return len(self.lo)

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"expected {self.dim} columns, got {x.shape[-1]}")
        scaled = x - self.lo
        scaled /= self.span
        # the method skips np.clip's dispatch; same ufunc, so -0.0 stays -0.0
        return scaled.clip(0.0, 1.0, out=scaled)

    def to_dict(self):
        return {"mode": SCALING_MODE, "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d):
        """The record of ``to_dict``; another mode raises ValueError."""
        if d["mode"] != SCALING_MODE:
            raise ValueError(f"scaling mode {d['mode']!r} is not {SCALING_MODE!r}")
        return cls(d["lo"], d["hi"])

    def content_hash(self):
        return sha256_json(self.to_dict())


def fit_minmax(matrix):
    """Per-column (min, max) over the full ratio matrix.

    Requires at least 2 rows and spread in every column; a constant column
    raises ConstantColumn with its index.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise TooFewSamples("min-max fit needs a 2-D matrix with at least 2 rows")
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    flat = np.flatnonzero(hi <= lo)
    if flat.size:
        raise ConstantColumn(int(flat[0]))
    return ScalingRecord(lo=lo, hi=hi)


#: Label table for the speaker-group task (children = boys + girls).
SPEAKER_CLASS_NAMES = ("male", "female", "children")


@dataclass(frozen=True)
class FeatureMatrix:
    """Scaled feature vectors with labels and transform provenance.

    ``labels`` index into ``class_names`` (phoneme codes by default);
    ``groups`` keep the raw speaker-group code of each row so the 3-class
    speaker task can be derived from the same matrix (``speaker_view``).
    Arrays that do not fit each other raise DimensionMismatch; non-float64
    values, class names that are not strings, or labels and groups that
    are not 1-D integers in 0..K-1 and 0..3 raise ValueError.
    """

    values: np.ndarray          # (N, d) float64, scaled
    labels: np.ndarray          # (N,) int64
    groups: np.ndarray          # (N,) int64 speaker-group codes
    scaling: ScalingRecord
    feature_set: FeatureSetKind
    class_names: tuple = ARPABET_CODES

    def __post_init__(self):
        if self.values.dtype != np.float64:
            raise ValueError(f"values must be float64, not {self.values.dtype}")
        n, d = self.values.shape
        if d != self.feature_set.dim:
            raise DimensionMismatch(
                f"matrix width {d} != {self.feature_set.value} dim {self.feature_set.dim}")
        if len(self.labels) != n or len(self.groups) != n:
            raise DimensionMismatch("labels/groups length != row count")
        if self.scaling.dim != d:
            raise DimensionMismatch("scaling record width != matrix width")
        if not all(isinstance(name, str) for name in self.class_names):
            raise ValueError(f"class_names {self.class_names!r} must be strings")
        for name, n_codes in (("labels", self.n_classes), ("groups", len(SpeakerGroup))):
            codes = getattr(self, name)
            # a label past the class table would index out of it, a negative one wrap
            if not (np.issubdtype(codes.dtype, np.integer) and codes.ndim == 1
                    and (not codes.size or 0 <= codes.min() <= codes.max() < n_codes)):
                raise ValueError(f"{name} must be integers in 0..{n_codes - 1}")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_classes(self):
        return len(self.class_names)


def speaker_view(matrix):
    """The same rows labelled by speaker group: male = men, female = women,
    children = boys and girls pooled (``SPEAKER_CLASS_NAMES``)."""
    mapping = np.array([0, 2, 1, 2], dtype=np.int64)  # m, b, w, g -> male/children/female
    return replace(matrix, labels=mapping[matrix.groups], class_names=SPEAKER_CLASS_NAMES)


def build_feature_matrix(records, kind):
    """Filter, normalize, and stack records into a FeatureMatrix, min-max
    scaled by a fit on these rows.  Returns (matrix, dropped_records).  A
    record that gives a non-finite value raises UnusableRecord.
    """
    kept, dropped = filter_usable(records, kind)
    if not kept:
        raise UnusableRecord(f"no usable records for feature set {kind.value}")
    raw = ratio_matrix(kept, kind)
    scaling = fit_minmax(raw)
    labels = np.array([rec.phoneme.label_id for rec in kept], dtype=np.int64)
    groups = np.array([rec.group.code for rec in kept], dtype=np.int64)
    return FeatureMatrix(values=scaling.apply(raw), labels=labels, groups=groups,
                         scaling=scaling, feature_set=kind), dropped


def save_matrix(matrix, path):
    """Write a matrix file; the round-trip is bit-exact."""
    meta = {
        "feature_set": matrix.feature_set.value,
        "f0_mode": F0_MODE,
        "class_names": list(matrix.class_names),
        "scaling_mode": SCALING_MODE,
        "rows": int(matrix.n_rows),
        "dim": int(matrix.feature_set.dim),
    }
    container.write_container(path, MATRIX_KIND, MATRIX_VERSION, meta, {
        "values": matrix.values,
        "labels": matrix.labels,
        "groups": matrix.groups,
        "scaling_lo": matrix.scaling.lo,
        "scaling_hi": matrix.scaling.hi,
    })


def load_matrix(path):
    """Read a matrix file.  A missing or ill-typed array or metadata key,
    ``class_names`` that are not a list, a header whose ``rows``, ``dim`` or
    ``f0_mode`` do not fit the arrays, or arrays that ``ScalingRecord`` or
    ``FeatureMatrix`` refuse raise CorruptPayload naming the file."""
    _, meta, arrays = container.read_container(path, MATRIX_KIND, MATRIX_VERSION)
    try:
        names = meta["class_names"]
        if not isinstance(names, list):
            raise ValueError(f"class_names {names!r} is not a list")
        scaling = ScalingRecord.from_dict({"mode": meta["scaling_mode"],
                                           "lo": arrays["scaling_lo"], "hi": arrays["scaling_hi"]})
        matrix = FeatureMatrix(
            values=arrays["values"], labels=arrays["labels"], groups=arrays["groups"],
            scaling=scaling, feature_set=FeatureSetKind(meta["feature_set"]),
            class_names=tuple(names))
        header = (meta["rows"], meta["dim"], meta["f0_mode"])
        if header != (*matrix.values.shape, F0_MODE):
            raise ValueError(f"header {header} does not fit {matrix.values.shape} raw-F0 values")
    except (KeyError, TypeError) as err:
        raise CorruptPayload(f"{path}: bad matrix metadata or arrays ({err!r})") from err
    except (ValueError, DimensionMismatch) as err:
        raise CorruptPayload(f"{path}: {err}") from err
    return matrix
