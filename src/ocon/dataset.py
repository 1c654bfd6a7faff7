"""Measurement-file ingestion for the /hVd/ vowel corpus.

Handles filename decoding (speaker group, speaker number, ARPABet phoneme),
row parsing against a configurable column layout, the feature-set kinds and
usable-sample filtering by them, and per-class statistics.  All functions
are pure; records are immutable.  The module needs no numpy, so the
``ingest`` command does not load it.  Every text row -- of a measurement
file, a records CSV or ``ocon infer`` input -- splits into cells by one
rule, ``_split_row``: at commas if it has one, each cell stripped (an empty
cell stays ``""``), else at whitespace.
"""

import io
import math
from dataclasses import dataclass
from enum import Enum

from .configfile import build, load_config
from .errors import (
    MalformedFilename,
    MalformedRow,
    MissingColumn,
    NonNumericSpeakerId,
    OconError,
    UnknownGroupChar,
    UnknownPhonemeCode,
)
from .util import read_text

#: ARPABet vowel codes in label-id order (ids 0..11).
ARPABET_CODES = ("ae", "ah", "aw", "eh", "er", "ei", "ih", "iy", "oa", "oo", "uh", "uw")


class SpeakerGroup(Enum):
    """Speaker group, decodable from the leading filename character."""

    MAN = "m"
    BOY = "b"
    WOMAN = "w"
    GIRL = "g"

    @classmethod
    def from_char(cls, ch):
        try:
            return cls(ch)
        except ValueError:
            raise UnknownGroupChar(f"unknown speaker group character {ch!r}") from None

    @property
    def code(self):
        """Stable integer code (m=0, b=1, w=2, g=3)."""
        return _GROUP_ORDER.index(self)


_GROUP_ORDER = (SpeakerGroup.MAN, SpeakerGroup.BOY, SpeakerGroup.WOMAN, SpeakerGroup.GIRL)


@dataclass(frozen=True)
class PhonemeLabel:
    """A 2-character ARPABet vowel code with its integer label id."""

    arpabet: str
    label_id: int

    @classmethod
    def from_code(cls, code):
        try:
            return cls(code, ARPABET_CODES.index(code))
        except ValueError:
            raise UnknownPhonemeCode(f"unknown ARPABet code {code!r}") from None

    @classmethod
    def from_id(cls, label_id):
        return cls(ARPABET_CODES[label_id], label_id)


#: Frequency fields of a record, in canonical order.  ``f0_ss`` is the single
#: steady-state fundamental; formants are sampled at 10%, 50%, steady state,
#: and 80% of the vowel nucleus.
FEATURE_KEYS = (
    "f0_ss",
    "f1_10", "f1_50", "f1_ss", "f1_80",
    "f2_10", "f2_50", "f2_ss", "f2_80",
    "f3_10", "f3_50", "f3_ss", "f3_80",
)

#: Formant fields of the steady-state sets and of TT12, in component order.
_SS_RATIO_KEYS = ("f1_ss", "f2_ss", "f3_ss")
_TT_RATIO_KEYS = tuple(f"f{fmt}_{tp}" for fmt in (1, 2, 3) for tp in ("10", "50", "ss", "80"))


class FeatureSetKind(Enum):
    """Which feature vector is built from a record.

    - ``SS3``: F1/F0, F2/F0, F3/F0 at the vowel steady state (dim 3).
    - ``SS4``: SS3 plus the raw steady-state F0 in Hz as a fourth component (dim 4).
    - ``TT12``: F1..F3/F0 at 10%, 50%, steady state, 80% (dim 12), ordered
      formant-major: (F1@10, F1@50, F1@SS, F1@80, F2@10, ..., F3@80).
    """

    SS3 = "ss3"
    SS4 = "ss4"
    TT12 = "tt12"

    @property
    def dim(self):
        return {"ss3": 3, "ss4": 4, "tt12": 12}[self.value]

    @property
    def ratio_keys(self):
        """Formant fields divided by F0, in output-component order."""
        return _TT_RATIO_KEYS if self is FeatureSetKind.TT12 else _SS_RATIO_KEYS

    @property
    def required_keys(self):
        return ("f0_ss",) + self.ratio_keys

    @property
    def component_names(self):
        names = [f"{k}/f0" for k in self.ratio_keys]
        if self is FeatureSetKind.SS4:
            names.append("f0")
        return tuple(names)


@dataclass(frozen=True)
class FeatureRecord:
    """One utterance: decoded identity plus raw frequency measurements (Hz)."""

    group: SpeakerGroup
    speaker_no: int
    phoneme: PhonemeLabel
    f0_ss: float
    f1_10: float
    f1_50: float
    f1_ss: float
    f1_80: float
    f2_10: float
    f2_50: float
    f2_ss: float
    f2_80: float
    f3_10: float
    f3_50: float
    f3_ss: float
    f3_80: float

    def value(self, key):
        return getattr(self, key)

    @property
    def filename(self):
        return encode_filename(self.group, self.speaker_no, self.phoneme)


def decode_filename(name):
    """Decode a 5-character sample name into (group, speaker number, phoneme).

    Example: ``"m10ae"`` -> (MAN, 10, ae/0).
    """
    if len(name) != 5:
        raise MalformedFilename(f"expected 5 characters, got {name!r}")
    group = SpeakerGroup.from_char(name[0])
    if not (name[1:3].isascii() and name[1:3].isdigit()):
        raise NonNumericSpeakerId(f"speaker field {name[1:3]!r} is not numeric")
    phoneme = PhonemeLabel.from_code(name[3:5])
    return group, int(name[1:3]), phoneme


def encode_filename(group, speaker_no, phoneme):
    """Inverse of :func:`decode_filename` (provided for round-trip checks)."""
    if not 0 <= speaker_no <= 99:
        raise MalformedFilename(f"speaker number {speaker_no} not encodable in 2 digits")
    return f"{group.value}{speaker_no:02d}{phoneme.arpabet}"


@dataclass(frozen=True)
class ColumnLayout:
    """Maps frequency fields to column indices of a delimited data file.

    Column 0 is the 5-character sample name; numeric columns are indexed from
    there.  ``skip_rows`` header lines are ignored before parsing.  The layout
    file format is the standard config grammar, e.g.::

        skip_rows = 43
        f0_ss = 2
        f1_ss = 3
        ...
    """

    columns: dict
    skip_rows: int = 0

    def __post_init__(self):
        missing = [k for k in FEATURE_KEYS if k not in self.columns]
        if missing:
            raise ValueError(f"layout missing columns for: {', '.join(missing)}")
        bad = {k: v for k, v in self.columns.items()
               if not isinstance(v, int) or isinstance(v, bool) or v < 1}
        if bad:
            raise ValueError(f"layout indices must be integers >= 1: {bad}")
        if self.skip_rows < 0:
            raise ValueError(f"skip_rows must be >= 0, got {self.skip_rows}")

    @classmethod
    def hgcw_bigdata(cls):
        """Layout of the public distribution's full measurement table.

        After the filename, columns are: duration, steady-state F0, F1..F3 at
        steady state, then F1..F3 at 10% through 80% of vowel duration in 10%
        steps; a 43-line prose header precedes the data.
        """
        cols = {"f0_ss": 2, "f1_ss": 3, "f2_ss": 4, "f3_ss": 5}
        for i, fmt in enumerate(("f1", "f2", "f3")):
            cols[f"{fmt}_10"] = 6 + i
            cols[f"{fmt}_50"] = 18 + i
            cols[f"{fmt}_80"] = 27 + i
        return cls(columns=cols, skip_rows=43)

    @classmethod
    def from_file(cls, path):
        raw = load_config(path)
        skip = raw.pop("skip_rows", 0)
        return build(cls, {"columns": raw, "skip_rows": skip}, path)


def _split_row(line):
    if "," in line:
        return list(map(str.strip, line.split(",")))
    return line.split()


def data_rows(path, skip_rows=0):
    """(1-based line number, cells) of each non-blank line of the text file
    ``path`` after its first ``skip_rows`` lines."""
    lines = io.StringIO(read_text(path), newline=None)
    for line_no, line in enumerate(lines, start=1):
        if line_no > skip_rows and (cells := _split_row(line)):
            yield line_no, cells


def _cell(token, key, line_no):
    """One frequency cell: a finite, non-negative number, else MalformedRow."""
    try:
        value = float(token)
    except (TypeError, ValueError):
        raise MalformedRow(line_no, f"non-numeric cell {token!r} for {key}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite value {token!r} for {key}")
    if value < 0:
        raise MalformedRow(line_no, f"negative value {value} for {key}")
    return value


def load_dataset(path, layout=None):
    """Parse a delimited measurement file into one record per data row.

    No filtering happens here; rows with zero-valued cells are kept so that
    :func:`filter_usable` can report them.  Raises MalformedRow (with the
    1-based line number) on unparseable rows, including NaN, infinite and
    negative cells, and MissingColumn when the layout points past its end.
    """
    if layout is None:
        layout = ColumnLayout.hgcw_bigdata()
    records = []
    for line_no, tokens in data_rows(path, layout.skip_rows):
        try:
            group, speaker_no, phoneme = decode_filename(tokens[0])
        except OconError as err:
            raise MalformedRow(line_no, str(err)) from err
        try:
            values = {k: _cell(tokens[layout.columns[k]], k, line_no) for k in FEATURE_KEYS}
        except IndexError:
            short = next(k for k in FEATURE_KEYS if layout.columns[k] >= len(tokens))
            raise MissingColumn(short, line_no=line_no) from None
        records.append(FeatureRecord(group, speaker_no, phoneme, **values))
    return records


def filter_usable(records, feature_set):
    """Partition records into (kept, dropped) for the given feature set.

    A record is usable iff every field the feature set needs is strictly
    positive; zero encodes an upstream extraction failure.
    """
    required = feature_set.required_keys
    kept, dropped = [], []
    for rec in records:
        if all(rec.value(k) > 0 for k in required):
            kept.append(rec)
        else:
            dropped.append(rec)
    return kept, dropped


@dataclass(frozen=True)
class ClassStats:
    """Per-phoneme sample counts split by speaker group, plus totals."""

    counts: tuple  # counts[label_id][group_code]

    def count(self, label_id, group):
        return self.counts[label_id][group.code]

    def phoneme_total(self, label_id):
        return sum(self.counts[label_id])

    def group_total(self, group):
        return sum(row[group.code] for row in self.counts)

    @property
    def total(self):
        return sum(sum(row) for row in self.counts)

    def format_table(self):
        """Human-readable table (phoneme, samples, boys, girls, men, women, id)."""
        out = io.StringIO()
        header = f"{'Phoneme':<8}{'Samples':>8}{'Boys':>6}{'Girls':>7}{'Men':>6}{'Women':>7}{'Label':>7}"
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for label_id, code in enumerate(ARPABET_CODES):
            row = self.counts[label_id]
            out.write(
                f"{code:<8}{sum(row):>8}{row[SpeakerGroup.BOY.code]:>6}"
                f"{row[SpeakerGroup.GIRL.code]:>7}{row[SpeakerGroup.MAN.code]:>6}"
                f"{row[SpeakerGroup.WOMAN.code]:>7}{label_id:>7}\n"
            )
        out.write("-" * len(header) + "\n")
        out.write(
            f"{'TOTAL':<8}{self.total:>8}{self.group_total(SpeakerGroup.BOY):>6}"
            f"{self.group_total(SpeakerGroup.GIRL):>7}{self.group_total(SpeakerGroup.MAN):>6}"
            f"{self.group_total(SpeakerGroup.WOMAN):>7}\n"
        )
        return out.getvalue()

    @classmethod
    def tally(cls, pairs):
        """Counts of (phoneme label id, speaker-group code) pairs."""
        counts = [[0] * 4 for _ in ARPABET_CODES]
        for label_id, group_code in pairs:
            counts[label_id][group_code] += 1
        return cls(counts=tuple(tuple(row) for row in counts))


def class_statistics(records):
    """Count records per (phoneme, speaker group)."""
    return ClassStats.tally((rec.phoneme.label_id, rec.group.code) for rec in records)


# --- records file I/O (CLI plumbing) ---

_RECORD_COLUMNS = ("filename", "group", "speaker", "phoneme", "label_id") + FEATURE_KEYS


def write_records_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_RECORD_COLUMNS) + "\r\n")
        for rec in records:
            cells = [rec.filename, rec.group.value, str(rec.speaker_no), rec.phoneme.arpabet,
                     str(rec.phoneme.label_id)] + [repr(rec.value(k)) for k in FEATURE_KEYS]
            fh.write(",".join(cells) + "\r\n")


def read_records_csv(path):
    """Read a records CSV, whose first row names its columns.  A header
    without a needed column or naming one twice, a row whose cell count is
    not the header's, a bad group, speaker or phoneme cell, a ``filename``
    or ``label_id`` cell (when the header has that column) that is not the
    one ``write_records_csv`` derives from them, or a cell ``load_dataset``
    would refuse raises MalformedRow with the 1-based line number."""
    rows = data_rows(path)
    line_no, header = next(rows, (1, []))
    missing = [c for c in ("group", "speaker", "phoneme") + FEATURE_KEYS if c not in header]
    if missing:
        raise MalformedRow(line_no, f"header lacks column(s) {', '.join(missing)}")
    if twice := [c for i, c in enumerate(header) if c in header[:i]]:
        raise MalformedRow(line_no, f"header names column {twice[0]!r} twice")
    records = []
    for line_no, cells in rows:
        if len(cells) != len(header):
            raise MalformedRow(line_no, f"{len(cells)} cells where the header has {len(header)}")
        row = dict(zip(header, cells))
        try:
            group = SpeakerGroup.from_char(row["group"])
            speaker_no = int(row["speaker"])
            phoneme = PhonemeLabel.from_code(row["phoneme"])
            derived = {"filename": encode_filename(group, speaker_no, phoneme),
                       "label_id": str(phoneme.label_id)}
        except (OconError, ValueError) as err:
            raise MalformedRow(line_no, str(err)) from err
        for column, want in derived.items():
            if row.get(column, want) != want:
                raise MalformedRow(line_no, f"{column} {row[column]!r} contradicts group, "
                                            f"speaker and phoneme, which give {want!r}")
        values = {k: _cell(row[k], k, line_no) for k in FEATURE_KEYS}
        records.append(FeatureRecord(group, speaker_no, phoneme, **values))
    return records
