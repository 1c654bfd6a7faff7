"""Exception hierarchy for the workbench.

Every error raised by the library derives from :class:`OconError`.  The CLI
prints the class name on stderr so scripted harnesses can branch on it.
"""


class OconError(Exception):
    """Base class for all workbench errors."""


# --- dataset ingestion ---

class MalformedFilename(OconError):
    """Sample filename is not a 5-character group/speaker/phoneme code."""


class UnknownGroupChar(OconError):
    """Leading filename character is not one of m, b, w, g."""


class NonNumericSpeakerId(OconError):
    """Filename characters 2-3 are not digits."""


class UnknownPhonemeCode(OconError):
    """Filename characters 4-5 are not a known ARPABet vowel code."""


class MalformedRow(OconError):
    """A data row could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class MissingColumn(OconError):
    """A layout column index is beyond the row's column count."""

    def __init__(self, name, line_no=None):
        self.name = name
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"column for {name!r} missing{where}")


# --- feature pipeline ---

class UnusableRecord(OconError):
    """A required frequency field is zero or negative, or the features it
    gives are not finite (an F0 ratio that overflows)."""


class ConstantColumn(OconError):
    """Min-max fit found a column with no spread."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"column {index} is constant")


class DimensionMismatch(OconError):
    """Vector or matrix width does not match the expected dimensionality."""


class NonFiniteInput(OconError):
    """An input vector holds NaN or an infinity, which has no class."""


class VersionMismatch(OconError):
    """Serialized file carries an unsupported format version."""


class CorruptPayload(OconError):
    """Serialized file failed magic, length, or checksum validation."""


# --- balanced one-vs-rest encoding ---

class UnknownClass(OconError):
    """Requested true class is not present in the labeled matrix."""


class EmptyFalseClass(OconError):
    """A class other than the true class has no samples to draw from."""

    def __init__(self, class_name):
        self.class_name = class_name
        super().__init__(f"false class {class_name!r} has no samples")


class BalanceToleranceExceeded(OconError):
    """Even after capping, negatives cannot be brought near the positive count."""


# --- training orchestration ---

class TooFewSamples(OconError):
    """Requested split or fold structure would leave a part empty."""


class SearchFailed(OconError):
    """Every combination of a search stage has a failed cell: no winner."""


# --- ensemble ---

class ManifestMismatch(OconError):
    """A manifest lacks a key, or an ensemble directory disagrees with it."""


class MissingMember(OconError):
    """A member checkpoint listed in the manifest is absent."""

    def __init__(self, class_name):
        self.class_name = class_name
        super().__init__(f"member checkpoint for class {class_name!r} missing")


class PartialEnsemble(OconError):
    """One or more members diverged during ensemble training."""

    def __init__(self, failures, reports=None):
        self.failures = list(failures)
        self.reports = reports
        super().__init__("members diverged: " + ", ".join(str(f) for f in self.failures))


# --- evaluation ---

class SingleClassInput(OconError):
    """ROC requested on scores containing only one label value."""


class EmptyEvaluationSet(OconError):
    """Evaluation requested on an empty matrix."""
