"""Run manifests: append-only JSON records tying outputs to their inputs.

``ingest``, ``preprocess``, ``search`` and ``train`` each write one manifest
file named after its UTC start time and config hash, and ``eval`` does with
``--out-dir``; ``infer`` and ``report`` write none.  A manifest lists the
command, the merged effective config, the master seed, content hashes of
every input and output file, and its start and finish times, which is
enough to re-run the command and to audit which run produced which artifact.
"""

import datetime as _dt
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import ManifestMismatch
from .util import sha256_file, sha256_json


@dataclass
class RunManifest:
    command: str
    config: dict
    master_seed: int
    started: str = ""
    finished: str = ""
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.started:
            self.started = _utc_now()

    @property
    def config_hash(self):
        return sha256_json(self.config)

    def add_input(self, path):
        self.inputs.append({"path": str(path), "sha256": sha256_file(path)})

    def add_output(self, path):
        self.outputs.append({"path": str(path), "sha256": sha256_file(path)})

    def to_dict(self):
        return {**asdict(self), "config_hash": self.config_hash}

    def write(self, directory):
        """Stamp ``finished``, then write into ``directory``; returns the path."""
        self.finished = _utc_now()
        os.makedirs(directory, exist_ok=True)
        stamp = self.started.replace(":", "").replace("-", "")
        path = os.path.join(directory,
                            f"manifest-{stamp}-{self.config_hash[:8]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        return path


def _utc_now():
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def read_manifest(path):
    """A manifest's JSON; a file that is not UTF-8 JSON raises ManifestMismatch."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ManifestMismatch(f"{path}: unreadable run manifest "
                               f"({type(err).__name__}: {err})") from None


def summarize_manifests(paths):
    """Aggregate table for the report command: one line per manifest.  A
    manifest without a key the table reads raises ManifestMismatch."""
    lines = [f"{'started':<28}{'command':<12}{'seed':<12}{'outputs':<8}hash"]
    for path in sorted(paths):
        m = read_manifest(path)
        try:
            lines.append(f"{m['started']:<28}{m['command']:<12}{m['master_seed']:<12}"
                         f"{len(m['outputs']):<8}{m['config_hash'][:12]}")
            for out in m["outputs"]:
                lines.append(f"    -> {out['path']} ({out['sha256'][:12]})")
            for key, value in sorted(m.get("extra", {}).items()):
                if isinstance(value, (int, float, str)):
                    lines.append(f"    {key}: {value}")
        except (AttributeError, KeyError, TypeError) as err:
            raise ManifestMismatch(f"{path}: unreadable run manifest "
                                   f"({type(err).__name__}: {err})") from None
    return "\n".join(lines)
