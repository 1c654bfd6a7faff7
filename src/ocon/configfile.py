"""Plain-text declarative config files.

Grammar (one assignment per line)::

    # comment
    key = value
    nested.key = value

Values are parsed as JSON where possible (numbers, booleans, quoted strings,
lists like ``[1e-3, 1e-4]``); anything else is kept as a bare string, so
``optimizer = adam`` and ``optimizer = "adam"`` are equivalent.  Dotted keys
build nested dictionaries.  The same grammar serves run configs, column
layouts, and search-stage definitions.  ``build`` makes a config dataclass
of a parsed dict, refusing a key or value the class does not take.
"""

import json
from dataclasses import fields

from .errors import OconError
from .util import read_text

#: what a field of each type accepts besides its own type
_ALSO = {float: (int,), tuple: (list,)}


def parse_value(raw):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):     # RecursionError: nesting too deep
        return raw


def parse_config_text(text):
    """Parse config text into a (possibly nested) dict; a malformed line or
    a key assigned twice raises OconError naming the line."""
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise OconError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise OconError(f"line {ln}: empty key")
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise OconError(f"line {ln}: {key!r} conflicts with a scalar key")
        if parts[-1] in node:
            raise OconError(f"line {ln}: {key!r} is assigned twice")
        node[parts[-1]] = parse_value(raw)
    return out


def build(cls, raw, where):
    """``cls(**raw)``.  A key that is not a field of ``cls``, a value not of
    its field's type (an int passes for a float, a list for a tuple, None
    where the default is None) or a value ``cls`` refuses raises OconError
    naming ``where``, rather than a run on a default or a deep TypeError."""
    known = {f.name: f for f in fields(cls)}
    for key, value in raw.items():
        if key not in known:
            raise OconError(f"{where}: unknown key {key!r}")
        want = known[key].type
        fits = isinstance(value, (want, *_ALSO.get(want, ()))) and (
            want is bool or not isinstance(value, bool))
        if not (fits or value is None and known[key].default is None):
            raise OconError(f"{where}: {key} = {value!r} is not of type {want.__name__}")
    try:
        return cls(**raw)
    except (TypeError, ValueError, OverflowError) as err:
        raise OconError(f"{where}: {err}") from None


def load_config(path):
    """The config file at ``path``, parsed; bytes that are not UTF-8 or a
    malformed line raise OconError naming the file and the line."""
    try:
        return parse_config_text(read_text(path))
    except OconError as err:
        raise OconError(f"{path}: {err}") from None


def format_config(config, prefix=""):
    """Render a nested dict back into the config grammar (sorted keys)."""
    lines = []
    for key in sorted(config):
        value = config[key]
        full = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(format_config(value, prefix=full + "."))
        else:
            lines.append(f"{full} = {json.dumps(value)}")
    return "\n".join(line for line in lines if line)


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(config) + "\n")
