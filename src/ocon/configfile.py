"""Plain-text declarative config files.

Grammar (one assignment per line)::

    # comment
    key = value
    nested.key = value

Values are parsed as JSON where possible (numbers, booleans, quoted strings,
lists like ``[1e-3, 1e-4]``); anything else is kept as a bare string, so
``optimizer = adam`` and ``optimizer = "adam"`` are equivalent.  Dotted keys
build nested dictionaries.  The same grammar serves run configs, column
layouts, and search-stage definitions.
"""

import json


def parse_value(raw):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def parse_config_text(text):
    """Parse config text into a (possibly nested) dict."""
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"config line {ln}: empty key")
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"config line {ln}: {key!r} conflicts with a scalar key")
        node[parts[-1]] = parse_value(raw)
    return out


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


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
