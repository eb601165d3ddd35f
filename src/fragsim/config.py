"""Line-oriented key = value configuration files.

Blank lines and '#' comments are ignored. A line whose key is `measure`
is handed whole to the measure grammar (it contains its own ';'-separated
fields); every other line is a single scalar or comma list. Unknown keys
are rejected so typos fail loudly.
"""

from dataclasses import fields

from .errors import ConfigError
from .measures import parse_measure
from .simulator import SimConfig

_BY_TYPE = {float: float, int: int,
            tuple: lambda v: tuple(float(x) for x in v.split(",") if x.strip())}
# A parser per key: SimConfig's fields but law, by their annotated types,
# then the keys only a suite or the CLI takes
_PARSERS = {f.name: _BY_TYPE[f.type] for f in fields(SimConfig)
            if f.name != "law"}
_PARSERS.update(event_budget=float, r=float, m_max=int, n=int, seed=int,
                replicas=int)


def parse_config_text(text):
    """Parse config text into a dict of typed values (law under 'law').

    A text that is not a str, as None, raises ConfigError.
    """
    try:
        lines = text.splitlines()
    except AttributeError:
        raise ConfigError(f"config text {text!r} must be a str") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split("=", 1)[0].strip()
        if key == "measure":
            if "law" in out:
                raise ConfigError(f"line {lineno}: duplicate measure")
            out["law"] = parse_measure(line)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = line.split("=", 1)[1].strip()
        try:
            out[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path):
    """parse_config_text of the UTF-8 file at path; a path that is not a
    str or path, as None, raises ConfigError."""
    try:
        fh = open(path, encoding="utf-8")
    except TypeError:
        raise ConfigError(f"config path {path!r} must be a str or a path") \
            from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: "
                              f"{exc.reason} at byte {exc.start}") from None
    return parse_config_text(text)
