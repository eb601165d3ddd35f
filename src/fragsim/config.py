"""Line-oriented key = value configuration files.

Blank lines and '#' comments are ignored. A line whose key is `measure`
is handed whole to the measure grammar (it contains its own ';'-separated
fields); every other line is a single scalar or comma list. Unknown keys
are rejected so typos fail loudly.
"""

from .errors import ConfigError
from .measures import parse_measure

# SimConfig's fields, then the keys only a suite takes (fragsim verify)
_FLOAT_KEYS = ("alpha", "c", "eps", "t_end", "mass_floor", "initial_mass",
               "event_budget", "r")
_INT_KEYS = ("replicas", "seed", "max_fragments", "m_max", "n")
_LIST_KEYS = ("obs_times",)


def parse_config_text(text):
    """Parse config text into a dict of typed values (law under 'law')."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        value = line.split("=", 1)[1].strip()
        try:
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            elif key in _LIST_KEYS:
                out[key] = tuple(float(v) for v in value.split(",") if v.strip())
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: "
                              f"{exc.reason} at byte {exc.start}") from None
    return parse_config_text(text)
