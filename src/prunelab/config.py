"""The experiment config format: one field table for every kind.

Each field of each kind has a default and a check.  `load_config` overlays
a JSON file and overrides on the defaults and keeps the values as given, so
a report's config block shows them unchanged; `parse_config` reads them
into the values a runner uses.  Every invalid value raises ConfigError,
whose message names the field, what it must be and what it was.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

__all__ = ["ConfigError", "EXPERIMENT_KINDS", "default_config", "load_config", "parse_config"]

_SQRT3 = math.sqrt(3.0)
DEFAULT_SEED = 31415926


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class _Check(NamedTuple):
    """What a valid value is (completing "<field> must be ...") and the
    parser that returns the value a runner uses; the parser raises
    TypeError or ValueError for an invalid value."""

    desc: str
    parse: Callable

    def __call__(self, value):
        return self.parse(value)


def _valid(value, ok: bool):
    if not ok:
        raise ValueError(value)
    return value


def _int(lo: int, hi: float = math.inf, desc: str = "") -> _Check:
    def parse(v):
        return _valid(v, isinstance(v, int) and not isinstance(v, bool) and lo <= v < hi)

    return _Check(desc or f"an integer >= {lo}", parse)


def _num(lo: float = -math.inf, hi: float = math.inf) -> _Check:
    """A finite number strictly between lo and hi, read as a float."""

    def parse(v):
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and lo < v < hi and math.isfinite(v)
        return float(_valid(v, ok))

    bounds = "" if lo == -math.inf else f" > {lo:g}" if hi == math.inf else f" in ({lo:g}, {hi:g})"
    return _Check("a number" + bounds, parse)


def _probability(v) -> float:
    return _valid(_num()(v), 0.0 <= v <= 1.0)


def _choice(*options: str) -> _Check:
    return _Check("one of " + ", ".join(options), lambda v: _valid(v, v in options))


def _list(of: str, item) -> _Check:
    """A nonempty list, read as a tuple of items; `of` names the items."""
    return _Check(f"a nonempty list of {of}",
                  lambda v: tuple(map(item, _valid(v, isinstance(v, list) and len(v) > 0))))


def _row(*items) -> Callable:
    # a list of len(items) entries, each read by its own check
    return lambda v: tuple(c(x) for c, x in zip(items, _valid(v, isinstance(v, list) and len(v) == len(items))))


def _optional(check) -> Callable:
    return lambda v: None if v is None else check(v)


def _order_case(v) -> tuple:
    n, r, p = _row(_int(1), _int(1), _int(1))(v)
    return _valid((n, r, p), r <= n)


def _section(fields: dict) -> tuple:
    """A bounds section's (default, check): null or {} skips the section,
    any other value is an object with exactly these fields."""

    def parse(v):
        return None if v is None or v == {} else _parse(fields, _valid(v, isinstance(v, dict)))

    default = {key: value for key, (value, _) in fields.items()}
    return default, _Check("null or an object with fields " + ", ".join(fields), parse)


def _parse(fields: dict, doc: dict) -> SimpleNamespace:
    """Every field of doc read by its check; errors in a section name the
    field as section.field."""
    values = {}
    for key, (_, check) in fields.items():
        if key not in doc:
            raise ConfigError(f"{key} is missing")
        try:
            values[key] = check(doc[key])
        except ConfigError as exc:
            raise ConfigError(f"{key}.{exc}") from None
        except (TypeError, ValueError, ArithmeticError):
            raise ConfigError(f"{key} must be {check.desc}, got {doc[key]!r}") from None
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{key} is not a known field")
    return SimpleNamespace(**values)


_ORDER_STAT_DEFAULT_CASES = [
    [4, 1, 1], [4, 4, 1], [4, 2, 2],
    [16, 1, 1], [16, 8, 1], [16, 16, 2],
    [64, 4, 1], [64, 32, 2], [64, 64, 1],
    [256, 16, 1], [256, 128, 2], [256, 256, 1],
    [1024, 1, 1], [1024, 32, 1], [1024, 512, 2], [1024, 1024, 1],
    [4096, 64, 1], [4096, 1024, 1], [4096, 2048, 2], [4096, 4096, 2],
]

_SEED = (DEFAULT_SEED, _int(0, 2**64, "an integer in [0, 2^64)"))


def _count(lo: int) -> _Check:
    # numpy's index range bounds the counts no array grows with: samples,
    # trials and instances run chunk by chunk, a depth sizes a list of layers
    return _int(lo, 2**63, f"an integer >= {lo} and < 2^63")


# kind -> field -> (default, check)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "table2": {
        "rows": (
            [[32, 32, 1.0], [32, 32, _SQRT3], [128, 128, 1.0], [512, 512, _SQRT3]],
            _list("[n1, n2, K] rows with integers n1, n2 >= 1 and a number K > 0", _row(_int(1), _int(1), _num(0))),
        ),
        "trials": (1000, _int(100)),
        "quantiles": ([0.95, 0.99, 0.999, 0.9999], _list("numbers in (0, 1)", _num(0, 1))),
        "seed": _SEED,
    },
    "table3": {
        # [d, kind, scale, alpha]: variance = scale / d; alpha (or null)
        # prunes floor(d^(2 - alpha)) entries per draw
        "rows": (
            [[32, "uniform", 1.0, None], [512, "gaussian", 1.0, None], [256, "gaussian", 1.0, 0.5]],
            _list(
                "[d, kind, scale, alpha] rows with an integer d >= 1, kind uniform or gaussian, "
                "a number scale > 0 and alpha null or in (0, 2)",
                _row(_int(1), _choice("uniform", "gaussian"), _num(0), _optional(_num(0, 2))),
            ),
        ),
        "trials": (500, _int(100)),
        "seed": _SEED,
    },
    "order-stats": {
        "cases": (_ORDER_STAT_DEFAULT_CASES, _list("[n, r, p] cases with integers 1 <= r <= n and p >= 1", _order_case)),
        "trials": (100_000, _count(2)),  # one trial gives no standard error
        "half_width": (1.0, _num(0)),
        "seed": _SEED,
    },
    "balls-bins": {
        # the throws are drawn as int32
        "cases": (
            [[4, 8], [32, 111], [64, 267]],
            _list("[bins, balls] pairs of integers >= 1 with bins < 2^31", _row(_int(1, 2**31), _int(1))),
        ),
        "trials": (10_000, _count(1)),
        "seed": _SEED,
    },
    "circulant-equiv": {
        "instances": (50, _count(1)),
        "max_channels": (3, _int(1)),
        "max_spatial": (8, _int(2)),
        "seed": _SEED,
        "forward_tol": (1e-12, _num(0)),
        "norm_rel_tol": (1e-8, _num(0)),
    },
    "fcn-sweep": {
        "depth": (4, _count(3)),
        "widths": ([64, 128, 256], _list("integers >= 1", _int(1))),
        "d_in": (16, _int(1)),
        "d_out": (16, _int(1)),
        "alpha": (0.5, _num()),
        "scheme": (
            "magnitude-layerwise",
            _choice("magnitude-layerwise", "magnitude-global", "random-with-replacement", "random-without-replacement"),
        ),
        "activation": ("relu", _choice("relu", "tanh", "identity")),
        "xavier_k": (1.0, _num(0)),
        "trials": (50, _count(1)),
        "samples": (1000, _count(1)),
        "seed": _SEED,
    },
    "cnn-sweep": {
        "depth": (3, _count(3)),
        # thm3_alpha_constraint is defined for d >= 3
        "channels": ([16, 32, 64], _list("integers >= 3", _int(3))),
        "d_in": (3, _int(1)),
        "d_out": (10, _int(1)),
        "spatial": (8, _int(2)),
        "kernel": (3, _int(1)),
        "alpha": (0.6, _num()),
        "moment_c1": (1.0, _num(0)),
        "weight_kind": ("gaussian", _choice("gaussian", "uniform")),
        "trials": (30, _count(1)),
        "samples": (1000, _count(1)),
        "beta1": (0.1, _num()),
        "beta2": (0.05, _num()),
        "explicit_norm_limit": (1500, _int(0)),
        "seed": _SEED,
    },
    "bounds": {
        "thm1": _section({
            "l": (4, _int(1)), "lipschitz": ([1.0, 1.0, 1.0, 1.0], _list("numbers", _num())),
            "alpha": (0.5, _num()), "eps": (0.1, _num()), "delta": (0.1, _num()),
            "c0": (1.16, _num(0)), "c2": (3.03, _num(0)), "delta0": (0.029, _num(0)),
        }),
        "thm2": _section({
            "l": (4, _int(1)), "d": (1024, _int(1)), "widths": ([1024, 1024, 1024], _list("integers >= 1", _int(1))),
            "alpha": (0.5, _num()), "c2": (1.61, _num()), "deltas": ([0.01, 0.01, 0.01, 0.01], _list("numbers in [0, 1]", _probability)),
        }),
        "thm3": _section({
            "l": (3, _int(1)), "d": (256, _int(1)), "p": (32, _int(1)), "q": (3, _int(1)), "p0": (32, _int(1)),
            "lipschitz": (1.0, _num()), "alpha": (0.6, _num()), "beta1": (0.1, _num()), "beta2": (0.05, _num()),
            "c3": (0.6, _num()), "c4": (0.6, _num()), "c5": (0.6, _num()),
        }),
    },
    "oracle-suite": {
        "seed": _SEED,
        "trials": (20_000, _count(2)),  # handed to its order-stats sub-run
    },
}

EXPERIMENT_KINDS = tuple(_SCHEMA)


def _fields(kind: str) -> dict:
    """The field table of `kind`; the one check that the kind is known."""
    if kind not in _SCHEMA:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {', '.join(EXPERIMENT_KINDS)}")
    return _SCHEMA[kind]


def default_config(kind: str) -> dict:
    # deep copy through JSON
    return json.loads(json.dumps({key: default for key, (default, _) in _fields(kind).items()}))


def load_config(kind: str, path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with an optional JSON file, overlaid with explicit
    overrides.  A file that cannot be read, decoded or parsed, unknown keys
    and invalid values are rejected; the config keeps the values as given."""
    cfg = default_config(kind)
    layers = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                layers.append(json.load(fh))
        except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        layers.append({k: v for k, v in overrides.items() if v is not None})
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError("config document must be a JSON object")
        cfg.update(layer)
    parse_config(kind, cfg)
    return cfg


def parse_config(kind: str, cfg: dict) -> SimpleNamespace:
    """The values the runner of `kind` uses, one attribute per field; a
    bounds section is a namespace or None."""
    return _parse(_fields(kind), cfg)
