"""Flat key-value config files, shipped data access, and CSV helpers.

Config format: one ``key = value`` per line, ``#`` starts a comment, no
nesting. Caps and grid entries spell unbounded as the literal ``inf``. A
command checks its config once, by :func:`load`, which builds the model, the
coupling config, the cost factors and the sweep settings from it; a sweep holds
the :class:`Config` it returns. Every CSV fsilab writes goes through
:func:`write_csv` (comma-separated, ``.`` decimal point, LF line endings,
UTF-8, no quoting, fields by :func:`fmt`). Every table is read through
:func:`read_csv_rows`, which checks each row's field count against the header,
and its fields by :func:`parse_field`, which names the column of one that does
not parse.
"""

from __future__ import annotations

import importlib.resources
import inspect
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, SweepSpecError, TableParseError
from .interface import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    caps_list,
    parse_cap,
    require_count,
)
from .costmodel import CostFactors
from .models import LinearToyModel, Tube1DModel, Tube1DParams
from .models.tube import DriverKind

# ---------------------------------------------------------------------------
# config files


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TableParseError(f"{source}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise TableParseError(f"{source}:{lineno}: empty key")
        cfg[key] = value.strip()
    return cfg


def parse_config(path) -> dict:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def _enum(kind):
    """Parser of a config value naming a member of ``kind`` by its value."""
    return lambda text: kind(text.lower())


def _timing(text: str) -> str:
    mode = text.lower()
    if mode not in ("measured", "modeled"):
        raise ContractError(f"unknown timing mode {mode!r}")
    return mode


def _workers(text: str) -> int:
    count = int(text)
    require_count(count, "workers", 1)
    return count


# a parameter's parser, by its annotation
_PARSERS = {"float": float, "int": int, "Cap": parse_cap,
            **{kind.__name__: _enum(kind) for kind in (AccelKind, CriterionKind, DriverKind)}}


def _keys(target, prefix: str = "") -> dict:
    """``{prefix + keyword: (keyword, parser)}`` for each keyword of ``target``."""
    return {prefix + name: (name, _PARSERS[p.annotation])
            for name, p in inspect.signature(target).parameters.items()}


def _tube(**params) -> Tube1DModel:
    return Tube1DModel(Tube1DParams(**params))


_COUPLING_KEYS = _keys(CouplingConfig)
_COST_KEYS = _keys(CostFactors, prefix="cost_")
# model name -> (its builder, the keys the builder takes): the tube's are the
# fields of Tube1DParams, the linear toy's the keywords of LinearToyModel
_MODELS = {"tube1d": (_tube, _keys(Tube1DParams)),
           "linear_toy": (LinearToyModel, _keys(LinearToyModel))}
# what SweepSpec reads; every load parses them, and a value that does not parse is a
# SweepSpecError naming its key
_SWEEP_KEYS = {"grid_f": ("grid_f", caps_list), "grid_s": ("grid_s", caps_list),
               "workers": ("workers", _workers), "timing": ("timing", _timing)}
# model name -> every key its config may set
_ALLOWED_KEYS = {name: frozenset({"model", *model_keys, *_COUPLING_KEYS, *_COST_KEYS,
                                  *_SWEEP_KEYS})
                 for name, (_, model_keys) in _MODELS.items()}


def _kwargs(cfg: dict, keys: dict, error=ContractError) -> dict:
    """Keyword arguments from the keys of ``keys`` that ``cfg`` sets, so a key left out
    takes the receiver's default. A value that does not parse raises ``error``."""
    out = {}
    for key, (name, parse) in keys.items():
        if key not in cfg:
            continue
        try:
            out[name] = parse(cfg[key])
        except (ValueError, ContractError) as exc:
            raise error(f"config key {key!r}: {exc}") from exc
    return out


@dataclass(frozen=True)
class Config:
    """What a checked config builds."""

    model: object
    coupling: CouplingConfig
    factors: CostFactors | None  # None without cost_* keys
    sweep: dict  # the sweep settings it sets, parsed, by key


def load(cfg: dict) -> Config:
    """Check ``cfg`` once and build its model, coupling config, cost factors and sweep
    settings. A key that neither its model nor a coupling, cost or sweep setting reads
    is rejected, naming the model it belongs to or else the nearest key it could mean."""
    name = cfg.get("model", "tube1d").lower()
    if name not in _MODELS:
        raise ContractError(f"unknown model {name!r} (expected {', '.join(_MODELS)})")
    allowed = _ALLOWED_KEYS[name]
    for key in cfg:
        if key not in allowed:
            owners = [other for other, keys in _ALLOWED_KEYS.items() if key in keys]
            if owners:
                raise ContractError(f"unknown config key {key!r} for model {name!r}; "
                                    f"{key!r} is a key of model {owners[0]!r}")
            import difflib  # here, not at the top: the import costs every run ~0.15 MB

            near = difflib.get_close_matches(key, allowed, n=1, cutoff=0.8)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ContractError(f"unknown config key {key!r}{hint}")
    sweep = _kwargs(cfg, _SWEEP_KEYS, SweepSpecError)
    build, model_keys = _MODELS[name]
    model = build(**_kwargs(cfg, model_keys))
    factors = _kwargs(cfg, _COST_KEYS)
    return Config(model=model, coupling=CouplingConfig(**_kwargs(cfg, _COUPLING_KEYS)),
                  factors=CostFactors(**factors) if factors else None, sweep=sweep)


# the names the benchmark builds a workload by; each runs a full load
def build_model(cfg: dict):
    return load(cfg).model


def build_coupling_config(cfg: dict) -> CouplingConfig:
    return load(cfg).coupling


# ---------------------------------------------------------------------------
# shipped data

PUBLISHED_TABLES = ("fe_fe_cavity", "fv_fe_cavity", "fe_fe_tube", "fv_fe_tube")


def data_path(filename: str) -> Path:
    return Path(importlib.resources.files("fsilab") / "data" / filename)


def published_table_path(case: str) -> Path:
    if case not in PUBLISHED_TABLES:
        raise ContractError(f"unknown published table {case!r}; expected one of {PUBLISHED_TABLES}")
    return data_path(f"published_{case}.csv")


def regression_summary_path() -> Path:
    return data_path("regression_summary.csv")


# ---------------------------------------------------------------------------
# CSV helpers


def read_csv_rows(path) -> list:
    """(lineno, fields) for every non-comment line, header first; each row holds one
    field per header field."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            rows.append((lineno, line.split(",")))
    if not rows:
        raise TableParseError(f"{path}: no rows")
    for lineno, fields in rows[1:]:
        if len(fields) != len(rows[0][1]):
            raise TableParseError(f"{path}:{lineno}: expected {len(rows[0][1])} fields")
    return rows


def parse_field(path, lineno: int, column: str, parse, text: str):
    """``parse(text)``; a value that does not parse raises ``TableParseError`` naming
    the file, the line and the column."""
    try:
        return parse(text)
    except ValueError as exc:
        raise TableParseError(f"{path}:{lineno}: {column}: {exc}") from exc


def read_table(path, columns: tuple) -> list:
    """(lineno, fields) for each row below a header that must read ``columns``;
    there must be at least one row (see :func:`read_csv_rows`)."""
    rows = read_csv_rows(path)
    header_line, header = rows[0]
    if tuple(h.strip() for h in header) != columns:
        raise TableParseError(f"{path}:{header_line}: expected header {','.join(columns)}")
    if len(rows) == 1:
        raise TableParseError(f"{path}: no rows below the header")
    return rows[1:]


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows``, each a sequence of fields put through
    :func:`fmt`; returns the path."""
    path = Path(path)
    lines = [header, *rows]
    path.write_text("".join(",".join(map(fmt, line)) + "\n" for line in lines),
                    encoding="utf-8")
    return path


def fmt(value) -> str:
    """Shortest round-trip float formatting; '' for None."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # a numpy scalar's own repr names its type
        return repr(float(value))
    return str(value)


def load_factors_csv(path, case: str | None = None) -> tuple:
    """Read cost factors from a CSV with the regression-summary schema.

    Returns ``(CostFactors, published_gamma_or_None)``. A ``case`` column is
    optional, but ``case`` selects a row only from a file that has one.
    """
    rows = read_csv_rows(path)
    header_line, header = rows[0]
    cols = {name.strip(): i for i, name in enumerate(header)}
    required = ("c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s", "c_couple")
    for col in required:
        if col not in cols:
            raise TableParseError(f"{path}:{header_line}: missing column {col!r}")
    data = rows[1:]
    if case is not None:
        if "case" not in cols:
            raise TableParseError(f"{path}: no 'case' column to select case={case!r} from")
        data = [r for r in data if r[1][cols["case"]].strip() == case]
        if len(data) != 1:
            raise TableParseError(f"{path}: expected one row with case={case!r}, "
                                  f"got {len(data)}")
    elif len(data) != 1:
        raise TableParseError(
            f"{path}: expected exactly one factors row (use case= to select), got {len(data)}"
        )
    lineno, fields = data[0]
    values = {col: parse_field(path, lineno, col, float, fields[cols[col]])
              for col in (*required, "gamma") if col in cols}
    gamma = values.pop("gamma", None)
    try:
        return CostFactors(**values), gamma
    except ContractError as exc:  # a negative or non-finite factor
        raise TableParseError(f"{path}:{lineno}: {exc}") from exc


_PUBLISHED_COLUMNS = ("nmax_f", "nmax_s", "teq_norm", "N_c", "N_f", "N_s")


def _read_published_table(path) -> list:
    """Rows of a published table: ``(cap_f, cap_s, teq_norm, (N_c, N_f, N_s))``.

    The header must be ``_PUBLISHED_COLUMNS`` (see :func:`read_table`). A
    missing value marks a diverged run and must blank the whole row; such rows
    are skipped. Violations raise :class:`TableParseError`.
    """
    entries = []
    for lineno, fields in read_table(path, _PUBLISHED_COLUMNS):
        blank = [f.strip() == "" for f in fields[2:]]
        if any(blank):
            if not all(blank):
                raise TableParseError(f"{path}:{lineno}: missing values must blank the whole row")
            continue
        cap_f, cap_s, teq_norm, *counters = [
            parse_field(path, lineno, column, parse, text) for column, parse, text
            in zip(_PUBLISHED_COLUMNS, (parse_cap, parse_cap, float, int, int, int), fields)]
        entries.append((cap_f, cap_s, teq_norm, tuple(counters)))
    return entries


def load_published_counters(case: str) -> list:
    """Non-diverged rows of a shipped table: (cap_f, cap_s, N_c, N_f, N_s)."""
    return [(f, s, *counters)
            for f, s, _, counters in _read_published_table(published_table_path(case))]
