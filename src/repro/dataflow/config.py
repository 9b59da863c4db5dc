"""One validated configuration for the whole dataflow plan.

:class:`RunConfig` folds every cross-stage knob into one frozen,
validated object with a single documented precedence:

    built-in default  <  environment variable  <  keyword argument  <  CLI flag

:meth:`RunConfig.resolve` applies exactly that order; ``None`` means "not
specified" at every layer, so callers can thread optional arguments
straight through.  The executor hands the resolved config to every stage,
and it is the only parser of the knobs it owns: the simulator and dataset
entry points read no environment of their own (``None`` there means the
built-in default).  Only the DTW kernel selection (``REPRO_DTW_KERNEL``)
and ``ScaleConfig.from_env`` (``REPRO_SCALE``) still keep env fallbacks
outside the plan path.

The knob table (:data:`KNOBS`) is the single source of truth: the
precedence tests iterate it, and the README's configuration table is
generated from the same rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping

from repro.errors import ConfigError
from repro.trace.batch import DEFAULT_BATCH_SIZE
from repro.workload.scale import ScaleConfig

#: Default per-shard dispatch window; mirrored from
#: :data:`repro.cdn.simulator.DEFAULT_QUEUE_DEPTH` without importing the
#: simulator (keeping this module import-light for the config tests).
_DEFAULT_QUEUE_DEPTH = 8192

_SCALE_NAMES = ("tiny", "small", "medium")
_DTW_KERNELS = ("auto", "c", "numpy")

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _parse_bool(raw: str, env: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"{env} must be a boolean (one of {sorted(_TRUE | _FALSE)}), got {raw!r}")


def _parse_int(raw: str, env: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{env} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True, slots=True)
class Knob:
    """One :class:`RunConfig` field: its env var, parser and doc row."""

    name: str
    env: str
    default: Any
    parse: Callable[[str, str], Any]
    help: str


def _str_parse(raw: str, env: str) -> str:
    return raw.strip().lower()


def _path_parse(raw: str, env: str) -> str:
    # Paths keep their case; only surrounding whitespace is stripped.
    return raw.strip()


#: Every RunConfig knob with its environment variable, default and doc
#: line.  ``RunConfig.resolve`` consumes this table; so do the precedence
#: tests (one case per row) and the README configuration table.
KNOBS: tuple[Knob, ...] = (
    Knob("seed", "REPRO_SEED", 0, _parse_int, "master seed; every draw in the run derives from it"),
    Knob("scale", "REPRO_SCALE", "small", _str_parse, "workload scale preset (tiny | small | medium)"),
    Knob(
        "batch_size",
        "REPRO_BATCH_SIZE",
        DEFAULT_BATCH_SIZE,
        _parse_int,
        "rows per columnar RecordBatch flowing between stages",
    ),
    Knob(
        "keep_store",
        "REPRO_KEEP_STORE",
        True,
        _parse_bool,
        "retain the columnar row store after ingest; false streams aggregates only",
    ),
    Knob(
        "sim_workers",
        "REPRO_SIM_WORKERS",
        1,
        _parse_int,
        "simulation shard worker processes (output bit-identical for any value)",
    ),
    Knob(
        "sim_queue_depth",
        "REPRO_SIM_QUEUE_DEPTH",
        _DEFAULT_QUEUE_DEPTH,
        _parse_int,
        "max in-flight requests per simulation shard before the producer blocks",
    ),
    Knob(
        "dtw_kernel",
        "REPRO_DTW_KERNEL",
        "auto",
        _str_parse,
        "DTW kernel tier for trend clustering (auto | c | numpy; auto = c when it builds)",
    ),
    Knob(
        "run_clustering",
        "REPRO_RUN_CLUSTERING",
        True,
        _parse_bool,
        "run the O(n^2) DTW trend clustering in the figure battery",
    ),
    Knob(
        "memory_budget",
        "REPRO_MEMORY_BUDGET",
        None,
        _parse_int,
        "global resident-byte budget; past it spillable state evicts to disk (default unlimited)",
    ),
    Knob(
        "spill_dir",
        "REPRO_SPILL_DIR",
        None,
        _path_parse,
        "directory for spill segments (default: a per-run tempdir, removed at close)",
    ),
)

_KNOBS_BY_NAME: dict[str, Knob] = {knob.name: knob for knob in KNOBS}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Every cross-stage knob of one dataflow run, resolved and validated.

    Build with :meth:`resolve` (the precedence-aware constructor) rather
    than directly, unless every value is already explicit.  ``scale``
    accepts either a preset name (``tiny`` | ``small`` | ``medium``) or a
    full :class:`~repro.workload.scale.ScaleConfig`; :meth:`scale_config`
    returns the resolved object either way.
    """

    seed: int = 0
    scale: str | ScaleConfig = "small"
    batch_size: int = DEFAULT_BATCH_SIZE
    keep_store: bool = True
    sim_workers: int = 1
    sim_queue_depth: int = _DEFAULT_QUEUE_DEPTH
    dtw_kernel: str = "auto"
    run_clustering: bool = True
    memory_budget: int | None = None
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.scale, ScaleConfig):
            if self.scale not in _SCALE_NAMES:
                raise ConfigError(
                    f"scale must be one of {_SCALE_NAMES} or a ScaleConfig, got {self.scale!r}"
                )
        if self.dtw_kernel not in _DTW_KERNELS:
            raise ConfigError(f"dtw_kernel must be one of {_DTW_KERNELS}, got {self.dtw_kernel!r}")
        for name in ("batch_size", "sim_workers", "sim_queue_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("keep_store", "run_clustering"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        if self.memory_budget is not None:
            if (
                not isinstance(self.memory_budget, int)
                or isinstance(self.memory_budget, bool)
                or self.memory_budget < 1
            ):
                raise ConfigError(
                    f"memory_budget must be an integer >= 1 or None, got {self.memory_budget!r}"
                )
        if self.spill_dir is not None:
            if not isinstance(self.spill_dir, str) or not self.spill_dir:
                raise ConfigError(
                    f"spill_dir must be a non-empty string or None, got {self.spill_dir!r}"
                )

    @classmethod
    def resolve(
        cls,
        cli: Mapping[str, Any] | None = None,
        env: Mapping[str, str] | None = None,
        **overrides: Any,
    ) -> "RunConfig":
        """Build a config with documented precedence.

        Values are layered ``default < env < overrides (kwargs) < cli``;
        a ``None`` at any layer means "not specified there" and falls
        through to the layer below.  ``env`` defaults to ``os.environ``
        (pass a mapping to pin it in tests).  Unknown knob names in
        ``overrides`` or ``cli`` raise :class:`~repro.errors.ConfigError`.
        """
        environ = os.environ if env is None else env
        values: dict[str, Any] = {}
        for knob in KNOBS:
            raw = environ.get(knob.env)
            if raw is not None and raw != "":
                values[knob.name] = knob.parse(raw, knob.env)
            else:
                values[knob.name] = knob.default
        for layer_name, layer in (("keyword argument", overrides), ("CLI flag", cli or {})):
            for name, value in layer.items():
                if name not in _KNOBS_BY_NAME:
                    raise ConfigError(
                        f"unknown RunConfig knob {name!r} (a {layer_name}); "
                        f"expected one of {sorted(_KNOBS_BY_NAME)}"
                    )
                if value is not None:
                    values[name] = value
        return cls(**values)

    def replacing(self, **overrides: Any) -> "RunConfig":
        """A copy with ``overrides`` applied (``None`` values ignored),
        re-validated."""
        changes = {name: value for name, value in overrides.items() if value is not None}
        for name in changes:
            if name not in _KNOBS_BY_NAME:
                raise ConfigError(
                    f"unknown RunConfig knob {name!r}; expected one of {sorted(_KNOBS_BY_NAME)}"
                )
        return replace(self, **changes) if changes else self

    def scale_config(self) -> ScaleConfig:
        """The resolved :class:`~repro.workload.scale.ScaleConfig`."""
        if isinstance(self.scale, ScaleConfig):
            return self.scale
        factories = {"tiny": ScaleConfig.tiny, "small": ScaleConfig.small, "medium": ScaleConfig.medium}
        return factories[self.scale]()

    def describe(self) -> list[tuple[str, str, str, str]]:
        """Doc rows ``(knob, env var, current value, help)`` in table order."""
        rows = []
        for knob in KNOBS:
            value = getattr(self, knob.name)
            shown = value.__class__.__name__ if isinstance(value, ScaleConfig) else value
            rows.append((knob.name, knob.env, str(shown), knob.help))
        return rows
