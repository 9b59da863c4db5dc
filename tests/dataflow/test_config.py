"""RunConfig: the knob table, precedence, and validation.

The precedence tests iterate :data:`repro.dataflow.config.KNOBS` so a knob
added without a test case here fails loudly.
"""

from __future__ import annotations

import pytest

from repro.dataflow import KNOBS, RunConfig
from repro.errors import ConfigError, ReproError
from repro.workload.scale import ScaleConfig

#: Per-knob values for the precedence ladder.  Each is distinct from the
#: layer below it so every assertion actually demonstrates an override:
#: (env string, parsed env value, kwarg value, cli value).
PRECEDENCE_CASES: dict[str, tuple[str, object, object, object]] = {
    "seed": ("5", 5, 6, 7),
    "scale": ("tiny", "tiny", "medium", "tiny"),
    "batch_size": ("1024", 1024, 2048, 4096),
    "keep_store": ("false", False, True, False),
    "sim_workers": ("2", 2, 3, 4),
    "sim_queue_depth": ("16", 16, 32, 64),
    "dtw_kernel": ("numpy", "numpy", "c", "numpy"),
    "run_clustering": ("no", False, True, False),
    "memory_budget": ("1048576", 1048576, 2097152, 4194304),
    "spill_dir": (" /tmp/spill-Env ", "/tmp/spill-Env", "/tmp/spill-kw", "/tmp/spill-cli"),
}


def test_every_knob_has_a_precedence_case():
    assert {knob.name for knob in KNOBS} == set(PRECEDENCE_CASES)


def test_knob_table_is_well_formed():
    for knob in KNOBS:
        assert knob.env.startswith("REPRO_")
        assert knob.help
        # The default round-trips through validation.
        assert getattr(RunConfig(), knob.name) == knob.default


class TestPrecedence:
    """default < env < kwarg < CLI, with None falling through each layer."""

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_default_when_nothing_specified(self, knob):
        config = RunConfig.resolve(env={})
        assert getattr(config, knob.name) == knob.default

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_env_beats_default(self, knob):
        raw, parsed, _, _ = PRECEDENCE_CASES[knob.name]
        config = RunConfig.resolve(env={knob.env: raw})
        assert getattr(config, knob.name) == parsed
        assert parsed != knob.default

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_kwarg_beats_env(self, knob):
        raw, parsed, kwarg, _ = PRECEDENCE_CASES[knob.name]
        config = RunConfig.resolve(env={knob.env: raw}, **{knob.name: kwarg})
        assert getattr(config, knob.name) == kwarg
        assert kwarg != parsed

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_cli_beats_kwarg(self, knob):
        raw, _, kwarg, cli = PRECEDENCE_CASES[knob.name]
        config = RunConfig.resolve(
            env={knob.env: raw}, cli={knob.name: cli}, **{knob.name: kwarg}
        )
        assert getattr(config, knob.name) == cli
        assert cli != kwarg

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_none_falls_through_to_env(self, knob):
        raw, parsed, _, _ = PRECEDENCE_CASES[knob.name]
        config = RunConfig.resolve(
            env={knob.env: raw}, cli={knob.name: None}, **{knob.name: None}
        )
        assert getattr(config, knob.name) == parsed

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
    def test_empty_env_string_means_unset(self, knob):
        config = RunConfig.resolve(env={knob.env: ""})
        assert getattr(config, knob.name) == knob.default

    def test_os_environ_is_the_default_env_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "41")
        assert RunConfig.resolve().seed == 41


class TestValidation:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ConfigError, match="unknown RunConfig knob"):
            RunConfig.resolve(env={}, wrokers=2)

    def test_unknown_cli_knob_rejected(self):
        with pytest.raises(ConfigError, match="unknown RunConfig knob"):
            RunConfig.resolve(env={}, cli={"speed": 1})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scale": "huge"},
            {"dtw_kernel": "fortran"},
            {"dtw_kernel": "numba"},
            {"batch_size": 0},
            {"sim_workers": -1},
            {"sim_queue_depth": 0},
            {"keep_store": "yes"},
            {"run_clustering": 1},
            {"seed": "0"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig.resolve(env={}, **overrides)

    @pytest.mark.parametrize(
        ("env", "raw"),
        [("REPRO_SEED", "three"), ("REPRO_KEEP_STORE", "maybe"), ("REPRO_SIM_WORKERS", "2.5")],
    )
    def test_unparseable_env_value_rejected(self, env, raw):
        with pytest.raises(ConfigError, match=env):
            RunConfig.resolve(env={env: raw})

    def test_config_error_is_a_repro_error(self):
        assert issubclass(ConfigError, ReproError)


class TestScaleHandling:
    def test_scale_config_resolves_names(self):
        assert RunConfig.resolve(env={}, scale="tiny").scale_config() == ScaleConfig.tiny()
        assert RunConfig.resolve(env={}).scale_config() == ScaleConfig.small()

    def test_scale_config_passes_instances_through(self):
        scale = ScaleConfig.tiny()
        config = RunConfig.resolve(env={}, scale=scale)
        assert config.scale_config() is scale


class TestReplacing:
    def test_overrides_applied_and_none_ignored(self):
        base = RunConfig.resolve(env={})
        changed = base.replacing(seed=9, keep_store=None)
        assert changed.seed == 9
        assert changed.keep_store == base.keep_store
        assert base.seed == 0  # the original is untouched

    def test_no_changes_returns_self(self):
        base = RunConfig.resolve(env={})
        assert base.replacing(seed=None) is base

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError, match="unknown RunConfig knob"):
            RunConfig.resolve(env={}).replacing(depth=3)

    def test_revalidates(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve(env={}).replacing(sim_workers=0)


class TestDescribe:
    def test_one_row_per_knob_in_table_order(self):
        rows = RunConfig.resolve(env={}).describe()
        assert [row[0] for row in rows] == [knob.name for knob in KNOBS]
        assert [row[1] for row in rows] == [knob.env for knob in KNOBS]
        for row in rows:
            assert len(row) == 4 and all(isinstance(cell, str) for cell in row[1:])

    def test_scale_config_instances_render_by_class_name(self):
        rows = RunConfig.resolve(env={}, scale=ScaleConfig.tiny()).describe()
        scale_row = next(row for row in rows if row[0] == "scale")
        assert scale_row[2] == "ScaleConfig"
