"""SolverSettings presets are field-identical to hand-built settings."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core import SolverSettings

ACCEL = SolverSettings.ACCELERATION_FLAGS


def hand_built_fast(**overrides) -> SolverSettings:
    kwargs: dict = {flag: True for flag in ACCEL}
    kwargs.update(overrides)
    return SolverSettings(**kwargs)


def hand_built_paper_exact(**overrides) -> SolverSettings:
    kwargs: dict = {
        "use_lp_bound": False,
        "guide_with_objective": False,
        "heuristic_fallback": False,
    }
    kwargs.update({flag: False for flag in ACCEL})
    kwargs.update(overrides)
    return SolverSettings(**kwargs)


def hand_built_debug(**overrides) -> SolverSettings:
    kwargs: dict = {
        "analyze": "strict",
        "enable_cache": False,
        "heuristic_fallback": False,
    }
    kwargs.update(overrides)
    return SolverSettings(**kwargs)


PRESETS = [
    (SolverSettings.fast, hand_built_fast),
    (SolverSettings.paper_exact, hand_built_paper_exact),
    (SolverSettings.debug, hand_built_debug),
]

# A small property-test space: every combination of these overrides must
# round-trip through each preset exactly as through the constructor.
OVERRIDE_SPACE = [
    {},
    {"time_limit": 5.0},
    {"backend": "bnb"},
    {"cache_path": "/tmp/cache.sqlite"},
    {"enable_cache": False, "time_limit": None},
    {"backend": "cp"},
    {"incumbent_reuse": True},
    {"symmetry_breaking": False},
    {"dual_bound": False},
]


def field_values(settings: SolverSettings) -> dict:
    return {
        f.name: getattr(settings, f.name)
        for f in dataclasses.fields(settings)
        if f.compare
    }


@pytest.mark.parametrize(
    ("preset", "hand_built"), PRESETS, ids=["fast", "paper_exact", "debug"]
)
@pytest.mark.parametrize(
    "overrides", OVERRIDE_SPACE, ids=[str(i) for i in range(len(OVERRIDE_SPACE))]
)
def test_preset_equals_hand_built(preset, hand_built, overrides):
    assert field_values(preset(**overrides)) == field_values(
        hand_built(**overrides)
    )


@pytest.mark.parametrize(
    ("preset", "hand_built"), PRESETS, ids=["fast", "paper_exact", "debug"]
)
def test_overrides_win_over_preset_choices(preset, hand_built):
    # Flip every preset-controlled flag back: the constructor keyword
    # must dominate the preset's opinion.
    flips = {flag: not getattr(preset(), flag) for flag in ACCEL}
    built = preset(**flips)
    for flag, value in flips.items():
        assert getattr(built, flag) is value


def test_fast_runs_highs_alone_with_all_accelerations():
    settings = SolverSettings.fast()
    assert settings.backend == "highs"
    assert all(getattr(settings, flag) for flag in ACCEL)
    assert settings == SolverSettings(
        incumbent_reuse=True, symmetry_breaking=True, dual_bound=True
    )


def test_primal_stage_option_is_gone():
    assert ACCEL == ("incumbent_reuse", "symmetry_breaking", "dual_bound")
    with pytest.raises(TypeError):
        SolverSettings(primal_first=True)


def test_paper_exact_disables_every_extension():
    settings = SolverSettings.paper_exact()
    assert settings.use_lp_bound is False
    assert settings.guide_with_objective is False
    assert settings.heuristic_fallback is False
    assert not any(getattr(settings, flag) for flag in ACCEL)
    # Trajectory-preserving machinery stays on.
    assert settings.enable_cache is True


def test_dual_bound_is_off_unless_fast():
    assert SolverSettings().dual_bound is False
    assert SolverSettings.paper_exact().dual_bound is False
    assert SolverSettings.debug().dual_bound is False
    assert SolverSettings.fast().dual_bound is True


def test_debug_is_strict_and_uncached():
    settings = SolverSettings.debug()
    assert settings.analyze == "strict"
    assert settings.enable_cache is False
    assert settings.heuristic_fallback is False


def test_presets_are_plain_constructions_not_special_instances():
    # Nothing about a preset instance is distinguishable from a
    # hand-built one: equality, hash-ability via frozen dataclass, and
    # dataclasses.replace all behave identically.
    for preset, hand_built in PRESETS:
        a, b = preset(), hand_built()
        assert a == b
        assert dataclasses.replace(a, time_limit=1.0) == dataclasses.replace(
            b, time_limit=1.0
        )


def test_acceleration_flags_are_real_fields():
    names = {f.name for f in dataclasses.fields(SolverSettings)}
    assert set(ACCEL) <= names
    # Exhaustive pairwise distinctness: toggling any one flag changes
    # equality (guards against a flag silently dropping out of compare).
    for flag_a, flag_b in itertools.combinations(ACCEL, 2):
        assert SolverSettings(**{flag_a: True}) != SolverSettings(
            **{flag_b: True}
        )
