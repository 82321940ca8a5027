"""Property test: every run configuration survives the round trip through its
canonical text, the form each CSV header records."""

import math

from hypothesis import given, settings, strategies as st

from becmetrology import cli
from becmetrology.physconfig import SPECIES_PRESETS, Species

positive = st.floats(1e-3, 1e3, allow_subnormal=False)
hardness = st.floats(1.0, 20.0) | st.just(math.inf)


@st.composite
def run_configs(draw):
    # values stored in SI hold file value * unit, as every parsed config does
    preset = draw(st.sampled_from(sorted(SPECIES_PRESETS) + ["inline"]))
    if preset == "inline":
        species = Species(**{attr: draw(positive) * unit
                             for _, attr, unit in cli.SPECIES_KEYS})
    else:
        species = SPECIES_PRESETS[preset]()
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return cli.RunConfig(
        species_preset=preset, species=species,
        trap_d=draw(st.integers(1, 3)), trap_q=draw(hardness),
        rho0=draw(st.floats(0.1, 10.0)) * 1e-6, r0=draw(st.floats(20.0, 1e3)) * 1e-6,
        grid_points=draw(st.integers(64, 4096)),
        grid_extent_factor=draw(st.floats(1.5, 1e3)),
        n_values=draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=5, unique=True)),
        n_over_nl=draw(st.lists(positive, min_size=1, max_size=5, unique=True)),
        sigma_over_sqrtn=draw(st.lists(positive, min_size=1, max_size=5)),
        q_values=draw(st.lists(hardness, min_size=1, max_size=5)),
        gamma=draw(positive), t=draw(positive), c1=math.cos(angle), c2=math.sin(angle),
        counting_n=draw(st.integers(1, 10**6)), trials=draw(st.integers(2, 10**8)),
        seed=draw(st.integers(0, 2**64 - 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_config_text_round_trip(cfg):
    text = cli.config_to_text(cfg)
    again = cli.config_from_text(text)
    assert again == cfg
    assert cli.config_to_text(again) == text
