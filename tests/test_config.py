"""Configuration parsing, validation, defaults, and round-trips."""

import math

import pytest

import spinfringe as sf
from spinfringe.config import RATIO_UNIT_FACTORS, config_to_text, parse_config
from spinfringe.constants import TWO_PI


def test_empty_document_gives_paper_defaults():
    cfg = parse_config("")
    assert cfg.model.T == 26.0
    assert cfg.model.beta0 == pytest.approx(3.0 / 26.0, rel=1e-15)
    assert cfg.model.sigma == pytest.approx(TWO_PI * 1.6, rel=1e-15)
    assert cfg.model.s_p == 0.5
    assert "model.T" in cfg.defaulted


def test_ghz_keys_convert_once():
    cfg = parse_config("model.sigma_ghz = 1.6\nmodel.omega0_ghz = 7.5\n")
    assert cfg.model.sigma == pytest.approx(TWO_PI * 1.6, rel=1e-15)
    assert cfg.model.omega0 == pytest.approx(TWO_PI * 7.5, rel=1e-15)
    assert "model.sigma_ghz" not in cfg.defaulted


def test_beta0_default_follows_pump_time():
    cfg = parse_config("model.T = 40\n")
    assert cfg.model.beta0 == pytest.approx(3.0 / 40.0, rel=1e-15)
    cfg2 = parse_config("model.T = 40\nmodel.beta0 = 0.2\n")
    assert cfg2.model.beta0 == 0.2


def test_ratio_unit_conventions():
    assert RATIO_UNIT_FACTORS["ns2"] == 1.0
    assert RATIO_UNIT_FACTORS["ghz2"] == pytest.approx(1.0 / (TWO_PI ** 2))
    assert RATIO_UNIT_FACTORS["ps2"] == 1e-6
    for units, factor in RATIO_UNIT_FACTORS.items():
        cfg = parse_config(
            f"meanfield.ratio = 1e4\nmeanfield.ratio_units = {units}\n"
            "meanfield.kappa = 2e-3\n")
        assert cfg.meanfield.alpha == pytest.approx(2e-3 / (1e4 * factor),
                                                    rel=1e-12)


def test_lattice_consistent_with_meanfield_by_default():
    cfg = parse_config("meanfield.ratio = 2.0\nmeanfield.ratio_units = ns2\n"
                       "meanfield.kappa = 0.02\n")
    assert cfg.lattice.d_bath == cfg.meanfield.kappa
    assert sf.alpha_from_lattice(cfg.lattice) == pytest.approx(
        cfg.meanfield.alpha, rel=1e-12)


def test_validation_error_names_invariant_and_location():
    with pytest.raises(sf.ConfigValidationError) as err:
        parse_config("model.T = -5\n")
    assert "T > 0" in str(err.value)
    with pytest.raises(sf.ConfigValidationError) as err:
        parse_config("\nmodel.unknown_knob = 1\n")
    assert "unknown key" in str(err.value)
    assert err.value.line == 2
    with pytest.raises(sf.ConfigValidationError):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(sf.ConfigValidationError):
        parse_config("meanfield.omega_bracket = 20\n")  # below 4 sigma


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_philox_key_range_rejected(seed):
    with pytest.raises(sf.ConfigValidationError) as err:
        parse_config(f"\nseed = {seed}\n")
    assert err.value.key == "seed" and err.value.line == 2
    assert parse_config(f"seed = {2 ** 128 - 1}\n").seed == 2 ** 128 - 1


def test_parse_error_carries_line_and_column():
    with pytest.raises(sf.ConfigParseError) as err:
        parse_config("model.T = 26\nmodel.s_p 0.5\n")
    assert err.value.line == 2
    with pytest.raises(sf.ConfigParseError):
        parse_config("model.T = abc\n")
    with pytest.raises(sf.ConfigParseError):
        parse_config("model.T =\n")


def test_round_trip_is_lossless():
    text = ("model.sigma_ghz = 1.25\nmodel.T = 31\nmeanfield.ratio = 3e3\n"
            "meanfield.ratio_units = ghz2\nsweep.direction = forward\n"
            "lattice.n = 4\nlattice.envelope_width = 1.5\nseed = 99\n")
    cfg = parse_config(text)
    echoed = config_to_text(cfg)
    cfg2 = parse_config(echoed)
    assert cfg2 == cfg
    assert config_to_text(cfg2) == echoed


def test_overrides_behave_like_appended_lines():
    cfg = parse_config("seed = 7\n", overrides=["seed = 11", "model.T = 30"])
    assert cfg.seed == 11
    assert cfg.model.T == 30.0
    with pytest.raises(sf.ConfigValidationError):
        parse_config("", overrides=["bogus.key = 1"])


def test_echo_marks_defaults():
    cfg = parse_config("model.T = 26\n")
    marked = config_to_text(cfg, mark_defaults=True)
    lines = dict(
        (line.split(" = ")[0], line) for line in marked.splitlines())
    assert "# default" not in lines["model.T"]
    assert "# default" in lines["model.s_p"]


@pytest.mark.parametrize("key", ["oracle.t_end", "oracle.dt", "oracle.init_width"])
def test_negative_oracle_auto_keys_rejected(key):
    # Only 0 means "auto"; a negative value is an error at its own line.
    with pytest.raises(sf.ConfigValidationError) as err:
        parse_config(f"seed = 1\n{key} = -5\n")
    assert f"{key} >= 0 required" in str(err.value)
    assert err.value.line == 2
    assert getattr(parse_config(f"{key} = 0\n").oracle, key.split(".")[1]) == 0.0


@pytest.mark.parametrize("before, setting", [
    (("seed = 1",), "sweep.tau_step = -1"),
    (("seed = 1",), "sweep.tau_start = 2"),
    (("seed = 1",), "sweep.tau_end = 0.01"),
    (("seed = 1",), "sweep.direction = up"),
    ((), "model.s_p = 0.7"),
    (("seed = 1", "model.T = 26"), "model.s_p = 0.7"),
    (("seed = 1",), "model.beta0 = -1"),
    (("seed = 1",), "model.sigma_ghz = 0"),
    (("seed = 1",), "meanfield.kappa = -1"),
    (("seed = 1",), "meanfield.relax_tol = 0"),
    (("seed = 1",), "meanfield.fd_step = -1"),         # a removed key is unknown
    (("seed = 1",), "meanfield.ratio_units = x"),
    (("seed = 1",), "lattice.f = -1"),
    (("seed = 1",), "lattice.envelope_width = -1"),
    (("seed = 1",), "lattice.gamma_peak = -1"),
    (("seed = 1",), "hole.g_h = -1"),
    (("seed = 1",), "hole.gamma_ghz = 0"),
    (("seed = 1",), "oracle.n_cells = 4"),
    (("seed = 1",), "oracle.m_min = 1"),
    (("seed = 1",), "oracle.m_max = -1"),
    (("seed = 1",), "oracle.method = x"),
    (("seed = 1",), "output.precision = 2"),
    (("seed = 1",), "output.format = x"),
    (("seed = 1",), "map.n_tau = 1"),
    (("seed = 1",), "lattice.d = -1"),                 # one site: no bond to check
    (("seed = 1", "lattice.n = 2"), "lattice.d = -1"),
    (("seed = 1",), "model.T = 1e-320"),               # the beta0 default overflows
    (("seed = 1",), "model.sigma_ghz = 1e307"),        # the omega_bracket default overflows
])
def test_invariant_error_at_offending_key_and_line(before, setting):
    with pytest.raises(sf.ConfigValidationError) as err:
        parse_config("".join(f"{line}\n" for line in (*before, setting)))
    assert err.value.key == setting.split(" = ")[0]
    assert err.value.line == len(before) + 1
