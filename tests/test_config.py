import shutil

import pytest

import lrcfm
from lrcfm.config import ConfigError, load_config, parse_config_text


@pytest.fixture()
def config_dir(tmp_path):
    for name in ("example_config.txt", "nv_rates_example.txt",
                 "lens_catalog.csv"):
        shutil.copy(lrcfm.data_path(name), tmp_path / name)
    return tmp_path


def test_load_example_config(config_dir):
    cfg = load_config(config_dir / "example_config.txt")
    assert cfg.wavelength == pytest.approx(532e-9)
    assert cfg.laser_power == pytest.approx(10e-3)
    assert cfg.incident_beam_diameter == pytest.approx(0.9e-3)
    assert cfg.sample_thickness == pytest.approx(500e-6)
    assert cfg.lens_radius == pytest.approx(12.7e-3)
    assert cfg.fiber_core_diameter == pytest.approx(200e-6)
    assert cfg.fiber_magnification == 6.7
    assert cfg.volume_model == "clipped"
    assert cfg.sweep_points == 200
    assert cfg.rates.k31 == pytest.approx(65.9e6)
    assert cfg.pump.coupling == pytest.approx(8.3e-3)
    assert cfg.catalog is not None and len(cfg.catalog.entries) > 1


def test_sweep_context_helper(config_dir):
    cfg = load_config(config_dir / "example_config.txt")
    ctx = cfg.sweep_context()
    assert ctx.lens_radius == cfg.lens_radius
    assert ctx.volume_model == "clipped"
    grid = cfg.sweep_grid()
    assert len(grid) == 200
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(10e-3)


MINIMAL = """\
laser.wavelength = 532 nm
laser.power = 10 mW
laser.incident_beam_diameter = 0.9 mm
sample.thickness = 500 um
rates = nv_rates_example.txt
"""


def test_minimal_config_defaults(config_dir):
    cfg = parse_config_text(MINIMAL, config_dir)
    assert cfg.density == 1.0
    assert cfg.volume_model == "clipped"
    assert cfg.lens_radius is None
    with pytest.raises(ConfigError, match="lens.radius"):
        cfg.sweep_context()
    ctx = parse_config_text(MINIMAL + "lens.radius = 12.7 mm\n",
                            config_dir).sweep_context()
    assert ctx.lens_radius == pytest.approx(12.7e-3)


def test_missing_required_key(config_dir):
    text = MINIMAL.replace("laser.power = 10 mW\n", "")
    with pytest.raises(ConfigError, match="laser.power"):
        parse_config_text(text, config_dir)


def test_unknown_key_reports_line(config_dir):
    text = MINIMAL + "laser.colour = green\n"
    with pytest.raises(ConfigError, match=r":6: unknown key"):
        parse_config_text(text, config_dir)


def test_duplicate_key(config_dir):
    text = MINIMAL + "laser.power = 20 mW\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text, config_dir)


def test_missing_unit_suffix_reports_field(config_dir):
    text = MINIMAL.replace("532 nm", "532")
    with pytest.raises(ConfigError, match="laser.wavelength"):
        parse_config_text(text, config_dir)


def test_wrong_unit_dimension(config_dir):
    text = MINIMAL.replace("10 mW", "10 mm")
    with pytest.raises(ConfigError, match="power"):
        parse_config_text(text, config_dir)


def test_negative_quantity_rejected(config_dir):
    text = MINIMAL.replace("500 um", "-500 um")
    with pytest.raises(ConfigError, match="positive"):
        parse_config_text(text, config_dir)


@pytest.mark.parametrize("density", ["-1", "0"])
def test_density_must_be_positive(config_dir, density):
    text = MINIMAL + f"sample.density = {density}\n"
    with pytest.raises(ConfigError,
                       match=r":6: sample.density must be positive"):
        parse_config_text(text, config_dir)


def test_missing_rates_file_names_path(config_dir):
    text = MINIMAL.replace("nv_rates_example.txt", "absent.txt")
    with pytest.raises(ConfigError, match="absent.txt"):
        parse_config_text(text, config_dir)


def test_bad_volume_model(config_dir):
    text = MINIMAL + "volume_model = sphere\n"
    with pytest.raises(ConfigError, match="volume_model must be 'clipped' "
                                          "or 'thickness', got 'sphere'"):
        parse_config_text(text, config_dir)


def test_bad_sweep_points(config_dir):
    with pytest.raises(ConfigError, match="sweep.points"):
        parse_config_text(MINIMAL + "sweep.points = 1\n", config_dir)
    with pytest.raises(ConfigError, match="sweep.points"):
        parse_config_text(MINIMAL + "sweep.points = 2.5\n", config_dir)


def test_comments_and_blank_lines(config_dir):
    text = "# leading comment\n\n" + MINIMAL.replace(
        "laser.power = 10 mW", "laser.power = 10 mW  # inline")
    cfg = parse_config_text(text, config_dir)
    assert cfg.laser_power == pytest.approx(10e-3)


def test_kappa_override(config_dir):
    cfg = parse_config_text(MINIMAL + "pump.kappa = 1.0e-2\n", config_dir)
    assert cfg.pump.coupling == pytest.approx(1.0e-2)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.txt")
