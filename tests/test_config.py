import shutil

import pytest

import lrcfm
from lrcfm import designer
from lrcfm.config import (ConfigError, default_catalog, load_config,
                          parse_config_text)


@pytest.fixture()
def config_dir(tmp_path):
    for name in ("example_config.txt", "nv_rates_example.txt",
                 "lens_catalog.csv"):
        shutil.copy(lrcfm.data_path(name), tmp_path / name)
    return tmp_path


def test_load_example_config(config_dir):
    cfg = load_config(config_dir / "example_config.txt")
    ctx = cfg.spec.context
    assert ctx.wavelength == pytest.approx(532e-9)
    assert ctx.laser_power == pytest.approx(10e-3)
    assert ctx.incident_beam_diameter == pytest.approx(0.9e-3)
    assert ctx.sample_thickness == pytest.approx(500e-6)
    assert ctx.lens_radius == pytest.approx(12.7e-3)
    assert cfg.fiber_core_diameter == pytest.approx(200e-6)
    assert cfg.fiber_magnification == 6.7
    assert ctx.volume_model == "clipped"
    assert len(cfg.spec.grid) == 200
    assert ctx.rates.k31 == pytest.approx(65.9e6)
    assert ctx.pump.coupling == pytest.approx(8.3e-3)
    assert cfg.catalog is not None and len(cfg.catalog.entries) > 1


def test_sweep_context_helper(config_dir):
    """The config yields the design's sweep: z_R on the sweep.* grid,
    whose ends are sweep.min and sweep.max exactly."""
    spec = load_config(config_dir / "example_config.txt").spec
    assert spec.variable == "rayleigh_length"
    assert spec.context.lens_radius == pytest.approx(12.7e-3)
    assert spec.context.volume_model == "clipped"
    assert len(spec.grid) == 200
    assert spec.grid[0] == 1e-6
    assert spec.grid[-1] == 10e-3


def test_example_spec_equals_spec_built_by_hand(config_dir):
    rates, pump = lrcfm.load_rate_file(config_dir / "nv_rates_example.txt")
    want = designer.SweepSpec(
        "rayleigh_length", designer.default_grid(1e-6, 1e-2, 200),
        designer.SweepContext(
            wavelength=532 * 1e-9, laser_power=10 * 1e-3,
            incident_beam_diameter=0.9 * 1e-3, sample_thickness=500 * 1e-6,
            lens_radius=12.7 * 1e-3, rates=rates, pump=pump,
            volume_model="clipped", density=1.0))
    assert load_config(config_dir / "example_config.txt").spec == want


MINIMAL = """\
laser.wavelength = 532 nm
laser.power = 10 mW
laser.incident_beam_diameter = 0.9 mm
sample.thickness = 500 um
rates = nv_rates_example.txt
lens.radius = 12.7 mm
"""


def test_minimal_config_defaults(config_dir):
    cfg = parse_config_text(MINIMAL, config_dir)
    assert cfg.spec.context.density == 1.0
    assert cfg.spec.context.volume_model == "clipped"
    assert cfg.spec.context.lens_radius == pytest.approx(12.7e-3)
    assert cfg.spec.grid == designer.default_grid(1e-6, 1e-2, 200)
    assert cfg.catalog == default_catalog()
    assert (cfg.fiber_core_diameter, cfg.output) == (None,) * 2
    without = MINIMAL.replace("lens.radius = 12.7 mm\n", "")
    with pytest.raises(ConfigError,
                       match="missing required keys: lens.radius"):
        parse_config_text(without, config_dir)


def test_missing_required_key(config_dir):
    text = MINIMAL.replace("laser.power = 10 mW\n", "")
    with pytest.raises(ConfigError, match="laser.power"):
        parse_config_text(text, config_dir)


def test_unknown_key_reports_line(config_dir):
    text = MINIMAL + "laser.colour = green\n"
    with pytest.raises(ConfigError, match=r":7: unknown key"):
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
                       match=r":7: sample.density must be positive"):
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
    assert cfg.spec.context.laser_power == pytest.approx(10e-3)


def test_kappa_override(config_dir):
    cfg = parse_config_text(MINIMAL + "pump.kappa = 1.0e-2\n", config_dir)
    assert cfg.spec.context.pump.coupling == pytest.approx(1.0e-2)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.txt")
