from dataclasses import replace

import numpy as np
import pytest

from lrcfm import config, designer
from lrcfm.io import cells, write_csv


@pytest.fixture()
def reference_spec(reference_context):
    return designer.SweepSpec("rayleigh_length", designer.default_grid(),
                              reference_context)


def test_grid_validation(reference_context):
    with pytest.raises(ValueError):
        designer.SweepSpec("rayleigh_length", (2e-3, 1e-3), reference_context)
    with pytest.raises(ValueError):
        designer.SweepSpec("banana", (1e-3,), reference_context)


def test_single_point_matches_direct_evaluation(reference_context):
    spec = designer.SweepSpec("rayleigh_length", (0.25e-3,), reference_context)
    (row,) = designer.sweep(spec)
    direct = designer.evaluate_at_rayleigh(0.25e-3, reference_context)
    assert row == direct


def test_sweep_refinement_invariant_at_shared_points(reference_context):
    coarse = designer.SweepSpec("rayleigh_length",
                                designer.default_grid(n=50), reference_context)
    # refined grid that shares every coarse point exactly
    shared = np.array(coarse.grid)
    extra = np.sqrt(shared[:-1] * shared[1:])
    refined = tuple(np.sort(np.concatenate([shared, extra])))
    fine = designer.SweepSpec("rayleigh_length", refined, reference_context)
    coarse_rows = {r.variable: r for r in designer.sweep(coarse)}
    fine_rows = {r.variable: r for r in designer.sweep(fine)}
    for zr, row in coarse_rows.items():
        assert fine_rows[zr] == row  # bit-exact


def test_volume_curve_kinks_at_thickness(reference_spec):
    rows = designer.sweep(reference_spec)
    zr = np.array([r.variable for r in rows])
    vol = np.array([r.volume_m3 for r in rows])
    assert np.all(np.diff(vol) >= 0)
    # below the kink the volume grows ~ zR^2, above ~ zR (clipped cylinder)
    below = zr < 0.1 * reference_spec.context.sample_thickness
    above = zr > 10 * reference_spec.context.sample_thickness
    slope_below = np.diff(np.log(vol[below])) / np.diff(np.log(zr[below]))
    slope_above = np.diff(np.log(vol[above])) / np.diff(np.log(zr[above]))
    assert np.allclose(slope_below, 2.0, atol=1e-6)
    assert np.allclose(slope_above, 1.0, atol=1e-6)
    # infinite-thickness reference keeps growing quadratically
    deep = replace(reference_spec.context, sample_thickness=1e3)
    rows_inf = designer.sweep(replace(reference_spec, context=deep))
    vol_inf = np.array([r.volume_m3 for r in rows_inf])
    slope_inf = np.diff(np.log(vol_inf)) / np.diff(np.log(zr))
    assert np.allclose(slope_inf, 2.0, atol=1e-6)


def test_polarization_non_increasing(reference_spec):
    rows = designer.sweep(reference_spec)
    pol = np.array([r.polarization for r in rows])
    assert np.all(np.diff(pol) <= 1e-9)


def test_optimal_rayleigh_reference_configuration(reference_spec):
    opt = designer.optimal_rayleigh(reference_spec)
    assert opt.unimodal
    target = reference_spec.context.sample_thickness / 2.0
    assert opt.rayleigh_length == pytest.approx(target, rel=0.05)


def test_optimal_rayleigh_dominates_grid(reference_spec):
    rows = designer.sweep(reference_spec)
    opt = designer.optimal_rayleigh(reference_spec)
    grid = [r.variable for r in rows]
    assert min(grid) <= opt.rayleigh_length <= max(grid)
    assert opt.detected_signal >= max(r.detected_signal for r in rows)


def test_optimal_rayleigh_degenerate_grid(reference_context):
    spec = designer.SweepSpec("rayleigh_length", (0.2e-3,), reference_context)
    opt = designer.optimal_rayleigh(spec)
    assert opt.rayleigh_length == 0.2e-3


def test_waist_sweep_consistent_with_rayleigh_sweep(reference_context):
    from lrcfm import beam_optics as bo
    w0 = 6.5e-6
    spec = designer.SweepSpec("waist_radius", (w0,), reference_context)
    (row,) = designer.sweep(spec)
    zr = bo.rayleigh_length(w0, reference_context.wavelength)
    direct = designer.evaluate_at_rayleigh(zr, reference_context)
    assert row.detected_signal == direct.detected_signal
    assert row.variable == w0


def test_recommend_lens_single_entry(reference_spec):
    catalog = designer.LensCatalog((("only", 30e-3, 25.4e-3),))
    choice = designer.recommend_lens(catalog, reference_spec)
    assert choice.name == "only"


def test_recommend_lens_default_catalog(reference_spec):
    # exhaustive evaluation is the oracle; the winner must be the entry
    # whose focal length is nearest the unconstrained optimum from the
    # zR* relation
    from lrcfm import beam_optics as bo
    catalog = config.default_catalog()
    choice = designer.recommend_lens(catalog, reference_spec)
    opt = designer.optimal_rayleigh(reference_spec)
    f_star = bo.focal_length_for_rayleigh(
        opt.rayleigh_length, reference_spec.context.incident_beam_diameter,
        reference_spec.context.wavelength)
    nearest = min(catalog.entries, key=lambda e: abs(e[1] - f_star))
    assert choice.name == nearest[0]
    # and it must really be the exhaustive argmax, each lens alone
    scores = {entry[0]: designer.recommend_lens(designer.LensCatalog((entry,)),
                                                reference_spec)
              for entry in catalog.entries}
    best = max(scores, key=lambda n: scores[n].detected_signal)
    assert choice.name == best


def test_recommend_lens_permutation_invariant(reference_spec):
    catalog = config.default_catalog()
    shuffled = designer.LensCatalog(tuple(reversed(catalog.entries)))
    assert designer.recommend_lens(catalog, reference_spec) == \
        designer.recommend_lens(shuffled, reference_spec)


def test_recommend_lens_duplicate_warning(reference_spec):
    catalog = designer.LensCatalog((("b-lens", 30e-3, 25.4e-3),
                                    ("a-lens", 30e-3, 25.4e-3)))
    with pytest.warns(UserWarning, match="duplicates"):
        choice = designer.recommend_lens(catalog, reference_spec)
    assert choice.name == "a-lens"


def test_recommend_lens_empty_catalog(reference_spec):
    with pytest.raises(ValueError, match="empty"):
        designer.recommend_lens(designer.LensCatalog(()), reference_spec)


def test_cfm_comparison_self_ratio(reference_spec):
    from lrcfm import beam_optics as bo
    opt = designer.optimal_rayleigh(reference_spec)
    focal = bo.focal_length_for_rayleigh(
        opt.rayleigh_length, reference_spec.context.incident_beam_diameter,
        reference_spec.context.wavelength)
    ((_, ratio),) = designer.cfm_comparison(reference_spec, focal, [1.0])
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_cfm_comparison_linearity_and_divergence(reference_spec):
    rows = designer.cfm_comparison(reference_spec, 3.6e-3,
                                   [1e-6, 1e-4, 0.05, 0.1, 1.0])
    ratios = dict(rows)
    assert ratios[0.05] == pytest.approx(2 * ratios[0.1], rel=1e-12)
    values = [r for _, r in rows]
    assert values == sorted(values, reverse=True)
    assert ratios[1e-6] > ratios[1.0] * 1e5


def test_cfm_ratio_threshold(reference_spec):
    p_star = designer.ratio_threshold(reference_spec, 3.6e-3, target=1e4)
    assert 0 < p_star < 1
    ((_, at_threshold),) = designer.cfm_comparison(reference_spec, 3.6e-3,
                                                   [p_star])
    assert at_threshold == pytest.approx(1e4, rel=1e-9)


def test_sweep_table_is_columns_and_records(reference_context):
    spec = designer.SweepSpec("rayleigh_length",
                              designer.default_grid(n=16), reference_context)
    rows = designer.sweep(spec)
    assert len(rows) == len(spec.grid)
    assert rows.dtype.names == designer.SWEEP_HEADER
    assert rows["variable"].tolist() == list(spec.grid)
    assert np.array_equal(rows["product"], rows["volume_m3"] * rows["icw"]
                          * rows["polarization"])
    for k, row in enumerate(rows):
        assert row.detected_signal == rows["detected_signal"][k]
        assert row == rows[k]


def test_write_sweep_csv_deterministic(reference_context, tmp_path):
    spec = designer.SweepSpec("rayleigh_length",
                              designer.default_grid(n=16), reference_context)
    rows = designer.sweep(spec)
    for name in ("a.csv", "b.csv"):  # as the CLI writes sweep.csv
        write_csv(tmp_path / name, designer.SWEEP_HEADER,
                  [cells(rows[column]) for column in designer.SWEEP_HEADER])
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    header = a.decode().splitlines()[0]
    assert header == ",".join(designer.SWEEP_HEADER)
    # round-trip precision
    first = a.decode().splitlines()[1].split(",")
    assert float(first[0]) == rows[0].variable


def test_load_lens_catalog(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("name,focal_length_mm,diameter_mm\nlens-a,30,25.4\n")
    catalog = config.load_lens_catalog(path)
    assert catalog.entries == (("lens-a", 30e-3, 25.4e-3),)
    path.write_text("bad,header\n")
    with pytest.raises(ValueError, match="header"):
        config.load_lens_catalog(path)
