import math
import re
import warnings

import numpy as np
import pytest

from dgmm.datasets import (
    InclineConfig,
    command_set,
    incline_metadata,
    load_old_faithful,
    load_points,
    load_samples,
    old_faithful_path,
    sample_gmm,
    simulate_incline,
    strip_z,
    three_component_benchmark,
    write_points,
    write_samples,
)
from dgmm.em import FixedGaussianMixture
from dgmm.gaussian import Gaussian
from dgmm.mixture import check_rows


class TestSampleCsv:
    def test_round_trip_in_order(self, tmp_path):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))[:3]
        path = tmp_path / "s.csv"
        write_samples(path, records)
        back = load_samples(path)
        assert len(back) == 3
        for a, b in zip(records, back):
            assert a.command == b.command
            assert a.z.as_vector() == pytest.approx(b.z.as_vector(), rel=0, abs=0)
            assert np.array_equal(a.x.as_vector(), b.x.as_vector())

    def test_no_z_file(self, tmp_path):
        records = strip_z(simulate_incline(InclineConfig(reps_per_orientation=1))[:3])
        path = tmp_path / "s.csv"
        write_samples(path, records)
        back = load_samples(path)
        assert all(r.z is None for r in back)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "cmd_long,cmd_lat,cmd_turn,dx,dy,dz,droll,dpitch,dyaw\n"
            "0.5,0,0,0.1,0,0,0,0,0\n"
            "0.5,0,oops,0.1,0,0,0,0,0\n"
        )
        with pytest.raises(ValueError, match=":3"):
            load_samples(path)
        path.write_text("not,a,real,header\n")
        with pytest.raises(ValueError, match=":1"):
            load_samples(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cells_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            "cmd_long,cmd_lat,cmd_turn,dx,dy,dz,droll,dpitch,dyaw\n"
            "0.5,0,0,0.1,0,0,0,0,0\n"
            f"0.5,0,0,{cell},0,0,0,0,0\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite cell"):
            load_samples(path)

    def test_comment_lines_ignored(self, tmp_path):
        records = strip_z(simulate_incline(InclineConfig(reps_per_orientation=1))[:2])
        path = tmp_path / "s.csv"
        write_samples(path, records, comment="provenance goes here")
        assert path.read_text().startswith("# provenance")
        assert len(load_samples(path)) == 2


class TestOldFaithful:
    def test_standardized_moments(self):
        pts, offset, scale = load_old_faithful()
        assert pts.shape[1] == 2
        assert pts.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-12)
        assert pts.var(axis=0) == pytest.approx(np.ones(2), abs=1e-12)
        assert offset is not None and scale is not None

    def test_raw_passthrough(self):
        pts, offset, scale = load_old_faithful(standardize=False)
        assert offset is None and scale is None
        # spot values from the table
        assert pts[0] == pytest.approx(np.array([3.6, 79.0]))
        assert pts[-1] == pytest.approx(np.array([4.467, 74.0]))

    def test_row_count_matches_file(self):
        pts, _, _ = load_old_faithful(standardize=False)
        with open(old_faithful_path()) as f:
            n_rows = sum(
                1 for line in f if line.strip() and not line.lstrip().startswith("#")
            )
        assert len(pts) == n_rows == 272

    def test_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "three.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="2 columns"):
            load_old_faithful(path)


class TestPointsIO:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "p.txt"
        write_points(path, pts, comment="test data")
        back = load_points(path)
        assert np.array_equal(back, pts)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cells_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n1 2\n3 {cell}\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3: non-finite cell"):
            load_points(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 2\n3 4 5\n")
        with pytest.raises(ValueError, match=":2"):
            load_points(path)


class TestSampleGmm:
    def test_zero_draws(self):
        gmm = three_component_benchmark()
        out = sample_gmm(gmm, 0, np.random.default_rng(1))
        assert out.shape == (0, 2)

    def test_single_component_mean_within_clt_bound(self):
        g = FixedGaussianMixture([1.0], [Gaussian([2.0, -1.0], 0.5 * np.eye(2))])
        n = 100_000
        draws = sample_gmm(g, n, np.random.default_rng(2))
        sigma = math.sqrt(0.5)
        bound = 4 * sigma / math.sqrt(n)
        assert draws.mean(axis=0) == pytest.approx(np.array([2.0, -1.0]), abs=bound)

    def test_singular_component_draws_from_its_evaluated_density(self):
        # density() evaluates the diagonally loaded covariance; gaussians
        # reports it, so sample_gmm draws from the density density() gives
        gmm = FixedGaussianMixture([1.0], [Gaussian([0.0, 0.0], np.ones((2, 2)))])
        (g,) = gmm.gaussians
        assert np.array_equal(g.cov, gmm._eval_cov[0])
        assert not np.array_equal(g.cov, np.ones((2, 2)))
        assert gmm.density(np.zeros(2)) == pytest.approx(3558.8, rel=1e-4)
        assert float(g.density(np.zeros(2))) == pytest.approx(gmm.density(np.zeros(2)), rel=1e-9)
        draws = sample_gmm(gmm, 10_000, np.random.default_rng(4))
        assert np.isfinite(draws).all()
        assert np.abs(draws[:, 0] - draws[:, 1]).max() < 1e-3
        assert draws[:, 0].var() == pytest.approx(1.0, rel=0.1)

    def test_component_frequencies(self):
        gmm = FixedGaussianMixture(
            [0.3, 0.7],
            [Gaussian([0.0], [[0.01]]), Gaussian([100.0], [[0.01]])],
        )
        draws = sample_gmm(gmm, 100_000, np.random.default_rng(3))
        frac_high = (draws[:, 0] > 50).mean()
        assert frac_high == pytest.approx(0.7, abs=0.01)


class TestSimulateIncline:
    def test_default_record_count(self):
        records = simulate_incline(InclineConfig())
        assert len(records) == 390
        assert incline_metadata(InclineConfig())["n_records"] == 390

    def test_all_commands_from_cube_no_noop(self):
        records = simulate_incline(InclineConfig(reps_per_orientation=1))
        valid = set(command_set())
        assert len(valid) == 26
        seen = {r.command for r in records}
        assert seen == valid
        assert not any(c.is_noop() for c in seen)

    def test_flat_ground_zeroes_terrain_and_drift(self):
        flat_drift = simulate_incline(InclineConfig(slope_deg=0.0, drift_gain=0.5, seed=9))
        flat_nodrift = simulate_incline(InclineConfig(slope_deg=0.0, drift_gain=0.0, seed=9))
        for a, b in zip(flat_drift, flat_nodrift):
            assert a.z.pitch == 0.0 and a.z.roll == 0.0
            assert np.array_equal(a.x.as_vector(), b.x.as_vector())

    def test_orientation_changes_forward_drift(self):
        cfg = InclineConfig(reps_per_orientation=1000, orientations_deg=(90.0, -90.0))
        records = [r for r in simulate_incline(cfg) if r.command.as_tuple() == (0.5, 0.0, 0.0)]
        slope = math.radians(cfg.slope_deg)
        downhill = np.array([r.x.dx for r in records if r.z.pitch < -slope / 2])
        uphill = np.array([r.x.dx for r in records if r.z.pitch > slope / 2])
        assert len(downhill) == len(uphill) == 1000
        se = math.sqrt(downhill.var(ddof=1) / len(downhill) + uphill.var(ddof=1) / len(uphill))
        assert downhill.mean() - uphill.mean() > 3 * se

    def test_deterministic_under_seed(self):
        a = simulate_incline(InclineConfig(seed=5))
        b = simulate_incline(InclineConfig(seed=5))
        for ra, rb in zip(a, b):
            assert ra.command == rb.command
            assert np.array_equal(ra.x.as_vector(), rb.x.as_vector())
            assert np.array_equal(ra.z.as_vector(), rb.z.as_vector())

    def test_strip_z_preserves_commands_and_deltas(self):
        s1 = simulate_incline(InclineConfig(reps_per_orientation=2))
        s2 = strip_z(s1)
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert b.z is None
            assert a.command == b.command
            assert np.array_equal(a.x.as_vector(), b.x.as_vector())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InclineConfig(slope_deg=60.0)
        with pytest.raises(ValueError):
            InclineConfig(reps_per_orientation=0)

    @pytest.mark.parametrize("field, value, message", [
        ("drift_gain", math.inf, "drift_gain must be finite"),
        ("drift_gain", -math.inf, "drift_gain must be finite"),
        ("drift_gain", math.nan, "drift_gain must be finite"),
        ("noise_scale", -0.5, "noise_scale must be finite and >= 0"),
        ("noise_scale", math.inf, "noise_scale must be finite and >= 0"),
        ("noise_scale", math.nan, "noise_scale must be finite and >= 0"),
        ("reps_per_orientation", 2.5, "reps_per_orientation must be an integer"),
        ("reps_per_orientation", 2.0, "reps_per_orientation must be an integer"),
    ])
    def test_non_finite_or_non_integer_parameters_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            InclineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("noise_scale", 1e308),
        ("noise_scale", 1e160),
        ("drift_gain", 1e308),
        ("drift_gain", -1e160),
    ])
    def test_overflowing_records_rejected_naming_the_parameter(self, field, value):
        # finite parameters whose records would hold an infinite coordinate,
        # or one whose square overflows, which no model accepts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{field} = {value!r} is too large; simulated record ")
                               + r"\d+ coordinate \d+ "):
                simulate_incline(InclineConfig(**{field: value}))

    def test_large_parameters_that_fit_float64_accepted(self):
        records = simulate_incline(InclineConfig(noise_scale=1e100, drift_gain=-1e50))
        rows = np.array([np.concatenate([r.x.as_vector(), r.z.as_vector()]) for r in records])
        check_rows(rows, "record {row}")
        assert np.abs(rows).max() > 1e90

    def test_zero_noise_and_numpy_integer_reps_accepted(self):
        cfg = InclineConfig(noise_scale=0.0, drift_gain=-0.5, reps_per_orientation=np.int64(1))
        records = simulate_incline(cfg)
        assert len(records) == 78
        assert all(np.isfinite(r.x.as_vector()).all() for r in records)
