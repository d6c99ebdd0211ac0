import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpkit import (
    ParseError,
    Rng,
    ShapeError,
    Signal,
    Trace,
    add_gaussian_noise,
    load_signal,
    psnr,
    read_trace,
    save_signal,
    write_trace,
)
from pnpkit.core import DIVERGENCE_NORM, diverged, run_state, scoped_run


class TestSignal:
    def test_shape_data_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Signal(np.zeros(5), (2, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]), (2,))

    def test_immutable(self):
        sig = Signal.from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sig.data[0] = 1.0

    def test_roundtrip_array(self):
        arr = np.arange(12.0).reshape(3, 4)
        sig = Signal.from_array(arr)
        assert sig.shape == (3, 4)
        np.testing.assert_array_equal(sig.to_array(), arr)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).standard_normal(100)
        b = Rng(42).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_children_independent(self):
        r = Rng(1)
        a = r.child(0).standard_normal(10)
        b = r.child(1).standard_normal(10)
        assert not np.allclose(a, b)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)


class TestPsnr:
    def test_identical_hits_cap(self):
        x = Signal.from_array(np.linspace(0, 1, 10))
        assert psnr(x, x) == 300.0

    def test_forced_mse(self):
        # MSE = 0.01 with peak 1 gives exactly 20 dB
        a = np.zeros(50)
        b = np.full(50, 0.1)
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-12)

    def test_against_double_loop_oracle(self, rng):
        a = rng.uniform(0, 1, (7, 5))
        b = rng.uniform(0, 1, (7, 5))
        total = 0.0
        for i in range(7):
            for j in range(5):
                total += (a[i, j] - b[i, j]) ** 2
        mse = total / 35.0
        expected = 10.0 * math.log10(1.0 / mse)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self, rng):
        a = rng.uniform(0, 1, 20)
        b = rng.uniform(0, 1, 20)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros(3), np.zeros(4))

    def test_bad_peak(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(3), peak=0.0)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_cap_property(self, values):
        x = np.array(values)
        assert psnr(x, x) == 300.0


class TestNoise:
    def test_sigma_zero_identity(self):
        x = Signal.from_array(np.linspace(0, 1, 9).reshape(3, 3))
        out = add_gaussian_noise(x, 0.0, Rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros(3), -0.1, Rng(0))

    def test_deterministic(self):
        x = np.zeros(64)
        a = add_gaussian_noise(x, 0.5, Rng(9))
        b = add_gaussian_noise(x, 0.5, Rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_sample_variance(self):
        x = np.zeros(10**6)
        sigma = 0.37
        out = add_gaussian_noise(x, sigma, Rng(5))
        assert np.var(out.data) == pytest.approx(sigma**2, rel=0.01)

    def test_two_stage_variance_adds(self):
        x = np.zeros(10**6)
        s1, s2 = 0.3, 0.4
        out = add_gaussian_noise(add_gaussian_noise(x, s1, Rng(1)), s2, Rng(2))
        assert np.var(out.data) == pytest.approx(s1**2 + s2**2, rel=0.01)


class TestRawFormat:
    def test_bitwise_roundtrip(self, tmp_path, rng):
        x = Signal.from_array(rng.standard_normal((5, 7)))
        path = tmp_path / "sig.raw"
        save_signal(x, path)
        back = load_signal(path)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back.data, x.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "sig.raw"
        path.write_bytes(b"NOTMAGIC" + b"{}\n")
        with pytest.raises(ParseError) as exc:
            load_signal(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        x = Signal.from_array(np.zeros(8))
        path = tmp_path / "sig.raw"
        save_signal(x, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_signal(path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            save_signal(np.zeros(4), tmp_path / "sig.bmp")


class TestNetpbm:
    def test_p2_ascii_example(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255 128 64\n")
        sig = load_signal(path)
        assert sig.shape == (2, 2)
        np.testing.assert_allclose(
            sig.to_array(), np.array([[0, 255], [128, 64]]) / 255.0, atol=0
        )

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# comment\n2 1\n# another\n255\n10 20\n")
        sig = load_signal(path)
        assert sig.shape == (1, 2)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(ParseError):
            load_signal(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(ParseError):
            load_signal(path)

    def test_quantized_roundtrip_8bit(self, tmp_path, rng):
        x = rng.uniform(0, 1, (6, 4))
        path = tmp_path / "q.pgm"
        save_signal(x, path)
        back = load_signal(path).to_array()
        np.testing.assert_array_equal(back, np.round(x * 255) / 255.0)

    def test_quantized_roundtrip_16bit(self, tmp_path, rng):
        x = rng.uniform(0, 1, (3, 5))
        path = tmp_path / "q16.pgm"
        save_signal(x, path, maxval=65535)
        back = load_signal(path).to_array()
        np.testing.assert_array_equal(back, np.round(x * 65535) / 65535.0)

    def test_ppm_roundtrip(self, tmp_path, rng):
        x = rng.uniform(0, 1, (4, 4, 3))
        path = tmp_path / "c.ppm"
        save_signal(x, path)
        back = load_signal(path)
        assert back.shape == (4, 4, 3)
        np.testing.assert_array_equal(back.to_array(), np.round(x * 255) / 255.0)

    def test_p3_ascii(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 0 128\n")
        sig = load_signal(path)
        np.testing.assert_allclose(sig.to_array().reshape(-1), [1.0, 0.0, 128 / 255.0])

    def test_sample_exceeds_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n300\n")
        with pytest.raises(ParseError):
            load_signal(path)

    def test_sample_exceeds_maxval_reports_the_sample_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n300\n")
        with pytest.raises(ParseError) as exc:
            load_signal(path)
        assert exc.value.offset == 11  # where "300" starts, like every other token error
        assert "(byte offset 11)" in str(exc.value)

    @pytest.mark.parametrize("sample", [b"-1", b"1.5"])
    def test_bad_ascii_sample(self, tmp_path, sample):
        path = tmp_path / "bad.pgm"
        header = b"P2\n2 1\n255\n7 "
        path.write_bytes(header + sample + b"\n")
        with pytest.raises(ParseError) as exc:
            load_signal(path)
        assert exc.value.offset == len(header)
        assert f"(byte offset {len(header)})" in str(exc.value)

    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ShapeError):
            save_signal(np.zeros((2, 2, 3)), tmp_path / "x.pgm")


class TestTrace:
    def make_trace(self):
        t = Trace()
        t.append(0, objective=1.0, psnr=20.0)
        t.append(1, objective=0.5, step_residual=0.1, fp_residual=0.2, seconds=0.01)
        t.append(2, objective=0.25, step_residual=0.05, fp_residual=0.1, seconds=0.02)
        return t

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(Trace(), path)
        lines = path.read_text().splitlines()
        assert lines == ["iter,objective,step_residual,fp_residual,psnr,seconds"]

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(self.make_trace(), path)
        assert len(path.read_text().splitlines()) == 4

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        t = self.make_trace()
        write_trace(t, path)
        back = read_trace(path)
        assert len(back) == len(t)
        for col in ("iter", "objective", "step_residual", "fp_residual", "psnr", "seconds"):
            np.testing.assert_array_equal(
                np.nan_to_num(back.column(col), nan=-1), np.nan_to_num(t.column(col), nan=-1)
            )

    def test_nan_written_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        t = Trace()
        t.append(0)
        write_trace(t, path)
        assert path.read_text().splitlines()[1] == "0,,,,,"

    def test_indices_strictly_increasing(self):
        t = Trace()
        t.append(0)
        with pytest.raises(ValueError):
            t.append(0)

    def test_must_start_at_zero(self):
        t = Trace()
        with pytest.raises(ValueError):
            t.append(3)


class TestDiverged:
    @pytest.mark.filterwarnings("error")
    def test_one_rule_for_non_finite_and_large_states(self):
        assert not diverged(np.ones(4))
        assert not diverged(np.array([DIVERGENCE_NORM, 0.0]))
        assert diverged(np.array([1.0, np.nan]))
        assert diverged(np.array([-np.inf, 1.0]))
        assert diverged(np.array([2.0 * DIVERGENCE_NORM, 0.0]))
        with np.errstate(over="ignore"):  # the norm of a large finite state overflows
            assert diverged(np.array([1e200, 1.0]))


class TestScopedRun:
    def test_each_scope_is_fresh_and_reset(self):
        assert run_state() is None
        with scoped_run():
            outer = run_state()
            outer["k"] = 1
            with scoped_run():
                assert run_state() == {}
            assert run_state() is outer
        assert run_state() is None

    def test_reset_on_error(self):
        with pytest.raises(RuntimeError):
            with scoped_run():
                raise RuntimeError("boom")
        assert run_state() is None
