import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpkit import (
    DenseOp,
    DiagonalOp,
    ParseError,
    Rng,
    ShapeError,
    Signal,
    Trace,
    add_gaussian_noise,
    load_signal,
    make_blur,
    make_mask,
    psnr,
    read_trace,
    save_signal,
    write_trace,
)
from pnpkit.core import (DIVERGENCE_NORM, RAW_MAGIC, _irfftn, _rfftn, diverged, lincomb,
                         real_spectrum, run_state, scoped_run)


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
        np.testing.assert_array_equal(np.asarray(sig), arr)

    def test_array_is_a_view_and_a_copy_on_request(self):
        sig = Signal.from_array(np.arange(6.0).reshape(2, 3))
        assert np.shares_memory(np.asarray(sig), sig.data)
        copied = np.array(sig)
        copied[0, 0] = 7.0  # a writable copy; the Signal keeps its data
        assert sig.data[0] == 0.0 and copied.shape == (2, 3)


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

    @pytest.mark.parametrize("peak", [float("nan"), float("inf")])
    def test_non_finite_peak_rejected(self, peak):
        with pytest.raises(ValueError, match="peak must be finite and positive"):
            psnr(np.zeros(3), np.ones(3), peak=peak)

    def test_signal_operand_equals_its_array(self, rng):
        a = rng.uniform(0, 1, (9, 7))
        b = rng.uniform(0, 1, (9, 7))
        assert psnr(Signal.from_array(a), b) == psnr(a, b)
        assert psnr(a, Signal.from_array(b)) == psnr(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operand_raises(self, bad):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        b[1, 2] = bad
        with pytest.raises(ValueError):
            psnr(a, b)
        with pytest.raises(ValueError):
            psnr(b, b)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_cap_property(self, values):
        x = np.array(values)
        assert psnr(x, x) == 300.0


class TestNoise:
    def test_sigma_zero_identity(self):
        x = np.linspace(0, 1, 9).reshape(3, 3)
        out = add_gaussian_noise(x, 0.0, Rng(0))
        np.testing.assert_array_equal(out, x)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros(3), -0.1, Rng(0))

    def test_deterministic(self):
        x = np.zeros(64)
        a = add_gaussian_noise(x, 0.5, Rng(9))
        b = add_gaussian_noise(x, 0.5, Rng(9))
        np.testing.assert_array_equal(a, b)

    def test_sample_variance(self):
        x = np.zeros(10**6)
        sigma = 0.37
        out = add_gaussian_noise(x, sigma, Rng(5))
        assert np.var(out) == pytest.approx(sigma**2, rel=0.01)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_result_is_a_read_only_array_apart_from_x(self, sigma):
        x = np.linspace(0, 1, 9).reshape(3, 3)
        out = add_gaussian_noise(x, sigma, Rng(0))
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        assert not np.shares_memory(out, x) and x.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    @pytest.mark.parametrize("x,sigma", [(np.full(256, 1.0), 1e308), (np.array([0.0, np.nan]), 0.0)],
                             ids=["overflow", "nan-input"])
    def test_non_finite_result_raises(self, x, sigma):
        with pytest.raises(ValueError, match="finite"):
            add_gaussian_noise(x, sigma, Rng(0))

    def test_two_stage_variance_adds(self):
        x = np.zeros(10**6)
        s1, s2 = 0.3, 0.4
        out = add_gaussian_noise(add_gaussian_noise(x, s1, Rng(1)), s2, Rng(2))
        assert np.var(out) == pytest.approx(s1**2 + s2**2, rel=0.01)


class TestRawFormat:
    def test_bitwise_roundtrip(self, tmp_path, rng):
        x = rng.standard_normal((5, 7))
        path = tmp_path / "sig.raw"
        save_signal(x, path)
        back = load_signal(path)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "sig.raw"
        path.write_bytes(b"NOTMAGIC" + b"{}\n")
        with pytest.raises(ParseError) as exc:
            load_signal(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        x = np.zeros(8)
        path = tmp_path / "sig.raw"
        save_signal(x, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_signal(path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            save_signal(np.zeros(4), tmp_path / "sig.bmp")

    @pytest.mark.parametrize("ext", ["raw", "pgm"])
    def test_loaded_signal_is_read_only(self, tmp_path, ext):
        path = tmp_path / f"sig.{ext}"
        save_signal(np.full((2, 3), 0.5), path)
        back = load_signal(path)
        assert type(back) is np.ndarray and back.dtype == np.float64 and back.shape == (2, 3)
        with pytest.raises(ValueError):
            back[0, 0] = 1.0

    def test_non_finite_save_raises(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            save_signal(np.array([1.0, np.inf]), tmp_path / "sig.raw")

    @pytest.mark.parametrize("shape,values,error", [
        ([2], [0.0, np.nan], ValueError),
        ([3], [1.0, np.inf, 0.0], ValueError),
        ([0], [], ShapeError),
        ([-2, -3], [0.0] * 6, ShapeError),
    ], ids=["nan", "inf", "zero-side", "negative-sides"])
    def test_malformed_raw_file_fails_to_load(self, tmp_path, shape, values, error):
        path = tmp_path / "sig.raw"
        sidecar = ('{"shape":%s}' % shape).encode().replace(b" ", b"")
        path.write_bytes(RAW_MAGIC + sidecar + b"\n" + np.array(values, "<f8").tobytes())
        with pytest.raises(error):
            load_signal(path)


class TestNetpbm:
    def test_p2_ascii_example(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255 128 64\n")
        sig = load_signal(path)
        assert sig.shape == (2, 2)
        np.testing.assert_allclose(
            sig, np.array([[0, 255], [128, 64]]) / 255.0, atol=0
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
        back = load_signal(path)
        np.testing.assert_array_equal(back, np.round(x * 255) / 255.0)

    def test_quantized_roundtrip_16bit(self, tmp_path, rng):
        x = rng.uniform(0, 1, (3, 5))
        path = tmp_path / "q16.pgm"
        save_signal(x, path, maxval=65535)
        back = load_signal(path)
        np.testing.assert_array_equal(back, np.round(x * 65535) / 65535.0)

    def test_ppm_roundtrip(self, tmp_path, rng):
        x = rng.uniform(0, 1, (4, 4, 3))
        path = tmp_path / "c.ppm"
        save_signal(x, path)
        back = load_signal(path)
        assert back.shape == (4, 4, 3)
        np.testing.assert_array_equal(back, np.round(x * 255) / 255.0)

    def test_p3_ascii(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 0 128\n")
        sig = load_signal(path)
        np.testing.assert_allclose(sig.reshape(-1), [1.0, 0.0, 128 / 255.0])

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


# (shape, whether the round trip gives scipy.fft's bits); the last two are per channel
_FFT_SHAPES = [((16,), True), ((8, 8), True), ((32, 32), True), ((64, 64), True),
               ((128, 128), True), ((64, 72), True), ((40, 72), False), ((63, 63), False),
               ((96, 96), False), ((100, 100), False), ((9, 13), False), ((16, 16, 3), True),
               ((40, 72, 3), False)]


class TestRealFftPair:
    """core._rfftn/_irfftn against scipy.fft.rfftn/irfftn, whose bits they replace."""

    @pytest.mark.parametrize("shape, same_bits", _FFT_SHAPES)
    def test_matches_scipy(self, shape, same_bits):
        import scipy.fft

        x = Rng(0).standard_normal(shape)
        axes = tuple(range(min(len(shape), 2)))
        spatial = shape[: len(axes)]
        spec = _rfftn(x, axes)
        reference = scipy.fft.rfftn(x, axes=axes)
        np.testing.assert_array_equal(spec, reference)  # forward: bit for bit on every shape
        back = _irfftn(spec, spatial, axes)
        reference_back = scipy.fft.irfftn(reference, s=spatial, axes=axes)
        assert back.shape == shape
        if same_bits:
            np.testing.assert_array_equal(back, reference_back)
        else:
            scale = np.max(np.abs(reference_back))
            assert np.max(np.abs(back - reference_back)) <= 1e-15 * scale
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-13)


class TestSharedSpectra:
    """A solver run (core.scoped_run) holds five spectra: real_spectrum's, filter inputs and outputs."""

    def test_shared_only_inside_the_block(self, rng):
        x = rng.standard_normal((6, 5))
        assert real_spectrum(x, (0, 1)) is not real_spectrum(x, (0, 1))
        with scoped_run():
            first = real_spectrum(x, (0, 1))
            assert real_spectrum(x, (0, 1)) is first
            assert not first.flags.writeable
            assert real_spectrum(x.copy(), (0, 1)) is not first  # another array object
            first = real_spectrum(x, (0, 1))
            assert real_spectrum(x, (0,)) is not first  # other axes
            first = real_spectrum(x, (0, 1))
            with scoped_run():
                assert real_spectrum(x, (0, 1)) is not first
        np.testing.assert_array_equal(first, np.fft.rfftn(x))
        assert real_spectrum(x, (0, 1)).flags.writeable

    def test_the_run_keeps_five_entries(self, rng):
        xs = [rng.standard_normal(8) for _ in range(6)]
        with scoped_run():
            held = [real_spectrum(x, (0,)) for x in xs[:5]]
            # the others took the next four entries; a lookup moves nothing
            assert all(real_spectrum(x, (0,)) is spec for x, spec in zip(xs[:5], held))
            real_spectrum(xs[5], (0,))  # a sixth array evicts the oldest, xs[0]
            assert all(real_spectrum(x, (0,)) is spec for x, spec in zip(xs[1:5], held[1:]))
            again = real_spectrum(xs[0], (0,))
            assert again is not held[0]
            np.testing.assert_array_equal(again, held[0])
            assert real_spectrum(xs[0], (0,)) is again

    def test_nothing_survives_the_run(self, rng):
        x = rng.standard_normal(8)
        with scoped_run():
            first = real_spectrum(x, (0,))
        assert run_state() is None
        with scoped_run():
            assert run_state() == {}
            assert real_spectrum(x, (0,)) is not first

    def test_another_thread_does_not_see_the_share(self, rng):
        x = rng.standard_normal(8)
        seen = []
        with scoped_run():
            first = real_spectrum(x, (0,))
            worker = threading.Thread(target=lambda: seen.append(real_spectrum(x, (0,))))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen[0] is not first and seen[0].flags.writeable

    @staticmethod
    def _filters():
        # name -> (operator, filter of x): even and asymmetric kernels, the
        # shifted solve's divide, and a 2-D kernel acting per channel
        rng = Rng(21)
        even = make_blur(np.full((3, 3), 1.0 / 9.0), (12, 9))
        skew = make_blur(rng.uniform(0.0, 1.0, (3, 5)), (12, 9))
        per_channel = make_blur(rng.uniform(0.0, 1.0, (3, 3)), (12, 9, 3))
        return {"even": (even, even._apply), "asymmetric": (skew, skew._adjoint),
                "shifted-solve": (skew, lambda x: skew.shifted_solve(0.3, x)),
                "per-channel": (per_channel, per_channel._apply)}

    @pytest.mark.parametrize("name", ["even", "asymmetric", "shifted-solve", "per-channel"])
    def test_a_filter_holds_the_spectrum_of_its_output(self, name, rng):
        op, apply = self._filters()[name]
        assert np.iscomplexobj(op.half_response) == (name != "even")
        x = rng.standard_normal(op.in_shape)
        axes = (0, 1)
        with scoped_run():
            out = apply(x)
            held = real_spectrum(out, axes)
            assert not held.flags.writeable and real_spectrum(out, axes) is held
            fresh = _rfftn(out, axes)
            assert np.max(np.abs(held - fresh)) <= 1e-13 * np.max(np.abs(fresh))
            assert real_spectrum(out.copy(), axes) is not held  # an equal-valued copy misses
            again = apply(out)  # filters the held spectrum
        np.testing.assert_allclose(again, apply(out), rtol=0, atol=1e-13 * np.max(np.abs(out)))

    def test_a_filter_reads_a_held_input_and_does_not_hold_a_new_one(self, rng, monkeypatch):
        from pnpkit import core

        forward = [0]

        def counted(x, axes):
            forward[0] += 1
            return _rfftn(x, axes)

        op = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
        monkeypatch.setattr(core, "_rfftn", counted)
        x = rng.standard_normal((8, 8))
        with scoped_run():
            out = op._apply(x)
            held = core._held_spectrum(run_state(), x, (0, 1))
            assert forward[0] == 1 and held is not None  # the input's fresh transform is held
            op._adjoint(x)
            op._adjoint(out)
            op.shifted_solve(0.5, out)
            assert forward[0] == 1  # each read the spectrum held for x or for out
            assert core._held_spectrum(run_state(), x, (0, 1)) is held
            assert sum(entry is x for entry, _, _ in run_state()["real_spectrum"]) == 1
        op._apply(out)
        assert forward[0] == 2  # outside a run every filter transforms afresh

    def test_a_held_output_does_not_survive_the_run_or_cross_threads(self, rng):
        op = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
        seen = []
        with scoped_run():
            out = op._apply(rng.standard_normal((8, 8)))
            held = real_spectrum(out, (0, 1))
            worker = threading.Thread(target=lambda: seen.append(real_spectrum(out, (0, 1))))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen[0] is not held and seen[0].flags.writeable
        after = real_spectrum(out, (0, 1))
        assert after is not held and after.flags.writeable


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


class TestLincomb:
    """core.lincomb: the bits of the written expression; in a run, the spectrum of held terms."""

    @staticmethod
    def _forms(x, y, z, t=0.37, alpha=0.3):
        # (terms, the written expression) for each combination the drivers form
        return [
            (((1.0, x), (-t, y)), x - t * y),
            (((2.0, y), (-1.0, x)), 2.0 * y - x),
            (((1.0, x), (1.0, z), (-1.0, y)), x + z - y),
            (((1.0 - alpha, x), (alpha, y)), (1.0 - alpha) * x + alpha * y),
            (((t, y),), t * y),
        ]

    def test_the_bits_of_the_written_expression_outside_a_run(self, rng):
        scales = np.array([1e-300, 1e-8, 1.0, 3.0, 1e8, 1e300])
        x, y, z = (rng.standard_normal((4, 6)) * scales for _ in range(3))
        for t in (0.37, 1.0, 2.0, 1e308):
            with np.errstate(over="ignore", invalid="ignore"):
                for terms, expected in self._forms(x, y, z, t):
                    out = lincomb(*terms)
                    np.testing.assert_array_equal(_bits(out), _bits(expected))
                    assert all(out is not term for _, term in terms)  # always a new array

    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    def test_dense_and_diagonal_runs_keep_the_bits_and_hold_nothing(self, kind, rng):
        op = (DenseOp(rng.standard_normal((6, 6))) if kind == "dense"
              else DiagonalOp(rng.standard_normal(6)))
        with scoped_run():
            x, y, z = (op._apply(rng.standard_normal(6)) for _ in range(3))
            for terms, expected in self._forms(x, y, z):
                np.testing.assert_array_equal(_bits(lincomb(*terms)), _bits(expected))
            assert not run_state().get("real_spectrum")

    def test_a_term_without_a_held_spectrum_makes_no_transform(self, rng, monkeypatch):
        from pnpkit import core

        forward = [0]

        def counted(x, axes):
            forward[0] += 1
            return _rfftn(x, axes)

        blur = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
        mask = make_mask(rng.uniform(0.0, 1.0, (8, 8)) > 0.5)
        with scoped_run():
            x = rng.standard_normal((8, 8))
            filtered, masked = blur._apply(x), mask._apply(x)
            monkeypatch.setattr(core, "_rfftn", counted)  # count what the combinations make
            out = lincomb((1.0, filtered), (-0.5, masked))
            assert core._held_spectrum(run_state(), out, (0, 1)) is None
            out = lincomb((1.0, masked), (2.0, masked))
            assert not any(entry is out for entry, _, _ in run_state()["real_spectrum"])
        assert forward[0] == 0

    @pytest.mark.parametrize("shape", [(12, 9), (12, 9, 3)], ids=["2-D", "per-channel"])
    def test_a_held_combination_is_the_spectrum_of_the_result(self, shape, rng):
        from pnpkit import core

        op = make_blur(rng.uniform(0.0, 1.0, (3, 5)), shape)
        axes = (0, 1)
        for form in range(5):
            with scoped_run():
                x = op._apply(rng.standard_normal(shape))
                y = op._adjoint(x)
                z = op.normal(y)
                terms, expected = self._forms(x, y, z)[form]
                out = lincomb(*terms)
                np.testing.assert_array_equal(_bits(out), _bits(expected))
                held = core._held_spectrum(run_state(), out, axes)
                assert held is not None and not held.flags.writeable
                fresh = _rfftn(out, axes)
                assert np.max(np.abs(held - fresh)) <= 1e-12 * np.max(np.abs(fresh))
                again = op._apply(out)  # reads the held spectrum
            np.testing.assert_allclose(again, op._apply(out), rtol=0,
                                       atol=1e-12 * np.max(np.abs(out)))
