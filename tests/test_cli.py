import errno
import os
import shutil
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit import cli
from scdkit import io as scdio
from scdkit.cli import main
from scdkit.signal import _SNR_DB_MIN


def _read_hash(capsys):
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("output_sha256="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no output hash in:\n{out}")


def test_gen_creates_expected_file(tmp_path, capsys):
    path = tmp_path / "x.iq"
    rc = main(["gen", "--n", "2048", "--gain", "31", "--chip-rate", "0.25",
               "--snr", "10", "--seed", "7", "-o", str(path)])
    assert rc == 0
    assert path.stat().st_size == 2048 * 8


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.iq"
    b = tmp_path / "b.iq"
    args = ["gen", "--n", "1024", "--seed", "3", "-o"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_chip_rate(tmp_path, capsys):
    rc = main(["gen", "--n", "1024", "--chip-rate", "0.7",
               "-o", str(tmp_path / "x.iq")])
    assert rc == 2


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fam"])  # missing required --input/-o
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fam", "ssca"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_zero_f_bins_is_a_usage_error(tmp_path, capsys, command, value):
    # rejected while parsing: the missing input would otherwise exit 3
    out = tmp_path / "o.scd1"
    with pytest.raises(SystemExit) as exc:
        main([command, "-i", str(tmp_path / "absent.iq"), "--f-bins", value, "-o", str(out)])
    assert exc.value.code == 2
    assert "--f-bins" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fam", "ssca"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_zero_alpha_bins_is_a_usage_error(tmp_path, capsys, command, value):
    out = tmp_path / "o.scd1"
    with pytest.raises(SystemExit) as exc:
        main([command, "-i", str(tmp_path / "absent.iq"), "--alpha-bins", value,
              "-o", str(out)])
    assert exc.value.code == 2
    assert "--alpha-bins" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fam", "ssca"])
def test_oversized_grid_exits_3_before_reading_input(tmp_path, capsys, command):
    # the input does not exist: the grid bound must fail first, and nothing is written
    code = main([command, "-i", str(tmp_path / "absent.iq"), "--f-bins", "1000000",
                 "--alpha-bins", "999999", "-o", str(tmp_path / "o.scd1"),
                 "--profile-csv", str(tmp_path / "p.csv"), "--pgm", str(tmp_path / "o.pgm")])
    assert code == 3
    assert "999999 alpha bins x 1000000 f bins" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("estimator", ["fam", "ssca"])
def test_zero_bench_repeat_is_a_usage_error(capsys, estimator):
    with pytest.raises(SystemExit) as exc:
        main(["bench", estimator, "--repeat", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--repeat" in captured.err and "run[" not in captured.out


@pytest.mark.parametrize("command", [["fam"], ["ssca"], ["bench", "fam"], ["bench", "ssca"]])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    # rejected while parsing: the missing input would otherwise exit 3
    out = tmp_path / "o.scd1"
    files = [] if command[0] == "bench" else ["-i", str(tmp_path / "absent.iq"), "-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(command + files + ["--threads", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--threads" in captured.err and "run[" not in captured.out
    assert not out.exists()


def test_fam_zero_input_gives_zero_grid(tmp_path, capsys):
    iq = tmp_path / "z.iq"
    scdio.write_iq(iq, np.zeros(512, dtype=np.complex64))
    out = tmp_path / "z.scd1"
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 0
    grid, header = scdio.read_scd1(out)
    assert header["rows"] == 1024 and header["cols"] == 512
    assert np.all(grid == 0.0)


def test_fam_input_length_mismatch(tmp_path, capsys):
    iq = tmp_path / "short.iq"
    scdio.write_iq(iq, np.zeros(100, dtype=np.complex64))
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64",
               "-o", str(tmp_path / "o.scd1")])
    assert rc == 3


def test_truncated_iq_file_exits_3(tmp_path, capsys):
    # 512 whole samples plus 3 stray bytes used to read as 512 samples, exit 0
    iq = tmp_path / "cut.iq"
    scdio.write_iq(iq, np.ones(512, dtype=np.complex64))
    with open(iq, "ab") as fh:
        fh.write(b"\x00" * 3)
    out = tmp_path / "o.scd1"
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(iq) in err and str(512 * 8 + 3) in err
    assert not out.exists()


def test_ten_byte_iq_file_is_a_data_error(tmp_path, capsys):
    # used to read as one sample
    iq = tmp_path / "ten.iq"
    iq.write_bytes(b"\x00" * 10)
    with pytest.raises(sk.DataError, match="10 bytes"):
        scdio.read_iq(iq)
    out = tmp_path / "o.scd1"
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    assert "10 bytes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator,n,np_channels", [("fam", 512, 64), ("ssca", 4096, 32)])
def test_non_finite_input_is_a_data_error(tmp_path, capsys, estimator, n, np_channels):
    x = np.ones(n, dtype=np.complex64)
    x[n // 3] = np.nan
    iq = tmp_path / "nan.iq"
    scdio.write_iq(iq, x)
    outs = [tmp_path / "o.scd1", tmp_path / "p.csv", tmp_path / "h.pgm"]
    rc = main([estimator, "-i", str(iq), "--n", str(n), "--np", str(np_channels),
               "-o", str(outs[0]), "--profile-csv", str(outs[1]), "--pgm", str(outs[2])])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not any(p.exists() for p in outs)


def test_ssca_default_m1_follows_n(tmp_path, capsys):
    # a fixed default M1 = 1024 leaves M2 = 4 at N = 4096, which Np = 64 cannot divide
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "4096", "--seed", "2", "-o", str(iq)]) == 0
    out = tmp_path / "o.scd1"
    assert main(["ssca", "-i", str(iq), "--n", "4096", "--np", "64", "-o", str(out)]) == 0
    assert "M1=64 " in capsys.readouterr().out
    grid, _ = scdio.read_scd1(out)
    assert grid.shape == (1024, 512) and np.all(np.isfinite(grid))


def test_ssca_spill_disk_too_small_exits_3(tmp_path, capsys, monkeypatch):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "4096", "--seed", "2", "-o", str(iq)]) == 0
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=0))
    out = tmp_path / "o.scd1"
    rc = main(["ssca", "-i", str(iq), "--n", "4096", "--np", "32", "--mem-cap", "1",
               "--spill-dir", str(spill), "-o", str(out)])
    assert rc == 3
    assert str(spill) in capsys.readouterr().err
    assert list(spill.iterdir()) == [] and not out.exists()


def test_ssca_spill_disk_full_mid_write_exits_3(tmp_path, capsys, monkeypatch):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "4096", "--seed", "2", "-o", str(iq)]) == 0
    spill = tmp_path / "spill"
    spill.mkdir()
    real_pwrite, calls = os.pwrite, []

    def fill_disk(fd, data, offset):
        calls.append(offset)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", fill_disk)
    out = tmp_path / "o.scd1"
    rc = main(["ssca", "-i", str(iq), "--n", "4096", "--np", "32", "--mem-cap", "1",
               "--spill-dir", str(spill), "-o", str(out)])
    assert rc == 3
    assert "No space" in capsys.readouterr().err
    assert list(spill.iterdir()) == [] and not out.exists()


def test_scd1_roundtrip_bytes(tmp_path, capsys):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "1", "-o", str(iq)]) == 0
    first = tmp_path / "a.scd1"
    assert main(["fam", "-i", str(iq), "--n", "512", "--np", "64",
                 "-o", str(first)]) == 0
    grid, header = scdio.read_scd1(first)
    second = tmp_path / "b.scd1"
    scdio.write_scd1(second, grid, header["alpha_range"], header["f_range"],
                     precision=header["precision"])
    assert first.read_bytes() == second.read_bytes()


def test_scd1_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad.scd1"
    bad.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(sk.DataError):
        scdio.read_scd1(bad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_profile_csv_formats_like_numpy_scalars(tmp_path, dtype):
    # rows are formatted a block at a time; a block edge must not show
    special = [-0.0, np.finfo(dtype).smallest_subnormal, 1 / 3, 3.4e38,
               np.nextafter(dtype(1), dtype(2))]
    for n in (len(special), 4097, 3 * 4096 + 5):
        rng = np.random.default_rng(n)
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).astype(dtype)
        values[:len(special)] = special
        values[-len(special):] = special
        prof = sk.AlphaProfile(alphas=values[::-1].copy(), values=values)
        path = tmp_path / "p.csv"
        scdio.write_profile_csv(path, prof)
        rows = "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(prof.alphas, prof.values))
        assert path.read_bytes() == ("alpha,value\n" + rows).encode()


def _old_write_scd1(path, grid, alpha_range, f_range, precision):
    # write_scd1 as it was: header, then a tobytes() copy of the payload
    flag = {"f32": 0, "f64": 1}[precision]
    header = scdio._SCD1_HEADER.pack(scdio.SCD1_MAGIC, scdio.SCD1_VERSION, grid.shape[0],
                                     grid.shape[1], *map(float, alpha_range),
                                     *map(float, f_range), flag)
    payload = np.ascontiguousarray(grid, dtype=("<f4", "<f8")[flag]).tobytes()
    path.write_bytes(header + payload)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("layout", ["f32", "f64", "strided", "big_endian"])
def test_write_scd1_bytes_match_the_copying_writer(tmp_path, layout, precision):
    base = np.random.default_rng(5).random((24, 40)) * 1e3
    grid = {
        "f32": base.astype(np.float32),
        "f64": base,
        "strided": base[::2, ::-3],
        "big_endian": base.astype(">f8"),
    }[layout]
    new, old = tmp_path / "new.scd1", tmp_path / "old.scd1"
    scdio.write_scd1(new, grid, (-1.0, 1.0), (-0.5, 0.5), precision=precision)
    _old_write_scd1(old, grid, (-1.0, 1.0), (-0.5, 0.5), precision)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(1023, 512), (3, 1 << 16), (5, 0)])
def test_write_scd1_casts_in_row_blocks(tmp_path, precision, shape):
    # a float64 grid a few rows short of the CLI's, rows longer than a block,
    # and an empty grid: the payload bytes match the copying writer, and the
    # cast never holds more than a block of rows
    grid = np.random.default_rng(7).random(shape) * 1e3
    new, old = tmp_path / "new.scd1", tmp_path / "old.scd1"
    tracemalloc.start()
    try:
        scdio.write_scd1(new, grid, (-1.0, 1.0), (-0.5, 0.5), precision=precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _old_write_scd1(old, grid, (-1.0, 1.0), (-0.5, 0.5), precision)
    assert new.read_bytes() == old.read_bytes()
    assert peak <= max(shape[1], scdio._SCD1_BLOCK_VALUES) * 8 + (64 << 10)


def _old_pgm_bytes(grid, log_scale):
    # write_pgm's formula as it was, one temporary per step
    grid = np.asarray(grid, dtype=np.float64)
    peak = grid.max()
    if peak <= 0.0:
        img = np.zeros_like(grid)
    elif log_scale:
        floor = peak * 1e-6
        img = (np.log10(np.maximum(grid, floor)) - np.log10(floor)) / 6.0
    else:
        img = grid / peak
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)[::-1, :]
    return f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode() + pixels.tobytes()


@pytest.mark.parametrize("log_scale", [False, True])
@pytest.mark.parametrize("kind", ["f64", "f32", "zero"])
def test_write_pgm_bytes_match_the_formula(tmp_path, kind, log_scale):
    rng = np.random.default_rng(9)
    base = rng.random((30, 50)) ** 8 * 1e4  # spans many decades, so the log floor clips
    grid = {"f64": base, "f32": base.astype(np.float32), "zero": np.zeros((30, 50))}[kind]
    before = grid.copy()
    path = tmp_path / "g.pgm"
    scdio.write_pgm(path, grid, log_scale=log_scale)
    assert path.read_bytes() == _old_pgm_bytes(before, log_scale)
    assert np.array_equal(grid, before)  # the caller's grid is never written


def _pgm_block_bytes(cols):
    # one block of rows as float64 and as uint8
    return max(cols, scdio._SCD1_BLOCK_VALUES) * (8 + 1)


@pytest.mark.parametrize("log_scale", [False, True])
@pytest.mark.parametrize("kind", ["f64", "f32", "zero"])
@pytest.mark.parametrize("shape", [(1023, 511), (3, (1 << 16) + 3), (1, 1)])
def test_write_pgm_renders_in_row_blocks(tmp_path, shape, kind, log_scale):
    # block ends off a SIMD-width multiple, rows longer than a block, and one
    # cell: the bytes match the formula, and the render holds one block
    base = np.random.default_rng(11).random(shape) ** 8 * 1e4
    grid = {"f64": base, "f32": base.astype(np.float32), "zero": np.zeros(shape)}[kind]
    before = grid.copy()
    path = tmp_path / "g.pgm"
    tracemalloc.start()
    try:
        scdio.write_pgm(path, grid, log_scale=log_scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _old_pgm_bytes(before, log_scale)
    assert np.array_equal(grid, before)
    assert peak <= _pgm_block_bytes(shape[1]) + (64 << 10), peak


@pytest.mark.parametrize("shape", [(1024, 512), (4096, 2048)])
def test_write_pgm_scratch_does_not_grow_with_the_grid(tmp_path, shape):
    grid = np.random.default_rng(12).random(shape, dtype=np.float32)
    tracemalloc.start()
    try:
        scdio.write_pgm(tmp_path / "g.pgm", grid, log_scale=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _pgm_block_bytes(shape[1]) + (64 << 10), peak


def test_fam_op_peak_is_values_grid_and_a_fixed_slack(tmp_path):
    # the file-to-file op at the reference point: only the values and the
    # grid are full size; the slack covers the estimate's axis bases (1 MiB
    # at Np = 256), the profile and one writer block
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=2048, seed=4))
    cfg = sk.FamConfig(N=2048, Np=256)
    tracemalloc.start()
    try:
        est = sk.fam_full(x, cfg)
        grid = sk.fam_to_grid(est, 512, 1024)
        scdio.write_scd1(tmp_path / "o.scd1", grid, sk.ALPHA_RANGE, sk.F_RANGE)
        scdio.write_profile_csv(tmp_path / "p.csv", sk.alpha_profile(est, 2 * cfg.N + 1))
        scdio.write_pgm(tmp_path / "h.pgm", grid, log_scale=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= est.values.nbytes + grid.nbytes + (3 << 20), peak


def test_read_iq_keeps_every_sample_bit_for_bit(tmp_path):
    # signed zeros, infinities and NaN payloads (quiet and signalling) as raw words
    words = np.array([0x80000000, 0x00000000, 0x40400000, 0xFF800000, 0x7F800000,
                      0x80000001, 0x7FC00001, 0xFFC12345, 0x7F800001, 0x3F800000],
                     dtype="<u4")
    iq = tmp_path / "w.iq"
    iq.write_bytes(words.tobytes())
    x = scdio.read_iq(iq)
    assert x.dtype == np.complex64 and x.shape == (5,)
    assert np.array_equal(x.view(np.uint32), words)
    # and the round trip through write_iq
    again = tmp_path / "again.iq"
    scdio.write_iq(again, x)
    assert again.read_bytes() == iq.read_bytes()


def test_read_iq_csv_keeps_every_sample_bit_for_bit(tmp_path):
    # I + 1j * Q turned an infinite Q into a NaN I, with a RuntimeWarning on
    # stderr, and a -0.0 I into +0.0
    csv = tmp_path / "x.csv"
    csv.write_text("i,q\n-0.0,1\n1,-0.0\ninf,2\n3,-inf\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = scdio.read_iq_csv(csv)
    want = np.array([[-0.0, 1.0], [1.0, -0.0], [np.inf, 2.0], [3.0, -np.inf]])
    assert x.dtype == np.complex128 and x.shape == (4,)
    assert np.array_equal(x.view(np.float64).reshape(4, 2).view(np.uint64), want.view(np.uint64))


def _old_write_iq(path, x):
    # write_iq as it was: an interleaved float32 copy, then a bytes copy of it
    x = np.asarray(x)
    inter = np.empty(2 * x.size, dtype="<f4")
    inter[0::2] = x.real.astype(np.float32, copy=False)
    inter[1::2] = x.imag.astype(np.float32, copy=False)
    path.write_bytes(inter.tobytes())


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("layout", ["c128", "c64", "big_endian", "strided", "real", "special"])
def test_write_iq_bytes_match_the_copying_writer(tmp_path, layout):
    rng = np.random.default_rng(12)
    base = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    # signed zeros, infinities, float32 subnormals and NaN payloads in float64;
    # casting the signalling NaN warns in both writers
    nan_a = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    nan_b = np.array([0xFFF4000000000000], dtype=np.uint64).view(np.float64)[0]
    special = np.array([complex(-0.0, 0.0), complex(np.inf, -np.inf), complex(1e-40, -3e-45),
                        complex(nan_a, 1.0), complex(2.0, nan_b), complex(0.0, -0.0)])
    x = {
        "c128": base,
        "c64": base.astype(np.complex64),
        "big_endian": base.astype(">c16"),
        "strided": base[::-3],
        "real": base.real,
        "special": special,
    }[layout]
    new, old = tmp_path / "new.iq", tmp_path / "old.iq"
    scdio.write_iq(new, x)
    _old_write_iq(old, x)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("target", ["output", "pgm", "input"])
def test_file_system_errors_exit_3(tmp_path, capsys, target):
    # a directory where a file is expected used to end in a traceback, exit 1
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "2", "-o", str(iq)]) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"input": str(iq), "output": str(tmp_path / "o.scd1"), "pgm": str(tmp_path / "h.pgm")}
    paths[target] = str(folder)
    capsys.readouterr()
    rc = main(["fam", "-i", paths["input"], "--n", "512", "--np", "64",
               "-o", paths["output"], "--pgm", paths["pgm"]])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(folder) in err


@pytest.mark.parametrize("command", ["fam", "ssca"])
@pytest.mark.parametrize("atten", ["inf", "1e4"])
def test_unusable_attenuation_is_a_usage_error(tmp_path, capsys, command, atten):
    # inf used to write an all-NaN grid with exit 0, 1e4 to overflow with exit 1
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "4096", "--seed", "2", "-o", str(iq)]) == 0
    out = tmp_path / "o.scd1"
    rc = main([command, "-i", str(iq), "--n", "4096", "--np", "32", "--atten-db", atten,
               "-o", str(out)])
    assert rc == 2
    assert "atten_db" in capsys.readouterr().err
    assert not out.exists()


def test_compare_self_is_zero(tmp_path, capsys):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "2", "-o", str(iq)]) == 0
    out = tmp_path / "x.scd1"
    assert main(["fam", "-i", str(iq), "--n", "512", "--np", "64",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    rc = main(["compare", str(out), str(out), "--tol", "1e-12"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean_rel=0.000000e+00" in text


def test_compare_precision_gap_and_tolerance(tmp_path, capsys):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "2", "-o", str(iq)]) == 0
    f32 = tmp_path / "f32.scd1"
    f64 = tmp_path / "f64.scd1"
    base = ["fam", "-i", str(iq), "--n", "512", "--np", "64"]
    assert main(base + ["--precision", "f32", "-o", str(f32)]) == 0
    assert main(base + ["--precision", "f64", "-o", str(f64)]) == 0
    capsys.readouterr()
    assert main(["compare", str(f32), str(f64), "--tol", "2e-4"]) == 0
    rc = main(["compare", str(f32), str(f64), "--tol", "1e-12"])
    assert rc == 4


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
@pytest.mark.parametrize("bad_side", ["test", "reference"])
def test_compare_rejects_a_non_finite_grid(tmp_path, capsys, bad_side, bad_value):
    # read_scd1 refuses the payload as corrupt, whichever side it is on
    grid = np.linspace(0.0, 1.0, 32).reshape(8, 4)
    good, bad = tmp_path / "good.scd1", tmp_path / "bad.scd1"
    scdio.write_scd1(good, grid)
    grid[3, 2] = bad_value
    scdio.write_scd1(bad, grid)
    args = [str(bad), str(good)] if bad_side == "test" else [str(good), str(bad)]
    assert main(["compare", *args, "--tol", "1e-3"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_compare_nan_statistics_fail_the_tolerance(tmp_path, capsys, monkeypatch):
    # NaN > tol is False, so the check must be written as "not <= tol"
    from scdkit import cli

    a = tmp_path / "a.scd1"
    scdio.write_scd1(a, np.ones((4, 4)))
    nan_stats = sk.ErrorStats(mean_rel=np.nan, max_rel=np.nan, mean_abs=np.nan, n_bins=16)
    monkeypatch.setattr(cli, "error_stats", lambda t, r: nan_stats)
    assert main(["compare", str(a), str(a), "--tol", "1e-3"]) == 4


def test_compare_dimension_mismatch(tmp_path, capsys):
    a = tmp_path / "a.scd1"
    b = tmp_path / "b.scd1"
    scdio.write_scd1(a, np.zeros((4, 4)))
    scdio.write_scd1(b, np.zeros((8, 4)))
    assert main(["compare", str(a), str(b)]) == 3


def test_plan_fam_cli(capsys):
    assert main(["plan", "fam", "--n", "2048", "--np", "256"]) == 0
    out = capsys.readouterr().out
    assert "total_tiles=137" in out


def test_plan_ssca_cli(capsys):
    assert main(["plan", "ssca", "--n", str(1 << 20), "--np", "64",
                 "--m1", "1024"]) == 0
    out = capsys.readouterr().out
    assert "total_tiles=15" in out
    assert "ddr_required=true" in out


def test_plan_ssca_default_m1_follows_n(capsys):
    assert main(["plan", "ssca", "--n", "4096", "--np", "64"]) == 0
    out = capsys.readouterr().out
    assert "m1=64" in out and "m2=64" in out
    assert "violations=none" in out


def test_plan_ssca_rejects_split_the_estimator_refuses(capsys):
    # M1 = 1024 leaves M2 = 4 at N = 4096, which Np = 64 cannot divide
    assert main(["plan", "ssca", "--n", "4096", "--np", "64", "--m1", "1024"]) == 2
    captured = capsys.readouterr()
    assert "M2=4" in captured.err
    assert "violations=none" not in captured.out


def test_plan_rejects_out_of_range(capsys):
    assert main(["plan", "fam", "--n", "2048", "--np", "512"]) == 2


def test_ssca_cli_both_modes_match(tmp_path, capsys):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "4096", "--seed", "4", "-o", str(iq)]) == 0
    base = ["ssca", "-i", str(iq), "--n", "4096", "--np", "32", "--m1", "64"]
    capsys.readouterr()
    assert main(base + ["--mode", "direct", "-o", str(tmp_path / "d.scd1")]) == 0
    h_direct = _read_hash(capsys)
    assert main(base + ["--mode", "2d", "-o", str(tmp_path / "t.scd1")]) == 0
    h_2d = _read_hash(capsys)
    assert len(h_direct) == 64 and len(h_2d) == 64
    grid_d, _ = scdio.read_scd1(tmp_path / "d.scd1")
    grid_t, _ = scdio.read_scd1(tmp_path / "t.scd1")
    assert sk.peak_relative_error(grid_t, grid_d) <= 1e-5


def test_pgm_and_profile_export(tmp_path, capsys):
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "6", "-o", str(iq)]) == 0
    pgm = tmp_path / "h.pgm"
    csv = tmp_path / "p.csv"
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64",
               "-o", str(tmp_path / "o.scd1"), "--pgm", str(pgm), "--pgm-log",
               "--profile-csv", str(csv)])
    assert rc == 0
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n512 1024\n255\n")
    assert len(blob) == len(b"P5\n512 1024\n255\n") + 512 * 1024
    lines = csv.read_text().splitlines()
    assert lines[0] == "alpha,value"
    assert len(lines) == 1 + 2 * 512 + 1


def test_bench_thread_determinism(tmp_path, capsys):
    base = ["bench", "fam", "--n", "512", "--np", "64", "--repeat", "2", "--seed", "9"]
    assert main(base + ["--threads", "1"]) == 0
    h1 = _read_hash(capsys)
    assert main(base + ["--threads", "8"]) == 0
    h8 = _read_hash(capsys)
    assert h1 == h8
    assert main(["bench", "ssca", "--n", "4096", "--np", "32", "--m1", "64",
                 "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "median_ms=" in out and "samples_per_sec=" in out


def test_parser_defaults_follow_reference_settings():
    from scdkit.cli import build_parser

    parser = build_parser()
    fam = parser.parse_args(["fam", "-i", "x.iq", "-o", "y.scd1"])
    assert (fam.n, fam.np) == (2048, 256)
    ssca = parser.parse_args(["ssca", "-i", "x.iq", "-o", "y.scd1"])
    assert (ssca.n, ssca.np, ssca.m1) == (1 << 20, 64, None)
    # the automatic split is the reference M1 = M2 = 1024 at the default N
    cfg = sk.SscaConfig(N=ssca.n, Np=ssca.np, M1=ssca.m1)
    assert (cfg.M1, cfg.M2) == (1024, 1024)
    assert ssca.mode == "2d"
    plan = parser.parse_args(["plan", "ssca"])
    assert (plan.n, plan.np, plan.m1) == (1 << 20, 64, None)
    assert sk.plan_ssca(plan.n, plan.np, plan.m1).params["M1"] == 1024
    bench = parser.parse_args(["bench", "fam"])
    assert bench.repeat == 10


def test_fam_accepts_csv_input(tmp_path, capsys):
    rng = np.random.default_rng(14)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    csv = tmp_path / "x.csv"
    lines = ["i,q"] + [f"{v.real:.9g},{v.imag:.9g}" for v in x]
    csv.write_text("\n".join(lines) + "\n")
    rc = main(["fam", "-i", str(csv), "--n", "512", "--np", "64",
               "--a-window", "rectangular", "-o", str(tmp_path / "o.scd1")])
    assert rc == 0
    grid, _ = scdio.read_scd1(tmp_path / "o.scd1")
    assert grid.max() > 0


@pytest.mark.parametrize("bad_row", ["foo,bar", "0.5"])
def test_malformed_iq_csv_is_a_data_error(tmp_path, capsys, bad_row):
    # a cell that is not a number, or a row with one column, used to end in
    # numpy's ValueError with a traceback, exit 1
    csv = tmp_path / "bad.csv"
    csv.write_text("i,q\n0.1,0.2\n" + bad_row + "\n0.3,0.4\n")
    out = tmp_path / "o.scd1"
    rc = main(["fam", "-i", str(csv), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv) in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "i,q\n", "i,q\n\n\n"],
                         ids=["empty", "header-only", "header-and-blank-lines"])
def test_iq_csv_without_samples_is_one_error_line(tmp_path, capsys, text):
    # these used to print numpy's two-line "input contained no data" warning
    # and then "expected two columns, found 1"
    csv = tmp_path / "x.csv"
    csv.write_text(text)
    out = tmp_path / "o.scd1"
    rc = main(["fam", "-i", str(csv), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: {csv}: holds no samples\n"
    assert not out.exists()


def test_csv_sample_past_float32_is_one_error_line(tmp_path, capsys):
    # the cast to f32 used to print numpy's "overflow encountered in cast"
    # warning before the error line, which then called the finite samples
    # non-finite
    csv = tmp_path / "x.csv"
    csv.write_text("i,q\n" + "1e39,0.5\n" * 512)
    out = tmp_path / "o.scd1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fam", "-i", str(csv), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: input holds 512 samples past the float32 range")
    assert "(first at index 0)" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("precision,rc", [("f32", 3), ("f64", 0)])
def test_csv_sample_past_float32_is_named_only_in_f32(tmp_path, capsys, precision, rc):
    # one finite sample past the float32 range: f32 names the range, the
    # count and the index, and f64, which holds it, runs
    csv = tmp_path / "x.csv"
    csv.write_text("i,q\n" + "0.25,0.5\n" * 5 + "1e39,0.5\n" + "0.25,-0.5\n" * 10)
    out = tmp_path / "o.scd1"
    assert main(["fam", "-i", str(csv), "--n", "16", "--np", "8", f"--precision={precision}",
                 "--f-bins", "8", "--alpha-bins", "8", "-o", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == ("error: input holds 1 samples past the float32 range "
                       "(+/-3.402823e+38) of precision 'f32' (first at index 5)\n")
        assert not out.exists()
    else:
        assert err == "" and out.exists()


@pytest.mark.parametrize("text,where", [
    ("i,q\n\n\n  \n", "line 4, column 1: could not convert string '  '"),
    ("0.1,0.2\n0.3,0.4\njunk,0.5\n0.6,0.7\n", "line 3, column 1: could not convert string 'junk'"),
    ("i,q\n0.1,0.2\n\n# c\n0.3,0.4\n0.5\n", "line 6: the number of columns changed from 2 to 1"),
], ids=["header-blanks-spaces", "no-header-junk", "short-row-after-comment"])
def test_csv_parse_error_names_the_file_line(tmp_path, capsys, text, where):
    # numpy's loadtxt counts data rows after the header and the blank and
    # comment lines, from 0 or from 1; the error used to pass that count on
    csv = tmp_path / "x.csv"
    csv.write_text(text)
    out = tmp_path / "o.scd1"
    assert main(["fam", "-i", str(csv), "--n", "16", "--np", "8", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: {where}") and err.count("\n") == 1
    assert "row" not in err and not out.exists()


@pytest.mark.parametrize("blob", [b"\xff\xfe\x80\x81" * 4, b"1,2\n3,4\n\xff\xfe,1\n"],
                         ids=["first-line", "later-line"])
def test_iq_csv_that_is_not_text_is_a_data_error(tmp_path, capsys, blob):
    # bytes that are not UTF-8 used to end in UnicodeDecodeError with a
    # traceback, exit 1, from the header check's readline
    csv = tmp_path / "x.csv"
    csv.write_bytes(blob)
    out = tmp_path / "o.scd1"
    rc = main(["fam", "-i", str(csv), "--n", "512", "--np", "64", "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv) in err and err.count("\n") == 1
    assert not out.exists()


_IQ_BYTES = np.arange(6, dtype="<c8").tobytes()
_CSV_BYTES = b"i,q\n0.1,0.2\n0.3,-0.4\n1e3,5\n"
_SCD1_BYTES = scdio._SCD1_HEADER.pack(scdio.SCD1_MAGIC, scdio.SCD1_VERSION, 2, 3,
                                      -1.0, 1.0, -0.5, 0.5, 0) + np.ones(6, "<f4").tobytes()


@st.composite
def _reader_bytes(draw):
    kind = draw(st.sampled_from(["random", "truncated", "junk row"]))
    if kind == "random":
        return draw(st.binary(max_size=96))
    if kind == "truncated":
        blob = draw(st.sampled_from([_IQ_BYTES, _CSV_BYTES, _SCD1_BYTES]))
        return blob[:draw(st.integers(0, len(blob)))]
    lines = _CSV_BYTES.split(b"\n")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.binary(min_size=1, max_size=12)))
    return b"\n".join(lines)


@pytest.mark.filterwarnings("ignore::UserWarning")  # loadtxt's "input contained no data"
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_reader_bytes())
@example(b"\xff\xfe\x80\x81").via("not UTF-8 on the first line")
@example(b"1,2\n3,4\n\xff\xfe,1\n").via("not UTF-8 on a later line")
def test_readers_return_an_array_or_raise_data_error(tmp_path, blob):
    # whatever the bytes, each reader returns an array or raises DataError,
    # which the CLI turns into exit 3; any other exception is a traceback
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    for read in (scdio.read_iq, scdio.read_iq_csv, lambda p: scdio.read_scd1(p)[0]):
        try:
            got = read(path)
        except sk.DataError:
            continue
        assert isinstance(got, np.ndarray)


_BAD_FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", str(10 ** 30), str(1 << 62), "abc", ""]
_FAM_FLAGS = {
    "--n": st.sampled_from([16, 64, 256, 512, 2048]),
    "--np": st.sampled_from([8, 16, 64, 256]),
    "--f-bins": st.integers(1, 70),
    "--alpha-bins": st.integers(1, 70),
    "--atten-db": st.floats(0.01, 400.0),
    "--precision": st.sampled_from(["f32", "f64"]),
}
_INPUT_KINDS = ["valid", "truncated", "odd length", "nan payload", "random", "csv junk rows"]


def _draw_input(draw, length, kinds=_INPUT_KINDS):
    """(suffix, bytes) of an input file of one of the kinds; a valid one holds length samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    # a peak modulus near 1, past the float32 range, or subnormal
    x = (x / np.abs(x).max() * draw(st.sampled_from([1.0, 3e38, 1e-40, 1e-45])))
    iq = x.astype(np.complex64).tobytes()
    kind = draw(st.sampled_from(kinds))
    if kind == "valid":
        return ".iq", iq
    if kind == "truncated":
        return ".iq", iq[:draw(st.integers(0, len(iq)))]
    if kind == "odd length":
        return ".iq", iq + bytes(draw(st.integers(1, 7)))
    if kind == "nan payload":
        parts = np.frombuffer(iq, dtype=np.float32).copy()
        parts[draw(st.integers(0, parts.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
        return ".iq", parts.tobytes()
    if kind == "random":
        return draw(st.sampled_from([".iq", ".csv"])), draw(st.binary(max_size=16 * length))
    lines = ["i,q"] + [f"{v.real!r},{v.imag!r}" for v in x.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=10)))
    return ".csv", "\n".join(lines).encode()


def _draw_flags(draw, valid_flags):
    # up to two flags take a boundary value
    bad = draw(st.sets(st.sampled_from(sorted(valid_flags)), max_size=2))
    return {name: draw(st.sampled_from(_BAD_FLAG_VALUES) if name in bad else valid.map(str))
            for name, valid in valid_flags.items()}


def _input_length(flags, largest):
    n = flags["--n"]
    return int(n) if n.isdigit() and 1 <= int(n) <= largest else 512


@st.composite
def _fam_flags_and_input(draw):
    # the input's length follows --n
    flags = _draw_flags(draw, _FAM_FLAGS)
    flags["--threads"] = str(draw(st.integers(1, 8)))
    flags["--a-window"] = draw(st.sampled_from(["chebyshev", "rectangular", "hamming"]))
    return (flags,) + _draw_input(draw, _input_length(flags, 2048))


_SUBNORMAL_RUN = ({"--n": "512", "--np": "64", "--f-bins": "8", "--alpha-bins": "8",
                   "--atten-db": "100", "--precision": "f32", "--threads": "1",
                   "--a-window": "chebyshev"},
                  ".iq", (np.arange(1024, dtype=np.float32) * np.float32(1e-44)).tobytes())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fam_flags_and_input(), st.booleans())
@example(_SUBNORMAL_RUN, False).via("a subnormal peak: its reciprocal overflows")
def test_fam_cli_exits_cleanly_on_any_flags_and_input(tmp_path, run, pgm_log):
    _check_cli_run(tmp_path, "fam", *run, pgm_log)


def _check_cli_run(tmp_path, command, flags, suffix, blob, pgm_log):
    """Run main() on a drawn run in a fresh directory and check what it left.

    Exit 0 leaves finite outputs, any other exit is 2, 3 or 4 and leaves
    none; exit 1 would be a traceback. A flag value may name the directory
    as {work}; its spill/ folder is empty again when the run ends.
    """
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        inp = os.path.join(work, "in" + suffix)
        with open(inp, "wb") as fh:
            fh.write(blob)
        spill = os.path.join(work, "spill")
        os.mkdir(spill)
        scd1, csv, pgm = (os.path.join(work, name) for name in ("o.scd1", "p.csv", "h.pgm"))
        argv = ([command, "-i", inp, "-o", scd1, "--profile-csv", csv, "--pgm", pgm]
                + ["--pgm-log"] * pgm_log
                + [f"{name}={value.format(work=work)}" for name, value in flags.items()])
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
        assert rc in (0, 2, 3, 4), rc
        assert os.listdir(spill) == []
        outputs = sorted(set(os.listdir(work)) - {"in" + suffix, "spill"})
        if rc != 0:
            assert outputs == []
            return
        assert outputs == ["h.pgm", "o.scd1", "p.csv"]
        grid = np.fromfile(scd1, dtype=np.uint8)[scdio._SCD1_HEADER.size:].view(
            {"f32": "<f4", "f64": "<f8"}[flags["--precision"]])
        profile = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(grid).all() and np.isfinite(profile).all()
        rows, cols = flags["--alpha-bins"], flags["--f-bins"]
        with open(pgm, "rb") as fh:
            assert fh.read().startswith(f"P5\n{cols} {rows}\n255\n".encode())


# weighted toward runs that pass the configuration checks, so that about
# one example in nine exits 0; --m1 "auto" leaves the flag out
_SSCA_FLAGS = {
    "--n": st.sampled_from([4096, 8192, 4096, 1024]),
    "--np": st.sampled_from([32, 64, 128, 256, 16]),
    "--m1": st.sampled_from(["auto", "auto", "auto", 32, 64, 4, 1024]),
    "--mode": st.sampled_from(["2d", "direct"]),
    "--mem-cap": st.sampled_from([1 << 24, 1, 1 << 16]),
    "--f-bins": st.integers(1, 70),
    "--alpha-bins": st.integers(1, 70),
    "--precision": st.sampled_from(["f32", "f64"]),
}
# a spill directory that exists, one that does not, and a regular file
_SPILL_DIRS = ["{work}/spill", "{work}/missing/spill", "{work}/in.iq"]


@st.composite
def _ssca_flags_and_input(draw):
    # a mem-cap of 1 spills any run of the decomposed back end and refuses
    # any run of the direct one
    flags = _draw_flags(draw, _SSCA_FLAGS)
    if flags["--m1"] == "auto":
        del flags["--m1"]
    flags["--spill-dir"] = draw(st.sampled_from(_SPILL_DIRS))
    flags["--threads"] = str(draw(st.integers(1, 8)))
    kinds = ["valid"] * 2 + _INPUT_KINDS
    return (flags,) + _draw_input(draw, _input_length(flags, 8192), kinds)


_SSCA_SPILLED_RUN = ({"--n": "4096", "--np": "32", "--mode": "2d", "--mem-cap": "1",
                      "--f-bins": "8", "--alpha-bins": "8", "--precision": "f32",
                      "--spill-dir": "{work}/spill", "--threads": "2"},
                     ".iq", (np.arange(8192, dtype=np.float32) / 8192).tobytes())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ssca_flags_and_input(), st.booleans())
@example(_SSCA_SPILLED_RUN, False).via("a spilled run that succeeds")
def test_ssca_cli_exits_cleanly_on_any_flags_and_input(tmp_path, run, pgm_log):
    # the fam property's contract for scdkit ssca; a spill file never
    # outlives its run
    _check_cli_run(tmp_path, "ssca", *run, pgm_log)


@pytest.mark.parametrize("command,target", [
    (["gen", "--n", "1024", "-o", "{out}"], "generate_dsss_bpsk"),
    (["bench", "fam", "--n", "512", "--np", "64", "--repeat", "1"], "generate_dsss_bpsk"),
    (["fam", "-i", "{iq}", "--n", "512", "--np", "64", "-o", "{out}"], "fam_full"),
], ids=["gen", "bench-fam", "fam"])
def test_out_of_memory_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, command, target):
    # numpy's _ArrayMemoryError (a MemoryError) used to end in a traceback,
    # exit 1; it is raised here by a stand-in, never by a real allocation
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "2", "-o", str(iq)]) == 0
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setattr(cli, target, out_of_memory)
    assert main([arg.format(iq=iq, out=tmp_path / "o.out") for arg in command]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory") and captured.err.count("\n") == 1
    assert "wrote" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.iq"]


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_gen_rejects_a_non_numeric_snr(tmp_path, capsys, snr):
    # these used to write the noiseless signal with exit 0
    out = tmp_path / "x.iq"
    assert main(["gen", "--n", "1024", f"--snr={snr}", "-o", str(out)]) == 2
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr", ["-4000", "-1000"])
def test_gen_rejects_an_snr_past_the_float32_range(tmp_path, capsys, snr):
    # -4000 used to end in ZeroDivisionError (exit 1); -1000 wrote infinite
    # float32 samples with exit 0
    out = tmp_path / "x.iq"
    assert main(["gen", "--n", "1024", f"--snr={snr}", "-o", str(out)]) == 2
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()


def test_gen_snr_extremes_inside_the_range(tmp_path):
    # 4000 used to end in OverflowError (exit 1); it writes the noiseless
    # signal, like +inf; the lowest accepted SNR writes finite samples
    paths = {}
    for snr in ("4000", "inf", repr(_SNR_DB_MIN)):
        paths[snr] = tmp_path / f"x{len(paths)}.iq"
        assert main(["gen", "--n", "1024", "--seed", "5", f"--snr={snr}",
                     "-o", str(paths[snr])]) == 0
    assert paths["4000"].read_bytes() == paths["inf"].read_bytes()
    loudest = scdio.read_iq(paths[repr(_SNR_DB_MIN)])
    assert np.isfinite(loudest.view(np.float32)).all() and np.abs(loudest).max() > 1e18


@pytest.mark.parametrize("command", [
    ["gen", "--n", "1024"],
    ["bench", "fam", "--n", "512", "--np", "64", "--repeat", "1"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # numpy's "expected non-negative integer" used to end in a traceback, exit 1
    out = tmp_path / "x.iq"
    argv = command + ["--seed", "-1"] + (["-o", str(out)] if command[0] == "gen" else [])
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compare_unusable_tolerance_is_a_usage_error(tmp_path, capsys, tol):
    # NaN and -1 used to print "tolerance exceeded" and exit 4
    a = tmp_path / "a.scd1"
    scdio.write_scd1(a, np.ones((4, 4)))
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(a), str(a), f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("estimator,n,np_channels", [("fam", 512, 64), ("ssca", 4096, 32)])
@pytest.mark.parametrize("target", ["profile_csv", "pgm"])
def test_failed_export_writes_nothing(tmp_path, capsys, estimator, n, np_channels, target):
    # a directory given for a later output used to leave the earlier ones
    # behind after "wrote ..." and exit 3
    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", str(n), "--seed", "2", "-o", str(iq)]) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"profile_csv": tmp_path / "p.csv", "pgm": tmp_path / "h.pgm"}
    paths[target] = folder
    out = tmp_path / "o.scd1"
    capsys.readouterr()
    rc = main([estimator, "-i", str(iq), "--n", str(n), "--np", str(np_channels),
               "-o", str(out), "--profile-csv", str(paths["profile_csv"]),
               "--pgm", str(paths["pgm"])])
    assert rc == 3
    captured = capsys.readouterr()
    assert "wrote" not in captured.out and str(folder) in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "x.iq"]
    assert folder.is_dir() and list(folder.iterdir()) == []


@pytest.mark.parametrize("pgm_existed", [False, True], ids=["partial", "untouched"])
def test_failed_export_removes_only_what_it_wrote(tmp_path, capsys, monkeypatch, pgm_existed):
    # a PGM write that fails after creating its file removes that partial
    # file and the SCD1; one that fails before opening an existing file
    # leaves that file as it was
    from scdkit import cli

    iq = tmp_path / "x.iq"
    assert main(["gen", "--n", "512", "--seed", "2", "-o", str(iq)]) == 0
    out, pgm = tmp_path / "o.scd1", tmp_path / "h.pgm"
    if pgm_existed:
        pgm.write_bytes(b"earlier")

    def failing_pgm(path, grid, log_scale=False):
        if not pgm_existed:
            with open(path, "wb") as fh:
                fh.write(b"P5\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.scdio, "write_pgm", failing_pgm)
    rc = main(["fam", "-i", str(iq), "--n", "512", "--np", "64", "-o", str(out),
               "--pgm", str(pgm)])
    assert rc == 3
    assert "No space" in capsys.readouterr().err
    assert not out.exists()
    assert pgm.read_bytes() == b"earlier" if pgm_existed else not pgm.exists()
