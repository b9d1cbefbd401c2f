import errno
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import scdkit as sk
from scdkit import io as scdio
from scdkit.cli import main


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


@pytest.mark.parametrize("estimator", ["fam", "ssca"])
def test_zero_bench_repeat_is_a_usage_error(capsys, estimator):
    with pytest.raises(SystemExit) as exc:
        main(["bench", estimator, "--repeat", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--repeat" in captured.err and "run[" not in captured.out


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
    special = [-0.0, np.finfo(dtype).smallest_subnormal, 1 / 3, 3.4e38,
               np.nextafter(dtype(1), dtype(2))]
    values = np.array(special, dtype=dtype)
    prof = sk.AlphaProfile(alphas=values[::-1].copy(), values=values)
    path = tmp_path / "p.csv"
    scdio.write_profile_csv(path, prof)
    rows = "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(prof.alphas, prof.values))
    assert path.read_bytes() == ("alpha,value\n" + rows).encode()


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
                 "--repeat", "1", "--threads", "2"]) == 0
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
