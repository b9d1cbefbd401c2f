import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit.planner import format_report


def test_plan_fam_flagship_137():
    report = sk.plan_fam(2048, 256)
    assert report.total_tiles == 137
    assert report.stage_tiles == {"framing": 3, "demodulate": 6, "fft2": 128}
    assert report.plio_streams == 128
    assert report.ddr_required is False
    assert report.violations == []


def test_plan_fam_hand_evaluations():
    small = sk.plan_fam(128, 16)
    assert small.total_tiles == 20
    assert small.stage_tiles == {"framing": 2, "demodulate": 2, "fft2": 16}
    large = sk.plan_fam(4096, 256)
    assert large.total_tiles == 145
    assert large.stage_tiles["framing"] == 1 + 4


def test_plan_fam_envelope():
    with pytest.raises(sk.ConfigurationError):
        sk.plan_fam(8192, 256)
    with pytest.raises(sk.ConfigurationError):
        sk.plan_fam(2048, 512)
    with pytest.raises(sk.ConfigurationError):
        sk.plan_fam(2000, 256)


def test_plan_ssca_flagship_15():
    report = sk.plan_ssca(1 << 20, 64, 1024)
    assert report.total_tiles == 15
    assert report.stage_tiles == {"cdp": 4, "fft_2d": 11}
    assert report.ddr_required is True
    assert report.violations == []


def test_plan_ssca_hand_evaluation():
    report = sk.plan_ssca(1 << 12, 32, 64)
    assert report.stage_tiles == {"cdp": 4, "fft_2d": 7}
    assert report.total_tiles == 11
    assert report.ddr_required is False


def test_plan_ssca_ddr_boundary():
    # exactly 2^20 intermediate values still fits on chip
    at_limit = sk.plan_ssca(1 << 15, 32, 256)
    assert (1 << 15) * 32 == 1 << 20
    assert at_limit.ddr_required is False
    over = sk.plan_ssca(1 << 15, 64, 256)
    assert over.ddr_required is True


def test_plan_ssca_envelope():
    with pytest.raises(sk.ConfigurationError):
        sk.plan_ssca(1 << 11, 64, 64)
    with pytest.raises(sk.ConfigurationError):
        sk.plan_ssca(1 << 20, 16, 1024)
    with pytest.raises(sk.ConfigurationError):
        sk.plan_ssca(1 << 20, 64, 512 * 512)
    with pytest.raises(sk.ConfigurationError):
        sk.plan_ssca(1 << 20, 64, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 20), st.integers(5, 8), st.integers(1, 10))
def test_plan_ssca_accepts_exactly_the_estimator_splits(log_n, log_np, log_m1):
    n, np_ch, m1 = 1 << log_n, 1 << log_np, 1 << log_m1
    try:
        cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1)
    except sk.ConfigurationError:
        with pytest.raises(sk.ConfigurationError):
            sk.plan_ssca(n, np_ch, m1)
    else:
        assert sk.plan_ssca(n, np_ch, m1).params["M2"] == cfg.M2


def test_plan_ssca_default_split_matches_estimator():
    for n in (1 << 12, 1 << 15, 1 << 20):
        for np_ch in (32, 64, 256):
            cfg = sk.SscaConfig(N=n, Np=np_ch)
            report = sk.plan_ssca(n, np_ch)
            assert (report.params["M1"], report.params["M2"]) == (cfg.M1, cfg.M2)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 8), st.integers(7, 11))
def test_plan_fam_monotone_in_n(log_np, log_n):
    np_ch = 1 << log_np
    smaller = sk.plan_fam(1 << log_n, np_ch).total_tiles
    larger = sk.plan_fam(1 << (log_n + 1), np_ch).total_tiles
    assert larger >= smaller


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 20), st.integers(5, 8))
def test_plan_ssca_total_depends_only_on_stage_logs(log_n, log_np):
    n = 1 << log_n
    np_ch = 1 << log_np
    totals = {}
    for log_m1 in range(2, 11):
        m1 = 1 << log_m1
        m2 = n // m1
        if m2 < 2 or m2 > 1024 or m1 > 1024 or m2 % np_ch != 0:
            continue
        report = sk.plan_ssca(n, np_ch, m1)
        key = -(-log_m1 // 2) + -(-(log_n - log_m1) // 2)
        totals.setdefault(key, set()).add(report.total_tiles)
    for key, seen in totals.items():
        assert len(seen) == 1


def test_check_constraints_violations():
    dev = sk.DeviceModel()
    good = sk.plan_fam(2048, 256)
    assert sk.check_constraints(good, dev) == []
    bloated = sk.PlanReport(
        estimator="fam", params={}, stage_tiles={"x": 500}, total_tiles=500,
        buffer_bytes_per_kernel=1024, plio_streams=10, ddr_required=False,
    )
    assert len(sk.check_constraints(bloated, dev)) == 1
    streams = sk.PlanReport(
        estimator="fam", params={}, stage_tiles={"x": 10}, total_tiles=10,
        buffer_bytes_per_kernel=1024, plio_streams=300, ddr_required=False,
    )
    assert len(sk.check_constraints(streams, dev)) == 1


def test_buffer_bytes_within_device_limits():
    assert sk.plan_fam(2048, 256).buffer_bytes_per_kernel == 16384
    assert sk.plan_fam(128, 16).buffer_bytes_per_kernel == 4096
    assert sk.plan_ssca(1 << 20, 64, 1024).buffer_bytes_per_kernel == 16384


def test_format_report_machine_lines():
    text = format_report(sk.plan_fam(2048, 256))
    assert "total_tiles=137" in text
    assert "violations=none" in text
    text2 = format_report(sk.plan_ssca(1 << 20, 64, 1024))
    assert "total_tiles=15" in text2
    assert "ddr_required=true" in text2
