"""Shared fixtures: a small synthetic DRAM geometry and fast presets."""

import numpy as np
import pytest

from repro.dram import _kernelc
from repro.dram.geometry import Geometry
from repro.dram.presets import (
    REFRESH_ALL_BANK,
    DramConfig,
    all_configs,
    get_config,
)
from repro.dram.timing import from_datasheet
from repro.interleaver.triangular import RectangularIndexSpace, TriangularIndexSpace


@pytest.fixture
def tiny_geometry():
    """4 banks (2 groups x 2), 16 rows, 8 bursts per page — figure scale."""
    return Geometry(
        bank_groups=2,
        banks_per_group=2,
        rows=16,
        columns=64,
        bus_width_bits=64,
        burst_length=8,
    )


@pytest.fixture
def tiny_config(tiny_geometry):
    """A fast, fully-JEDEC-shaped config around the tiny geometry."""
    timing = from_datasheet(
        1600,
        cl_ck=11,
        cwl_ck=9,
        trcd_ns=13.75,
        trp_ns=13.75,
        tras_ns=35.0,
        trrd_s_ns=5.0,
        trrd_l_ns=6.0,
        tfaw_ns=25.0,
        tccd_s_ck=4,
        tccd_l_ns=6.25,
        twr_ns=15.0,
        twtr_s_ns=2.5,
        twtr_l_ns=7.5,
        trtp_ns=7.5,
        trtw_ck=8,
        trefi_us=7.8,
        trfc_ns=160.0,
    )
    return DramConfig(
        name="TINY-1600",
        family="TINY",
        data_rate_mtps=1600,
        geometry=tiny_geometry,
        timing=timing,
        refresh_mode=REFRESH_ALL_BANK,
    )


@pytest.fixture
def ddr4():
    return get_config("DDR4-3200")


@pytest.fixture
def lpddr4():
    return get_config("LPDDR4-4266")


@pytest.fixture(params=[c.name for c in all_configs()])
def any_config(request):
    """Parametrized over all ten Table I configurations."""
    return get_config(request.param)


@pytest.fixture
def small_triangle():
    return TriangularIndexSpace(48)


@pytest.fixture
def small_rect():
    return RectangularIndexSpace(24, 40)


@pytest.fixture
def rng():
    return np.random.default_rng(20240401)


@pytest.fixture
def native_kernel():
    """Skip unless the compiled scheduling kernel loads (CI asserts it)."""
    if not _kernelc.available():
        pytest.skip("native scheduling kernel unavailable")


@pytest.fixture
def general_only(monkeypatch):
    """Make ``make_scheduler`` pick the general engine for one test."""
    monkeypatch.setattr(_kernelc, "available", lambda: False)


@pytest.fixture(params=["native_kernel", "general_only"])
def scheduler_backend(request):
    """Run a test once per scheduler ``make_scheduler`` can pick."""
    request.getfixturevalue(request.param)
    return request.param
