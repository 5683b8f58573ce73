"""Post-install self-check: the critical cross-layer invariants in one
fast pass.

``python -m repro selftest`` runs this after installation (or inside a
CI smoke job): a real numeric solve through every major code path plus
the headline timing anchors, each reported pass/fail. It is a subset of
the full test suite chosen to finish in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np


@dataclass
class Check:
    """One self-test: a name and a callable returning a detail string."""

    name: str
    run: Callable[[], str]


def _check_packed_gemm() -> str:
    from repro.blas import dgemm

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((90, 70)), rng.standard_normal((70, 50))
    err = float(np.abs(dgemm(a, b) - a @ b).max())
    assert err < 1e-10, f"packed GEMM error {err}"
    return f"max |err| = {err:.1e}"


def _check_emulated_kernel() -> str:
    from repro.blas.kernels import basic_kernel_2
    from repro.blas.packing import pack_a, pack_b

    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((30, 16)), rng.standard_normal((16, 8))
    c = basic_kernel_2(pack_a(a).tile(0), pack_b(b).tile(0))
    err = float(np.abs(c - a @ b).max())
    assert err < 1e-12, f"emulated kernel error {err}"
    return "vector-ISA emulation matches NumPy"


def _check_numeric_hpl() -> str:
    from repro.hpl import NativeHPL

    r = NativeHPL(200, nb=50).run(numeric=True)
    assert r.passed, f"HPL residual {r.residual}"
    return f"residual = {r.residual:.4f} (< 16)"


def _check_distributed() -> str:
    from repro.cluster import DistributedHPL

    r = DistributedHPL(48, 8, 2, 2).run()
    assert r.passed, f"distributed residual {r.residual}"
    return f"2x2 grid residual = {r.residual:.4f}"


def _check_offload_numeric() -> str:
    from repro.hybrid.offload import offload_update

    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((60, 10)), rng.standard_normal((10, 60))
    c = np.zeros((60, 60))
    offload_update(a, b, c, tile=(30, 30))  # c -= a @ b
    err = float(np.abs(c + a @ b).max())
    assert err < 1e-10, f"offload error {err}"
    return "offload tiles cover the update exactly"


def _check_native_anchor() -> str:
    from repro.hpl import NativeHPL

    r = NativeHPL(30000).run()
    assert abs(r.gflops - 832) < 30, f"native 30K anchor drifted: {r.gflops:.0f}"
    return f"{r.gflops:.0f} GFLOPS at 30K (paper: 832)"


def _check_hybrid_anchor() -> str:
    from repro.hybrid import HybridHPL

    r = HybridHPL(84000).run()
    assert abs(r.efficiency - 0.798) < 0.03, (
        f"hybrid anchor drifted: {r.efficiency:.3f}"
    )
    return f"{100 * r.efficiency:.1f}% at 84K (paper: 79.8%)"


def _check_table2_anchor() -> str:
    from repro.machine.gemm_model import dgemm_efficiency_vs_k

    eff, gflops = dgemm_efficiency_vs_k([300])[300]
    assert abs(gflops - 944) < 6, f"Table II anchor drifted: {gflops:.0f}"
    return f"DGEMM k=300: {gflops:.0f} GFLOPS (paper: 944)"


CHECKS: List[Check] = [
    Check("packed-format DGEMM vs NumPy", _check_packed_gemm),
    Check("emulated Basic Kernel 2", _check_emulated_kernel),
    Check("numeric native HPL solve", _check_numeric_hpl),
    Check("distributed HPL on 2x2 grid", _check_distributed),
    Check("offload DGEMM numeric", _check_offload_numeric),
    Check("Table II anchor", _check_table2_anchor),
    Check("native 30K anchor", _check_native_anchor),
    Check("hybrid 84K anchor", _check_hybrid_anchor),
]


def selftest(verbose: bool = True) -> bool:
    """Run every check; returns True when all pass."""
    ok = True
    for check in CHECKS:
        try:
            detail = check.run()
            status = "ok"
        except AssertionError as exc:
            detail = str(exc)
            status = "FAIL"
            ok = False
        except Exception as exc:  # noqa: BLE001 — report, do not crash
            detail = f"{type(exc).__name__}: {exc}"
            status = "ERROR"
            ok = False
        if verbose:
            print(f"[{status:>5}] {check.name}: {detail}")
    return ok
