"""The benchmark's span tracer (bench/tracer.py) against the package: it must
wrap and restore every traced name and read the shape of each kernel solve,
whichever input type the solve receives."""

import importlib.util
from pathlib import Path

import numpy as np

from g2cert import lie, linalg, reps, suite
from g2cert.suite import SuiteConfig, run_all

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_kernel_solves_of_both_input_types():
    original = linalg.kernel_basis
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        rows = [[1, 2, 3], [2, 4, 6]]
        from_int64 = linalg.kernel_basis(np.array(rows, dtype=np.int64))
        from_object = linalg.kernel_basis(np.array(rows, dtype=object))
        so3 = lie.so_of_form(linalg.NormForm(np.eye(3, dtype=np.int64)))  # passes an integer system
    finally:
        tracer.uninstall()
    assert linalg.kernel_basis is original and lie.kernel_basis is original
    assert from_int64 == from_object and from_int64.dim == 2
    assert so3.dim == 3
    stats = tracer.summary()["linalg.kernel_basis"]
    assert stats["calls"] == 3
    assert stats["max_cells"] == 6 * 9  # so(3): 6 equations in 9 unknowns


def _traced_maximality_run() -> tuple[list, dict]:
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        reports = run_all(SuiteConfig(samples=1, checks=("maximality",)))
    finally:
        tracer.uninstall()
    return [r.status for r in reports], tracer.summary()


def test_traced_maximality_run_reaches_every_layer_it_reports(monkeypatch):
    """A refactor that routes around a traced name would zero that layer's
    metric without any test failing; this pins the names the maximality
    workload reports on.  A pristine run proves every closure by generation,
    so the closure is reached only where generation is made to fail, and
    builds every module by lemma, so the checking constructor is not reached."""
    originals = (reps.LieModule.__init__, reps.submodule_generated, suite.CHECKS)
    statuses, stats = _traced_maximality_run()
    assert (reps.LieModule.__init__, reps.submodule_generated, suite.CHECKS) == originals
    assert statuses == ["pass", "pass"]
    stages = ("natural_rep", "so34", "embedding", "g2_image", "so34_as_g2_module", "complement", "complement_module")
    for name in (
        "reps.submodule_generated",
        "linalg.Subspace.from_vectors",
        "suite.check.maximality",
        *(f"suite.stage.{s}" for s in stages),
    ):
        assert stats.get(name, {}).get("calls", 0) > 0, name
    assert stats.get("lie.subalgebra_closure", {}).get("calls", 0) == 0
    assert stats.get("reps.LieModule", {}).get("calls", 0) == 0

    # patched before the tracer installs, so uninstalling leaves the patch to monkeypatch
    monkeypatch.setattr(
        suite, "submodule_generated", lambda v, vecs: [linalg.Subspace.from_vectors(v.dim, vec[None]) for vec in vecs]
    )
    statuses, stats = _traced_maximality_run()
    assert statuses == ["pass", "fail"]  # generation_failures; every closure still succeeds
    assert stats.get("lie.subalgebra_closure", {}).get("calls", 0) > 0
    assert lie.subalgebra_closure is suite.subalgebra_closure
