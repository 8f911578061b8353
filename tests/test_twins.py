"""Slow twins: the real chain rerun with a fast path swapped for a slow one,
compared byte for byte with the fast run (differential testing; McKeeman,
"Differential testing for software", Digital Technical Journal 10, 1998).

The inputs are the default suite at seed 0 and one of every 16 of the 1024
+-1 mutants of the Cayley structure constants, each through
``derivation_algebra`` and the cayley and derivations checks.  The reports
must match apart from ``elapsed_ms``:

* Python-int twin: ``linalg.int_dtype``, the one place a bound becomes a
  dtype, returns object, so no product runs on int64 and no carried bound
  can choose a dtype;
* small-prime twin: ``PRIME`` is 2 or 3, so rows picked independent mod p,
  spans certified mod p and generation by rank mod p fall short on real data
  and the exact fallbacks decide instead;
* by-construction twin: ``LieModule._raw``, which takes a module whose law a
  lemma proves, is the checking constructor, so every such law is checked.
"""

import numpy as np
import pytest

from conftest import indexed_mutant, untimed
from g2cert import cli, lie, linalg, octonion, report, reps, suite, weyl
from g2cert.lie import derivation_algebra
from g2cert.report import serialize
from g2cert.reps import LieModule, wedge_square
from g2cert.suite import SuiteConfig, VerificationContext, run_all

MODULES = (cli, lie, linalg, octonion, report, reps, suite, weyl)
MUTANTS = [16 * t + t % 2 for t in range(64)]  # both signs: mutant 2 * (64 i + 8 j + k) + s


def _rebind(monkeypatch, name, new):
    """Rebind name in every g2cert module that holds linalg's object."""
    original = getattr(linalg, name)
    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, new)


def _counted(calls, module, name):
    fn = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _run_chain(monkeypatch):
    """The default run's context, the serialized reports of every input, and
    the count of kernels that eliminated every live row (a second ``_kernel_rows``
    in one ``kernel_basis``) and of seeds generated exactly."""
    calls = {"kernel_basis": 0, "_kernel_rows": 0, "_generated_exactly": 0}
    _rebind(monkeypatch, "kernel_basis", _counted(calls, linalg, "kernel_basis"))
    monkeypatch.setattr(linalg, "_kernel_rows", _counted(calls, linalg, "_kernel_rows"))
    monkeypatch.setattr(reps, "_generated_exactly", _counted(calls, reps, "_generated_exactly"))
    ctx, cfg = VerificationContext(), SuiteConfig()
    out = [untimed(serialize(run_all(cfg, ctx=ctx), cfg))]
    mutant_cfg = SuiteConfig(samples=5, checks=("cayley", "derivations"))
    for index in MUTANTS:
        cand = indexed_mutant(index)
        der = derivation_algebra(cand.algebra)
        mutant_ctx = VerificationContext(cayley_candidate=cand, derivations_candidate=der)
        out.append(untimed(serialize(run_all(mutant_cfg, ctx=mutant_ctx), mutant_cfg)))
    return ctx, out, (calls["_kernel_rows"] - calls["kernel_basis"], calls["_generated_exactly"])


@pytest.fixture(scope="module")
def fast_run():
    decisions, int_dtype = [], linalg.int_dtype

    def spied(peak):
        decisions.append(int_dtype(peak))
        return decisions[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(linalg, "int_dtype", spied)
        ctx, out, fallbacks = _run_chain(monkeypatch)
    assert ctx.so34.C.dtype == np.int64
    assert fallbacks == (0, 6)
    # every bound on the pristine chain and the mutants is tight enough for int64
    assert decisions and set(decisions) == {np.int64}
    return out


def test_python_int_twin_matches_the_int64_run(monkeypatch, fast_run):
    # linalg alone turns a bound into a dtype, so patching it there reaches every product
    assert [m.__name__ for m in MODULES if hasattr(m, "int_dtype") or hasattr(m, "max_abs")] == ["g2cert.linalg"]
    monkeypatch.setattr(linalg, "int_dtype", lambda peak: object)
    kernel_dtypes, kernel_basis = set(), linalg.kernel_basis

    def spied(m):
        kernel_dtypes.add(m.dtype)
        return kernel_basis(m)

    _rebind(monkeypatch, "kernel_basis", spied)
    ctx, out, _ = _run_chain(monkeypatch)
    # not vacuous: every carried array, every product and every system solved is Python ints
    assert ctx.so34.C.dtype == ctx.natural_rep.A.dtype == ctx.cayley.algebra.M.dtype == object
    assert wedge_square(ctx.natural_rep).A.dtype == object
    assert kernel_dtypes == {np.dtype(object)}
    assert linalg.int_einsum("ij,jk->ik", np.eye(2, dtype=np.int64), [[1], [2]]).ints.dtype == object
    assert out == fast_run


@pytest.mark.parametrize("prime, min_all_rows", [(2, 1), (3, 0)])
def test_small_prime_twin_matches_the_real_prime_run(monkeypatch, fast_run, prime, min_all_rows):
    _rebind(monkeypatch, "PRIME", prime)
    _, out, (all_rows, exact_generations) = _run_chain(monkeypatch)
    assert out == fast_run
    # not vacuous: the exact fallbacks ran where the real prime needs none
    assert all_rows >= min_all_rows and exact_generations > 6


def test_by_construction_twin_matches_the_lemma_run(monkeypatch, fast_run):
    checked = []

    def checking_raw(cls, algebra, A, den):
        module = LieModule(algebra, A, den)
        checked.append(module)
        return module

    monkeypatch.setattr(LieModule, "_raw", classmethod(checking_raw))
    _, out, _ = _run_chain(monkeypatch)
    assert out == fast_run
    # not vacuous: every module the default run builds went through the full law check, 9 in all,
    # as the derivations check reads the shared natural module
    assert len(checked) == 9
