import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2cert import suite
from g2cert.lie import killing_form, so_of_form
from g2cert.linalg import Matrix
from g2cert.octonion import SplitCayley, StructureConstantAlgebra, build_split_cayley
from g2cert.reps import LieModule
from g2cert.report import (
    exit_code,
    parse_report,
    parse_witness_value,
    render_text,
    serialize,
    summarize,
)
from g2cert.suite import (
    CHECK_IDS,
    CheckReport,
    SuiteConfig,
    VerificationContext,
    run_all,
)

FAST = SuiteConfig(seed=0, samples=5, census_bound=10)


@pytest.fixture(scope="module")
def full_run(ctx):
    return run_all(FAST, ctx=ctx)


def test_all_checks_pass(full_run):
    assert [r.status for r in full_run] == ["pass"] * 8
    assert sorted(r.id for r in full_run) == sorted(CHECK_IDS)


def test_reports_sorted_by_id(full_run):
    assert [r.id for r in full_run] == sorted(r.id for r in full_run)


def test_expected_witnesses_present(full_run):
    by_id = {r.id: r for r in full_run}
    assert by_id["cayley"].witnesses["norm_signature"] == [4, 4, 0]
    assert by_id["cayley"].witnesses["imag_signature"] == [3, 4, 0]
    assert by_id["derivations"].witnesses["derivation_dim"] == 14
    assert by_id["derivations"].witnesses["killing_signature"] == [8, 6, 0]
    assert by_id["derivations"].witnesses["fundamental_dims"] == [7, 14]
    assert by_id["invariant-form"].witnesses["form_space_dim"] == 1
    assert by_id["invariant-form"].witnesses["signature"] == [3, 4, 0]
    assert by_id["wedge-iso"].witnesses["phi_rank"] == 21
    assert by_id["decomposition"].witnesses["complement_dim"] == 7
    assert by_id["decomposition"].witnesses["bracket_span_dim"] == 21
    assert by_id["decomposition"].witnesses["bracket_span_inside_image"] is False
    assert by_id["recognition"].witnesses["rigidity_kernel_dim"] == 0
    assert by_id["recognition"].witnesses["census_dim21"] == ["B3", "C3"]
    assert by_id["recognition"].witnesses["six_dim_weights"] == []
    assert by_id["maximality"].witnesses["centralizer_dim"] == 0
    assert by_id["maximality"].witnesses["closure_failures"] == 0
    assert by_id["metric-constants"].witnesses["c1"] == "5/4"
    assert by_id["metric-constants"].witnesses["c2"] == -30
    assert by_id["metric-constants"].witnesses["killing_signature_so34"] == [12, 9, 0]


def test_determinism_two_runs(ctx):
    cfg = SuiteConfig(seed=7, samples=3)
    a = serialize(run_all(cfg, ctx=ctx), cfg)
    b = serialize(run_all(cfg, ctx=VerificationContext()), cfg)
    assert _strip_timing(a) == _strip_timing(b)


def _strip_timing(payload: bytes) -> bytes:
    doc = json.loads(payload)
    for check in doc["checks"]:
        check["elapsed_ms"] = 0
    return json.dumps(doc).encode()


def test_shared_objects_built_once_per_run(monkeypatch):
    """A full run builds the adjoint module of so(3,4) once and solves for the
    natural module's invariant forms once; Killing forms are cached."""
    built = []
    init = LieModule.__init__

    def counting_init(self, algebra, action, *args, **kwargs):
        built.append((algebra, tuple(action)))
        init(self, algebra, action, *args, **kwargs)

    forms_calls = []
    forms = suite.invariant_bilinear_forms

    def counting_forms(v):
        forms_calls.append(v)
        return forms(v)

    monkeypatch.setattr(LieModule, "__init__", counting_init)
    monkeypatch.setattr(suite, "invariant_bilinear_forms", counting_forms)
    ctx = VerificationContext()
    reports = run_all(SuiteConfig(samples=5), ctx=ctx)
    assert [r.status for r in reports] == ["pass"] * 8
    so34 = ctx.so34
    assert sum(alg is so34 and action == so34.ad_basis for alg, action in built) == 1
    assert len(forms_calls) == 1
    assert killing_form(so34) is killing_form(so34)


def test_filtered_run_single_check(ctx):
    reports = run_all(SuiteConfig(samples=3, checks=("cayley",)), ctx=ctx)
    assert [r.id for r in reports] == ["cayley"]


def test_filtered_run_includes_dependencies(ctx):
    reports = run_all(SuiteConfig(samples=3, checks=("recognition",)), ctx=ctx)
    assert [r.id for r in reports] == ["decomposition", "recognition"]
    assert all(r.status == "pass" for r in reports)


def test_unknown_check_id_rejected(ctx):
    with pytest.raises(KeyError):
        run_all(SuiteConfig(checks=("nope",)), ctx=ctx)


def test_seed_variation_leaves_check_reports_identical(ctx):
    """The identities hold for every sample, so only the recorded seed in the
    envelope differs between seeds."""
    a = run_all(SuiteConfig(seed=1, samples=4, checks=("cayley",)), ctx=ctx)[0]
    b = run_all(SuiteConfig(seed=99, samples=4, checks=("cayley",)), ctx=ctx)[0]
    assert a.witnesses == b.witnesses
    assert a.status == b.status == "pass"


def test_reduced_census_bound_still_passes(ctx):
    reports = run_all(SuiteConfig(samples=3, census_bound=1, checks=("derivations",)), ctx=ctx)
    assert reports[0].status == "pass"
    assert reports[0].witnesses["census_bound"] == 1


def test_maximality_basis_only(ctx):
    from g2cert.suite import check_maximality

    outcome = check_maximality(ctx, SuiteConfig(samples=0))
    assert outcome.status == "pass"
    assert outcome.witnesses["random_samples"] == 0
    assert outcome.witnesses["basis_vectors"] == 7


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError):
        SuiteConfig(seed=2**64)
    with pytest.raises(ValueError):
        SuiteConfig(samples=-1)
    with pytest.raises(ValueError):
        SuiteConfig(census_bound=0)


def corrupted_cayley() -> SplitCayley:
    pristine = build_split_cayley()
    mul = [[list(prod) for prod in row] for row in pristine.algebra.mul]
    mul[2][3][0] += 1  # u1*u2 drifts off the Zorn table
    mul[2][3][1] += 1  # and picks up norm 1, breaking composition
    algebra = StructureConstantAlgebra(
        dim=8, mul=tuple(tuple(tuple(p) for p in row) for row in mul)
    )
    return SplitCayley(algebra=algebra, form=pristine.form, unit=pristine.unit)


def test_negative_control_cayley_structure_constant():
    reports = run_all(FAST, ctx=VerificationContext(cayley_candidate=corrupted_cayley()))
    by_id = {r.id: r for r in reports}
    assert by_id["cayley"].status == "fail"
    assert by_id["cayley"].witnesses["composition_first_failure"] == "e3*e4"
    assert "composition_first_failure" in by_id["cayley"].witnesses["failed_expectations"]
    others = [r for r in reports if r.id != "cayley"]
    assert all(r.status == "pass" for r in others)


def test_negative_control_wrong_subalgebra():
    wrong = so_of_form(Matrix.identity(7))  # so(7)-sized, not the derivation algebra
    reports = run_all(FAST, ctx=VerificationContext(derivations_candidate=wrong))
    by_id = {r.id: r for r in reports}
    assert by_id["derivations"].status == "fail"
    assert by_id["derivations"].witnesses["derivation_dim"] == 21
    # mandated by the dependency contract:
    assert by_id["invariant-form"].status == "error"
    assert "dependency" in by_id["invariant-form"].witnesses["skipped"]
    others = [r for r in reports if r.id not in ("derivations", "invariant-form")]
    assert all(r.status == "pass" for r in others)


def test_negative_control_degenerate_gram():
    degenerate = Matrix.diagonal([1, 1, 1, 1, 1, 1, 0])
    reports = run_all(FAST, ctx=VerificationContext(wedge_gram=degenerate))
    by_id = {r.id: r for r in reports}
    assert by_id["wedge-iso"].status == "error"  # precondition, not fail
    assert "precondition" in by_id["wedge-iso"].witnesses
    others = [r for r in reports if r.id != "wedge-iso"]
    assert all(r.status == "pass" for r in others)


def test_dependency_skip_reports_error_not_pass():
    """A check whose dependency errored must be skipped as an error."""
    degenerate_everything = VerificationContext(derivations_candidate=so_of_form(Matrix.identity(7)))
    reports = run_all(
        SuiteConfig(samples=3, checks=("invariant-form",)), ctx=degenerate_everything
    )
    by_id = {r.id: r for r in reports}
    assert by_id["derivations"].status == "fail"
    assert by_id["invariant-form"].status == "error"


def test_report_matches_golden(full_run):
    """The entire serialized report (timing zeroed) is pinned to a golden file,
    so any drift in witnesses, wording, or key order is caught."""
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "report_golden.json").read_text()
    )
    doc = json.loads(serialize(full_run, FAST))
    for check in doc["checks"]:
        check["elapsed_ms"] = 0
    assert doc == golden


def test_json_round_trip(full_run):
    payload = serialize(full_run, FAST)
    parsed = parse_report(payload)
    assert parsed.version == 1
    assert parsed.seed == FAST.seed
    assert list(parsed.checks) == list(full_run)
    assert parsed.summary == summarize(full_run)


def test_witness_rationals_render_as_strings(full_run):
    doc = json.loads(serialize(full_run, FAST))
    c1 = next(c for c in doc["checks"] if c["id"] == "metric-constants")["witnesses"]["c1"]
    assert c1 == "5/4"
    assert parse_witness_value(c1) == Fraction(5, 4)


def test_text_and_json_agree_on_ids_and_statuses(full_run):
    text = render_text(full_run, FAST)
    doc = json.loads(serialize(full_run, FAST))
    for check in doc["checks"]:
        assert f"[{check['status'].upper():5s}] {check['id']}" in text


statuses = st.lists(st.sampled_from(("pass", "fail", "error")), max_size=8)


@given(statuses)
def test_exit_code_contract(status_list):
    reports = [
        CheckReport(id=f"c{i}", title="", claim="", status=s, witnesses={}, elapsed_ms=0)
        for i, s in enumerate(status_list)
    ]
    expected = 0 if all(s == "pass" for s in status_list) else 1
    assert exit_code(reports) == expected
    s = summarize(reports)
    assert s["total"] == len(status_list)
    assert s["passed"] + s["failed"] + s["errored"] == len(status_list)


@given(statuses)
def test_empty_or_mixed_serialization_valid(status_list):
    reports = [
        CheckReport(id=f"c{i}", title="t", claim="c", status=s, witnesses={"k": 1}, elapsed_ms=0)
        for i, s in enumerate(status_list)
    ]
    doc = json.loads(serialize(reports, SuiteConfig()))
    assert doc["summary"]["total"] == len(status_list)
    assert doc["version"] == 1
