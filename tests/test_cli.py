"""Driver behavior: subcommand output shapes, exit codes, and report
determinism."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bench_models import MATRIX_MODELS, write_bench_models
from counting import count_calls
from ref import BASE_ON_DIVISOR, EVERY_SUBCOMMAND, REFUSALS, subcommand_line
from scalars import is_canonical_scalar
from equiblow import Ideal, TheoremCheckError, cli, groebner

CORPUS = Path(cli.__file__).parent / "corpus"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_blowup_reports_charts_and_verdicts(capsys):
    rep = report(capsys, "blowup", str(CORPUS / "e2.kb"))
    names = [c["name"] for c in rep["charts"]]
    assert names == ["chart_x", "chart_y"]
    cx = rep["charts"][0]
    assert cx["ideal_gb"] == ["z", "xi_x^2*T_y"]
    assert cx["unstable_gb"] == ["T_y"]
    assert cx["checks"]["coinc"] is True
    assert rep["ledger"]["coinc_all"] is True
    assert rep["version"]


def test_blowup_chart_filter(capsys):
    rep = report(capsys, "blowup", str(CORPUS / "e2.kb"), "--chart", "chart_y")
    assert [c["name"] for c in rep["charts"]] == ["chart_y"]


def test_blowup_unknown_chart_is_exit_2(capsys):
    code, _, err = run(capsys, "blowup", str(CORPUS / "e2.kb"), "--chart", "nope")
    assert code == 2
    assert "chart" in err


def test_blowup_trivial_action_reports_dense(capsys):
    rep = report(capsys, "blowup", str(CORPUS / "trivial.kb"))
    assert rep["charts"] == []
    assert rep["ledger"]["dense"] is True


def test_blowup_trivial_action_has_no_chart_to_name(capsys):
    code, out, err = run(
        capsys, "blowup", str(CORPUS / "trivial.kb"), "--chart", "nope"
    )
    assert (code, out, err) == (2, "", "error: no chart named 'nope'\n")


def test_full_blowup_of_a_trivial_ideal_file_is_refused(capsys, tmp_path):
    src = tmp_path / "dense.kb"
    src.write_text('variables = [x, y]\nweights = [[0, 0]]\nideal = ["x*y"]\n')
    assert report(capsys, "blowup", str(src))["ledger"]["dense"] is True
    code, out, err = run(capsys, "blowup", str(src), "--full")
    assert (code, out) == (3, "")
    assert err == (
        "precondition: --full requires a model with a section (potential or "
        "section file)\n"
    )


def test_blowup_full_runs_the_iterated_driver(capsys):
    rep = report(capsys, "blowup", str(CORPUS / "e1.kb"), "--full")
    assert rep["ledger"]["u_hat_empty"] is True
    assert len(rep["ledger"]["stages"]) == 1
    assert rep["ledger"]["stages"][0]["charts"][0]["ideal_gb"] == ["1"]


def test_crit_reports_weak_model_checks_and_dims(capsys):
    rep = report(capsys, "crit", str(CORPUS / "square.kb"), "--point", "0,0")
    led = rep["ledger"]
    assert led["passed"] is True
    assert led["cohomology_dims"] == [1, 2, 2, 1]
    assert led["reduced_obstruction_dim"] == 2


def test_semistable_point_verdicts(capsys):
    rep = report(
        capsys, "semistable", str(CORPUS / "e2.kb"), "--chart", "chart_x",
        "--point", "1,0,0",
    )
    assert rep["ledger"]["semistable"] is False
    assert rep["ledger"]["direction"] == [1]


def test_semistable_answers_on_a_rank_three_quiver_model(capsys, tmp_path):
    src = tmp_path / "quiver.kb"
    src.write_text(
        "variables = [a0, a1, a2, a3, a4, a5]\n"
        "weights = [[1, 0, -1, 0, -1, 0], [-1, -1, 0, 1, 0, 1], [0, 1, 0, -1, 1, 0]]\n"
        'potential = "2*a0*a3*a4"\n'
    )
    rep = report(
        capsys, "semistable", str(src), "--chart", "chart_a0", "--point=0,0,0,0,0,0"
    )
    ledger = rep["ledger"]
    assert ledger["semistable"] is False
    # the fiber support is the pivot a0 alone, of weight (1, -1, 0)
    assert ledger["direction"][0] - ledger["direction"][1] > 0
    assert ledger["limit_chart"] == "chart_a0"


def test_obstruction_subcommand_cubic(capsys, tmp_path):
    src = tmp_path / "cubic.kb"
    src.write_text(
        'variables = [x]\nweights = []\npotential = "1/3*x^3"\nbasepoint = [0]\n'
    )
    rep = report(capsys, "obstruction", str(src), "--direction", "1", "--ext-order", "2")
    assert rep["ledger"]["vector"] == ["1"]
    assert rep["ledger"]["liftable"] is False


def test_omega_verify_subcommand(capsys):
    rep = report(capsys, "omega-verify", str(CORPUS / "square_pair.kb"))
    assert rep["ledger"]["passed"] is True


def test_fiber_check_subcommand(capsys):
    rep = report(capsys, "fiber-check", str(CORPUS / "family.kb"), "--at", "-2")
    assert rep["ledger"]["commutes"] is True
    assert rep["ledger"]["charts"] == {"chart_x": True, "chart_y": True}


def test_fiber_check_refuses_a_model_without_a_base_parameter_first(capsys):
    # trivial.kb has nothing that moves, so its atlas refuses too, but
    # the base parameter comes first
    trivial = str(CORPUS / "trivial.kb")
    assert run(capsys, "fiber-check", trivial) == (
        3, "", "precondition: model has no base parameter\n"
    )
    assert run(capsys, "semistable", trivial, "--point=0,0") == (
        3, "", "precondition: center equals ambient; blowup empty\n"
    )


def test_fiber_check_refuses_a_base_parameter_on_the_divisor(capsys, tmp_path):
    src = tmp_path / "base-on-divisor.kb"
    src.write_text(BASE_ON_DIVISOR)
    assert report(capsys, "blowup", str(src))["ledger"]["coinc_all"] is True
    assert run(capsys, "fiber-check", str(src), "--at=1") == (
        3, "", "precondition: base parameter cannot carry the divisor\n"
    )


def test_obstruction_takes_the_largest_order_and_refuses_past_it(capsys):
    # the lift of an order-6 extension has order 7, past the cap on the
    # orders a caller may ask for
    e2 = str(CORPUS / "e2.kb")
    line = ("obstruction", e2, "--point=1,0,0", "--direction=1,0,0", "--ext-order")
    ledger = report(capsys, *line, "6")["ledger"]
    assert (ledger["order"], ledger["liftable"]) == (6, True)
    for order in ("7", "0"):
        assert run(capsys, *line, order) == (
            3, "", "precondition: extension order must lie between 1 and 6\n"
        )


def test_independence_subcommand(capsys):
    rep = report(capsys, "independence", str(CORPUS / "e2aux.kb"), "--aux", "u")
    assert rep["ledger"]["independent"] is True


def test_a_repeated_auxiliary_name_is_exit_2(capsys):
    # as a repeated variable name in a model file is
    assert run(capsys, "independence", str(CORPUS / "e1aux.kb"), "--aux", "u,u") == (
        2, "", "error: auxiliary variable 'u' is repeated\n"
    )


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "blowup", "/nonexistent/input.kb")
    assert code == 2
    assert err


def test_a_model_file_that_is_not_utf_8_is_exit_2(capsys, tmp_path):
    src = tmp_path / "m.kb"
    src.write_bytes(b'variables = [x]\nweights = [[1]]\npotential = "x\xff"\n')
    assert run(capsys, "blowup", str(src)) == (
        2,
        "",
        "error: cannot read model file: 'utf-8' codec can't decode byte 0xff"
        " in position 46: invalid start byte\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("crit", "--point=1,0,0"),
        ("semistable", "--chart", "chart_x", "--point=0,1,0"),
        ("blowup",),
    ],
)
def test_a_byte_order_mark_is_read_past(capsys, tmp_path, argv):
    text = (CORPUS / "e2.kb").read_bytes()
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    (tmp_path / "plain" / "e2.kb").write_bytes(text)
    (tmp_path / "marked" / "e2.kb").write_bytes(b"\xef\xbb\xbf" + text)
    plain = run(capsys, argv[0], str(tmp_path / "plain" / "e2.kb"), *argv[1:])
    assert plain[0] == 0
    assert run(capsys, argv[0], str(tmp_path / "marked" / "e2.kb"), *argv[1:]) == plain


def test_an_unwritable_report_path_is_exit_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    assert run(capsys, "blowup", str(CORPUS / "e2.kb"), "--json", str(path)) == (
        2,
        "",
        f"error: cannot write report: [Errno 2] No such file or directory: '{path}'\n",
    )


def test_bad_basepoint_rational_is_exit_2(capsys, tmp_path):
    src = tmp_path / "bad.kb"
    src.write_text(
        'variables = [x, y]\nweights = [[1, -1]]\npotential = "x*y"\n'
        "basepoint = [1/0, 0]\n"
    )
    code, out, err = run(capsys, "obstruction", str(src), "--direction", "1,0")
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


def test_a_sign_after_a_binary_operator_reads_like_a_minus(capsys, tmp_path):
    # "+ -3*..." is how a generator that prints each coefficient with its
    # own sign writes a negative term
    texts = {"signed": "x*y + -1/2*x^2*y^2", "plain": "x*y - 1/2*x^2*y^2"}
    reports = {}
    for name, potential in texts.items():
        src = tmp_path / name / "model.kb"
        src.parent.mkdir()
        src.write_text(
            f'variables = [x, y]\nweights = [[1, -1]]\npotential = "{potential}"\n'
        )
        reports[name] = report(capsys, "blowup", str(src), "--full")
    assert reports["signed"] == reports["plain"]


def test_budget_flag_exhaustion_is_exit_4(capsys):
    code, _, err = run(capsys, "blowup", str(CORPUS / "e2.kb"), "--budget", "1")
    assert code == 4
    assert "budget" in err.lower() or "cap" in err


@pytest.mark.parametrize("value", ["1", "x"])
def test_budget_env_variable_is_not_read(capsys, monkeypatch, value):
    # the budget is set by --budget alone, so the argv says all a run does
    argv = ("blowup", str(CORPUS / "e2.kb"))
    plain = run(capsys, *argv)
    assert plain[0] == 0
    monkeypatch.setenv("EQUIBLOW_BUDGET", value)
    assert run(capsys, *argv) == plain


@pytest.mark.parametrize("command", sorted(EVERY_SUBCOMMAND))
def test_every_subcommand_rejects_an_invalid_budget(capsys, command):
    argv = subcommand_line(command, CORPUS)
    assert run(capsys, *argv, "--budget", "0") == (
        2, "", "error: budget must be a positive integer\n"
    )


def test_budget_hit_in_finalisation_is_exit_4(capsys, tmp_path):
    # eliminating u, v tail-reduces v^2 + u*y^2 to degree 5 in the last
    # step of the basis computation; the cap of 4 holds there too
    src = tmp_path / "tail.kb"
    src.write_text(
        "variables = [u, v, x, y, z]\nweights = [[0, 0, 1, 0, 0]]\n"
        'ideal = ["v^2 + u*y^2", "u - z^3"]\n'
    )
    argv = ("independence", str(src), "--aux", "u,v")
    code, out, err = run(capsys, *argv, "--budget", "4")
    assert code == 4
    assert out == ""
    assert err == "budget: reduction produced degree 5 (cap 4)\n"
    assert report(capsys, *argv, "--budget", "5")["ledger"]["independent"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("crit",),
        ("semistable", "--chart", "chart_x", "--point=0,0"),
        ("obstruction", "--point=0,0"),
    ],
)
def test_non_invariant_potential_is_exit_2(capsys, tmp_path, argv):
    src = tmp_path / "skew.kb"
    src.write_text('variables = [x, y]\nweights = [[1, -1]]\npotential = "x^2*y"\n')
    code, out, err = run(capsys, argv[0], str(src), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: potential is not invariant\n"


def test_build_model_checks_invariance_once(monkeypatch):
    from equiblow import dcrit, modelfile

    calls = []
    original = dcrit._require_invariant

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (
            name.split(".")[0] == "equiblow"
            and getattr(module, "_require_invariant", None) is original
        ):
            monkeypatch.setattr(module, "_require_invariant", counted)
    for name in ("e2.kb", "square.kb", "family.kb"):
        calls.clear()
        built = modelfile.build_model(modelfile.load_model_file(str(CORPUS / name)))
        assert len(calls) == 1, name
        # the model is built on first read, without a second check
        assert built.model is built.model and built.ideal.generators
        assert len(calls) == 1, name


# every malformed file of the shared table is refused, with its message,
# before the model is built, next to test_non_invariant_potential_is_exit_2
@pytest.mark.parametrize("case", sorted(REFUSALS))
@pytest.mark.parametrize(
    "argv",
    [
        ("crit",),
        ("semistable", "--chart", "chart_x", "--point=0,0,0"),
        ("obstruction", "--point=0,0,0"),
    ],
)
def test_model_file_errors_do_not_wait_for_the_model(capsys, tmp_path, case, argv):
    body, message = REFUSALS[case]
    src = tmp_path / f"{case}.kb"
    src.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(src), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_base_parameter_section_has_one_frame_fewer(capsys, tmp_path):
    src = tmp_path / "family.kb"
    src.write_text(
        "variables = [x, y, t]\nweights = [[1, -1, 0]]\n"
        'potential = "x*y*t"\nbase_parameter = t\nsection = ["y*t", "x*t"]\n'
    )
    assert report(capsys, "crit", str(src))["ledger"]["passed"] is True


def test_semistable_builds_no_model(capsys, monkeypatch, tmp_path):
    from equiblow import blowup, dcrit, modelfile, poly
    from equiblow.blowup import make_charts
    from equiblow.desing import action_is_trivial
    from equiblow.torus import Subtorus

    entered = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            entered.append(name)
            return original(*args, **kwargs)

        return wrapper

    paths = sorted(CORPUS.glob("*.kb")) + sorted(write_bench_models(tmp_path).glob("*.kb"))
    runs = []
    for path in paths:
        mf = modelfile.load_model_file(str(path))
        if mf.potential is None:
            continue
        built = modelfile.build_model(mf)
        point = "--point=" + ",".join("1" for _ in range(built.ring.n))
        if action_is_trivial(built.weights):
            # refused after the model file is read: no atlas to judge in
            runs.append((3, ("semistable", str(path), point)))
            continue
        charts = make_charts(built.ring, built.weights, Subtorus.full(built.weights.k))
        for chart in charts:
            runs.append((0, ("semistable", str(path), "--chart", chart.name, point)))
    assert len(runs) >= 20
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "equiblow":
            continue
        for name, original in (
            ("dcritical_chart", dcrit.dcritical_chart),
            ("action_pairing", blowup.action_pairing),
        ):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(poly.Poly, "derivative", counted("derivative", poly.Poly.derivative))
    for code, argv in runs:
        assert run(capsys, *argv)[0] == code, argv
    assert entered == []


def test_semistable_builds_the_whole_atlas_on_a_models_first_line_only(
    capsys, monkeypatch, tmp_path
):
    # heavy.kb has six charts; a model's first semistable line builds its
    # whole atlas with one make_charts call, and the process keeps it, so
    # no later line and no limit on another chart builds a chart
    from equiblow import blowup

    path = str(write_bench_models(tmp_path) / "heavy.kb")
    points = ["0,0,0,0,0,0"] + [
        ",".join("1" if j == i else "0" for j in range(6)) for i in range(6)
    ]
    atlases = count_calls(monkeypatch, blowup, "make_charts")
    built = count_calls(monkeypatch, blowup, "BlowupChart")
    named, elsewhere = set(), 0
    for name in ("x1", "x2", "x3", "y1", "y2", "y3"):
        for point in points:
            ledger = report(
                capsys, "semistable", path, "--chart", "chart_" + name, "--point=" + point
            )["ledger"]
            named.add(ledger["chart"])
            elsewhere += ledger.get("limit_chart", ledger["chart"]) != ledger["chart"]
            assert (len(atlases), len(built)) == (1, 6)
    assert len(named) == 6
    assert elsewhere > 0


def test_precondition_violation_is_exit_3(capsys, tmp_path):
    # fiber-check on a file without a base parameter
    src = tmp_path / "nobase.kb"
    src.write_text('variables = [x, y]\nweights = [[1, -1]]\npotential = "x*y"\n')
    code, _, err = run(capsys, "fiber-check", str(src))
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["semistable", "--chart", "chart_x", "--point=0,1,0"],
        # chart_y itself has no clash, but the atlas is checked in order
        ["semistable", "--chart", "chart_y", "--point=1,0,0"],
        ["blowup"],
        ["blowup", "--full"],
    ],
)
def test_chart_coordinate_named_like_a_variable_is_exit_3(capsys, tmp_path, argv):
    # chart_x renames y to T_y, which the file already uses for a fixed
    # coordinate
    src = tmp_path / "clash.kb"
    src.write_text(
        'variables = [x, y, T_y]\nweights = [[1, -1, 0]]\npotential = "x*y*T_y"\n'
    )
    code, out, err = run(capsys, argv[0], str(src), *argv[1:])
    assert code == 3
    assert out == ""
    assert err == (
        "precondition: coordinate 'T_y' of chart_x clashes with a model "
        "variable of the same name\n"
    )


# section files: an ideal with a section and frame weights, no potential;
# the value says whether the action pairing vanishes
SECTION_FILES = {
    "rank0-one-frame": (
        'variables = [x, y]\nweights = []\nideal = ["x*y"]\nsection = ["x*y"]\n'
        "frame_weights = [[]]\n",
        True,
    ),
    "rank0-n-frames": (
        'variables = [x, y]\nweights = []\nideal = ["y", "x"]\n'
        'section = ["y", "x"]\nframe_weights = [[], []]\n',
        True,
    ),
    "zero-rank2-one-frame": (
        'variables = [x, y]\nweights = [[0, 0], [0, 0]]\nideal = ["x*y"]\n'
        'section = ["x*y"]\nframe_weights = [[0, 0]]\n',
        True,
    ),
    "zero-rank2-n-frames": (
        'variables = [x, y]\nweights = [[0, 0], [0, 0]]\nideal = ["y", "x"]\n'
        'section = ["y", "x"]\nframe_weights = [[0, 0], [0, 0]]\n',
        True,
    ),
    "rank1": (
        'variables = [x, y]\nweights = [[1, -1]]\nideal = ["y", "x"]\n'
        'section = ["y", "x"]\nframe_weights = [[1], [-1]]\n',
        False,
    ),
    "rank2": (
        "variables = [x, y, z]\nweights = [[1, -1, 0], [0, 1, -1]]\n"
        'ideal = ["y*z", "x*z", "x*y"]\nsection = ["y*z", "x*z", "x*y"]\n'
        "frame_weights = [[1, 0], [-1, 1], [0, -1]]\n",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(SECTION_FILES))
def test_section_file_factorization_verdicts(capsys, tmp_path, name):
    # a section file carries no factorization witness: the condition holds
    # exactly when the action pairing vanishes, with the zero witness
    text, vanishing = SECTION_FILES[name]
    src = tmp_path / "section.kb"
    src.write_text(text)
    ledger = report(capsys, "crit", str(src))["ledger"]
    assert ledger["factorization"] is vanishing
    assert ledger["composite_zero"] and ledger["fixed_projection"]
    assert ledger["witnesses"] == (
        [] if vanishing
        else ["factorization: no witness available and none could be derived"]
    )


@pytest.mark.parametrize("name", ["rank1", "rank2"])
def test_full_blowup_of_a_section_file_asks_for_a_potential_file(
    capsys, tmp_path, name
):
    src = tmp_path / "section.kb"
    src.write_text(SECTION_FILES[name][0])
    code, out, err = run(capsys, "blowup", str(src), "--full")
    assert code == 3
    assert out == ""
    assert err == (
        "precondition: a section file carries no factorization witness for "
        "the action pairing; a Kirwan tree that starts at the full torus "
        "needs a potential file\n"
    )


# a section file whose ideal is not its section's
OWN_IDEAL_FILE = (
    'variables = [x, y]\nweights = [[1, -1]]\nideal = ["x^2*y^2 + 1"]\n'
    'section = ["y", "x"]\nframe_weights = [[1], [-1]]\n'
)


def test_a_section_file_keeps_its_own_ideal(capsys, tmp_path):
    # blowup reports the file's ideal on each chart, and the section does
    # not cut it there
    src = tmp_path / "own.kb"
    src.write_text(OWN_IDEAL_FILE)
    rep = report(capsys, "blowup", str(src))
    assert [(c["name"], c["ideal_gb"], c["checks"]["coinc"]) for c in rep["charts"]] == [
        ("chart_x", ["xi_x^4*T_y^2 + 1"], False),
        ("chart_y", ["T_x^2*xi_y^4 + 1"], False),
    ]
    assert rep["ledger"]["coinc_all"] is False


def test_full_blowup_refuses_a_section_that_does_not_cut_its_ideal(
    capsys, tmp_path
):
    # the refusal comes from stage 0, before any center scan, so it holds
    # whatever the first center; this file's tree has no stage at all
    src = tmp_path / "own.kb"
    src.write_text(OWN_IDEAL_FILE)
    code, out, err = run(capsys, "blowup", str(src), "--full")
    assert (code, out) == (3, "")
    assert err == (
        "precondition: the blowup section on chart_x does not cut the "
        "intrinsic chart ideal: the model does not present this ideal\n"
    )


@pytest.mark.parametrize("budget", ["1", "2"])
def test_full_blowup_without_a_section_is_refused_at_any_budget(capsys, budget):
    # the request is invalid before stage 0 is built, so no budget is spent
    code, out, err = run(
        capsys, "blowup", str(CORPUS / "fat.kb"), "--full", "--budget", budget
    )
    assert (code, out) == (3, "")
    assert err == (
        "precondition: --full requires a model with a section (potential or "
        "section file)\n"
    )


def test_theorem_failure_is_exit_5(capsys, monkeypatch):
    from equiblow import desing

    def explode(*a, **kw):
        raise TheoremCheckError("synthetic failure for the exit-code contract")

    # the section-coincidence check of stage 0
    monkeypatch.setattr(desing, "ideal_equal", explode)
    code, _, err = run(capsys, "blowup", str(CORPUS / "e2.kb"))
    assert code == 5
    assert "THEOREM" in err


def test_obstruction_disagreement_is_exit_5(capsys, monkeypatch, tmp_path):
    src = tmp_path / "cubic.kb"
    src.write_text(
        'variables = [x]\nweights = []\npotential = "1/3*x^3"\nbasepoint = [0]\n'
    )
    monkeypatch.setattr(cli, "find_lift", lambda *a, **kw: object())
    code, _, _ = run(
        capsys, "obstruction", str(src), "--direction", "1", "--ext-order", "2"
    )
    assert code == 5
    # the corpus spot check on the same model runs the same command
    code, out, _ = run(capsys, "corpus")
    assert (code, out) == (5, "")


def test_obstruction_evaluates_its_inputs_once(capsys, monkeypatch):
    from equiblow import dcrit

    calls = {"four_term_at": 0, "_extension_residual": 0}
    for name in calls:
        real = getattr(dcrit, name)

        def counted(*a, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(dcrit, name, counted)
    code, out, _ = run(
        capsys, "obstruction", str(CORPUS / "square.kb"), "--direction", "1,0"
    )
    assert code == 0
    assert calls == {"four_term_at": 1, "_extension_residual": 1}


def test_json_flag_writes_the_same_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code1, stdout1, _ = run(capsys, "corpus", "--json", str(out1))
    code2, stdout2, _ = run(capsys, "corpus", "--json", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1 == stdout2
    assert out1.read_text() == stdout1


def test_corpus_checks_all_pass(capsys):
    rep = report(capsys, "corpus")
    assert rep["ledger"]["failed"] == []
    names = [c["name"] for c in rep["ledger"]["checks"]]
    assert "coinc:e2.kb" in names
    assert "omega:square_pair.kb" in names


def test_corpus_dims_checks_read_the_crit_command(capsys, monkeypatch):
    real, *declared = cli._COMMANDS["crit"]

    def altered(args, built, budget):
        charts, ledger, code = real(args, built, budget)
        return charts, {**ledger, "cohomology_dims": [9, 9, 9, 9]}, code

    monkeypatch.setitem(cli._COMMANDS, "crit", (altered, *declared))
    code, out, _ = run(capsys, "corpus")
    assert code == 1
    assert json.loads(out)["ledger"]["failed"] == [
        "dims:square:(1,0)",
        "dims:square:origin",
        "dims:xyz:(1,0,0)",
    ]


def test_corpus_builds_each_bundled_file_once_per_process(capsys, monkeypatch):
    from equiblow import modelfile

    reads = []
    real = modelfile.read_text

    def counted(path):
        reads.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(cli, "read_text", counted)
    builds = count_calls(monkeypatch, modelfile, "build_model")
    first = report(capsys, "corpus")
    # the ten files and the two inline models of the spot checks
    assert set(reads) == {path.name for path in CORPUS.glob("*.kb")}
    assert len(builds) == 12
    builds.clear()
    assert report(capsys, "corpus") == first
    assert len(builds) == 0


@pytest.mark.parametrize(
    "argv",
    [("crit",), ("obstruction", "--point=0,0"), ("fiber-check",)],
)
def test_point_commands_refuse_an_ideal_only_file(capsys, argv):
    code, out, err = run(capsys, argv[0], str(CORPUS / "fat.kb"), *argv[1:])
    assert (code, out) == (3, "")
    assert err == f"precondition: {argv[0]} requires a potential or section model\n"


def test_corpus_failure_is_exit_1(capsys, monkeypatch):
    from equiblow import desing

    def fail_coinc(section_ideal, intrinsic, budget=None):
        return False

    # the section-coincidence check of stage 0
    monkeypatch.setattr(desing, "ideal_equal", fail_coinc)
    code, out, _ = run(capsys, "corpus")
    assert code == 1
    rep = json.loads(out)
    assert rep["ledger"]["failed"]


def test_blowup_full_with_one_sign_weights_completes(capsys, tmp_path):
    # every moving weight has one sign, so the unstable ideal has no
    # generators: the whole chart is unstable and nothing is blown up again
    src = tmp_path / "onesign.kb"
    src.write_text('variables = [x0, x1]\nweights = [[-2, 0]]\npotential = "2*x1^4"\n')
    rep = report(capsys, "blowup", str(src), "--full")
    (stage,) = rep["ledger"]["stages"]
    (chart,) = stage["charts"]
    assert chart["ideal_gb"] == ["x1^3"]
    assert chart["unstable_gb"] == []
    assert chart["substages"] == []


def test_negative_values_parse_after_a_space(capsys):
    e2, square = str(CORPUS / "e2.kb"), str(CORPUS / "square.kb")
    for argv, flag, prefix, value in (
        (["semistable", e2, "--chart", "chart_x"], "--point", "--poi", "-1,0,0"),
        (["crit", square], "--point", "--poi", "-1,0"),
        (["obstruction", square], "--direction", "--dir", "-1,0"),
        (["fiber-check", str(CORPUS / "family.kb")], "--at", "--a", "-2"),
    ):
        glued = report(capsys, *argv, f"{flag}={value}")
        assert report(capsys, *argv, flag, value) == glued
        assert report(capsys, *argv, prefix, value) == glued


def test_chart_bases_are_computed_once(capsys, monkeypatch):
    from equiblow import modelfile

    e2 = str(CORPUS / "e2.kb")
    calls = count_calls(monkeypatch, groebner, "buchberger")
    report(capsys, "blowup", e2, "--full")
    # one basis per chart for the report; the section check needs none,
    # since the section has the intrinsic ideal's generators; the tree
    # reuses the chart bases, and the center scan needs no emptiness
    # basis, since the chart ideals are monomial
    assert len(calls) == 2
    monkeypatch.setattr(modelfile, "_built", {})
    calls.clear()
    report(capsys, "corpus")
    # omega-verify takes three bases: the two hint saturations, which
    # leave one generator set, and the squared ideal for its nonzero
    # residuals
    assert len(calls) == 27
    calls.clear()
    # the corpus's own blowup of e2.kb left each chart its basis
    report(capsys, "blowup", e2, "--full")
    assert len(calls) == 0


def reported_stages(stages):
    """Every stage of a reported tree, depth first."""
    for stage in stages:
        yield stage
        for chart in stage["charts"]:
            yield from reported_stages(chart["substages"])


@pytest.mark.parametrize(
    "name, full", [("e2.kb", False), ("e2.kb", True), ("heavy.kb", True), ("rank2.kb", True)]
)
def test_stage_zero_is_built_once_for_plain_and_full_blowups(
    capsys, monkeypatch, tmp_path, name, full
):
    # stage 0 builds its atlas once and judges each chart once; the tree
    # continues from those charts, so every stage costs one make_charts
    # call, and every chart is built once and costs one section and one
    # unstable ideal
    from equiblow import blowup, stability

    path = CORPUS / name
    if not path.exists():
        path = write_bench_models(tmp_path) / name
    atlases = count_calls(monkeypatch, blowup, "make_charts")
    built = count_calls(monkeypatch, blowup, "BlowupChart")
    sections = count_calls(monkeypatch, blowup, "blowup_section")
    unstable = count_calls(monkeypatch, stability, "unstable_ideal")
    rep = report(capsys, "blowup", str(path), *(["--full"] if full else []))
    if full:
        tree = list(reported_stages(rep["ledger"]["stages"]))
        charts = sum(len(stage["charts"]) for stage in tree)
        assert len(atlases) == len(tree)
    else:
        charts = len(rep["charts"])
        assert len(atlases) == 1
    assert len(built) == len(sections) == len(unstable) == charts


@pytest.mark.parametrize(
    "name, nodes", [("e2.kb", 2), ("heavy.kb", 6), ("rank2.kb", 4), ("quiver3.kb", 4)]
)
def test_full_blowup_builds_one_node_per_tree_chart(
    capsys, monkeypatch, tmp_path, name, nodes
):
    # the first center is the full torus on each, so the tree's first
    # stage is stage 0 itself: no chart gets a second node
    from equiblow import desing

    path = CORPUS / name
    if not path.exists():
        path = write_bench_models(tmp_path) / name
    built = count_calls(monkeypatch, desing, "ChartOutcome")
    rep = report(capsys, "blowup", str(path), "--full")
    tree = list(reported_stages(rep["ledger"]["stages"]))
    assert sorted(c["name"] for c in tree[0]["charts"]) == sorted(
        c["name"] for c in rep["charts"]
    )
    assert len(built) == sum(len(stage["charts"]) for stage in tree) == nodes


def test_chart_transport_neither_substitutes_nor_long_divides(capsys, monkeypatch):
    # chart pullbacks, exceptional division, the xi twist and fiber
    # specialization are exponent maps (the package has no generic
    # substitution), and every divisor on these runs is one term, so
    # ``divide_exact`` never enters the multivariate division loop; the
    # Groebner engine reduces through the loop's kernel ``poly._divide``
    # and binds ``divmod_multi`` under its own name, both out of the patch
    from equiblow import poly

    entered = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            entered.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(poly, "divmod_multi", counted("long", poly.divmod_multi))
    calls = count_calls(monkeypatch, groebner, "buchberger")
    report(capsys, "blowup", str(CORPUS / "e2.kb"), "--full")
    assert (entered, len(calls)) == ([], 2)
    calls.clear()
    report(capsys, "fiber-check", str(CORPUS / "family.kb"), "--at=3/2")
    assert (entered, len(calls)) == ([], 0)


def test_the_layer_tracer_records_buchberger_inputs(capsys, monkeypatch):
    # the benchmark's ``--trace 1`` wraps every public function of each
    # layer and keys each ``buchberger`` call by its bound arguments,
    # ``_tracked`` among them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import layertrace

    original = groebner.buchberger
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        report(capsys, "blowup", str(CORPUS / "e2.kb"), "--full")
    finally:
        tracer.uninstall()
    assert groebner.buchberger is original
    assert tracer.summary()["calls"]["groebner.buchberger"] == 2
    assert len(tracer.buchberger_inputs) == 2
    assert not any(tracked for *_, tracked in tracer.buchberger_inputs)


@pytest.mark.parametrize(
    "name, count", [("heavy.kb", 7), ("quiver3.kb", 5), ("conifold.kb", 5)]
)
def test_bench_model_trees_compute_exact_basis_counts(
    capsys, monkeypatch, tmp_path, name, count
):
    write_bench_models(tmp_path)
    calls = count_calls(monkeypatch, groebner, "buchberger")
    report(capsys, "blowup", str(tmp_path / name), "--full")
    assert len(calls) == count


def test_zero_weight_coordinates_cost_no_center_basis(capsys, monkeypatch, tmp_path):
    # one nonzero column and three zero-weight coordinates: the center
    # scan tests column sets with the zero-weight coordinates free, not
    # every coordinate support, so the tree takes two bases (nine when
    # each support was tested)
    path = tmp_path / "zero_columns.kb"
    path.write_text(
        "variables = [a0, a1, a2, a3]\n"
        "weights = [[0, 0, -2, 0], [0, 0, -1, 0]]\n"
        'potential = "a0^2*a3^2 + 3*a1 + 2*a0*a1*a3^2 + a0^2*a1^2"\n'
    )
    calls = count_calls(monkeypatch, groebner, "buchberger")
    report(capsys, "blowup", str(path), "--full")
    assert len(calls) == 2


def test_crit_scans_the_gl3_matrix_model(capsys, tmp_path):
    # 27 coordinates but only 6 distinct nonzero weight columns: the
    # center scan's cap counts columns
    path = tmp_path / "c3m3.kb"
    path.write_text(MATRIX_MODELS["c3m3.kb"])
    assert report(capsys, "crit", str(path))["ledger"]["passed"] is True


@pytest.mark.parametrize(
    "name, point, count",
    [
        ("heavy.kb", "0,0,0,0,0,0", 0),
        ("quiver3.kb", "0,0,0,0,0,0", 0),
        ("conifold.kb", "0,0,0,0,0", 0),
        ("rank2.kb", "0,0,0,0", 6),
    ],
)
def test_crit_solves_lps_only_on_rank_deficient_column_sets(
    capsys, monkeypatch, tmp_path, name, point, count
):
    # one closed-orbit LP per nonempty set of distinct nonzero weight
    # columns of rank below k.  On a rank-1 model every such set has
    # rank 1, so only the empty support is scanned and it needs no LP.
    # rank2.kb has the columns (1,0), (-1,0), (0,1), (0,-1): four
    # singletons and the two opposite pairs have rank 1.
    from equiblow import linalg

    calls = []
    original = linalg.lp_feasible

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "lp_feasible", counted)
    write_bench_models(tmp_path)
    report(capsys, "crit", str(tmp_path / name), f"--point={point}")
    assert len(calls) == count


def full_parse(words):
    """The reference parse: the top-level parser, which hands the words
    after the command to the command's subparser."""
    return cli._build_parser().parse_args(words)


def outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = ("exit", e.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def argv_battery(tmp_path):
    """(well-formed lines, other lines).  A well-formed line, once
    ``main`` has glued a negative value to its option, names a command
    and uses exact long flags, each once, values that do not start with
    '-' and that the flag's type reads, every required flag and the
    command's positionals: the table scan parses it alone."""
    c = lambda name: str(CORPUS / name)  # noqa: E731
    e2, square = c("e2.kb"), c("square.kb")
    report_path = str(tmp_path / "out.json")
    well_formed = [
        ["corpus"],
        ["corpus", "--budget=50"],
        ["blowup", e2],
        ["blowup", e2, "--chart", "chart_y"],
        ["blowup", c("e1.kb"), "--full", "--budget", "40"],
        ["blowup", c("e1.kb"), "--full", "--json", report_path],
        ["crit", square],
        ["crit", c("fat.kb")],
        ["crit", square, "--point", "1,0"],
        ["crit", square, "--point=1,0"],
        ["crit", square, "--point", "-1,0"],
        ["crit", square, "--point="],
        ["crit", square, "--point=--1,0"],
        ["crit", square, "--budget", "٣"],
        ["crit", "--point", "0,0", square],
        ["crit", square, "--point", "1"],
        ["crit", square, "--point", "a,b"],
        ["semistable", e2, "--chart", "chart_x", "--point", "0,1,0"],
        ["semistable", e2, "--chart", "chart_x", "--point", "-1,0,0"],
        ["semistable", e2, "--chart", "chart_z", "--point", "0,1,0"],
        ["semistable", e2, "--chart", "chart_x"],
        ["semistable", e2, "--point=1,0,0"],
        ["obstruction", square],
        ["obstruction", square, "--point", "0,0", "--direction", "-1,0"],
        ["obstruction", square, "--point=0,0", "--direction=1,0", "--ext-order", "3"],
        ["omega-verify", c("square_pair.kb")],
        ["omega-verify", square],
        ["fiber-check", c("family.kb")],
        ["fiber-check", c("family.kb"), "--at", "-2"],
        ["fiber-check", c("family.kb"), "--at=-1/2"],
        ["fiber-check", c("family.kb"), "--at", "1/0"],
        ["independence", c("e1aux.kb"), "--aux", "u"],
        ["independence", c("e1aux.kb"), "--aux", "w"],
    ]
    other = [
        [],
        ["-h"],
        ["--help"],
        ["-h", "crit"],
        ["nope"],
        ["nope", e2],
        ["--budget", "2", "crit", square],
        ["corpus", "extra"],
        ["blowup", e2, "--ch=chart_x", "--json", report_path],
        ["blowup", c("e1.kb"), "--fu"],
        ["blowup", e2, "--full=x"],
        ["blowup", e2, "--full", "--full"],
        ["blowup", e2, "-h"],
        ["blowup", e2, "--h"],
        ["blowup"],
        ["blowup", e2, "extra"],
        ["blowup", e2, "--nope"],
        ["blowup", e2, "--budget", "x"],
        ["blowup", e2, "--budget"],
        ["crit", square, "--poi", "-1,0"],
        ["crit", square, "--point=-1/2,0", "--js", report_path],
        ["crit", square, "--point"],
        ["crit", square, "--point", "1,0", "--point", "0,0"],
        ["crit", "--", square],
        ["crit", square, "--", "extra"],
        ["crit", square, "-"],
        ["crit", "-h"],
        ["semistable", e2, "--cha", "chart_x", "--poi=-1,0,0"],
        ["semistable", e2, "--c", "chart_x"],
        ["obstruction", square, "--dir=1,0", "--ext-order", "3"],
        ["obstruction", square, "--ext", "x"],
        ["obstruction", square, "--ext-order", "x"],
        ["obstruction", square, "--e", "2"],
        ["obstruction", square, "--budget", "-1"],
        ["omega-verify", c("square_pair.kb"), "--bud", "50"],
        ["fiber-check", c("family.kb"), "--a", "1"],
        ["independence", c("e1aux.kb"), "--au=u"],
        ["independence", c("e1aux.kb")],
        ["independence", c("e1aux.kb"), "--aux", "u", "--budget", "x"],
        ["independence", c("e1aux.kb"), "--aux=u", "--aux", "u"],
    ]
    return well_formed, other


def test_argv_battery_matches_the_full_parse(capsys, monkeypatch, tmp_path):
    import argparse

    # every parse that reaches argparse goes through parse_known_args
    reached = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        reached.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    well_formed, other = argv_battery(tmp_path)
    codes = set()
    for argv in well_formed + other:
        reached.clear()
        got = outcome(capsys, argv)
        assert bool(reached) == (argv in other), argv
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_words", full_parse)
            want = outcome(capsys, argv)
        assert got == want, argv
        codes.add(got[0])
    # reports, error exits, help and argparse errors are all covered
    assert {0, 2, 3, ("exit", 0), ("exit", 2)} <= codes


def parsed(parse, words):
    """The attributes of the namespace ``parse`` gives ``words``, each
    with its type, since ``1 == True``; or its exit code and what it
    printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return {k: (type(v), v) for k, v in vars(parse(list(words))).items()}
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


FLAG_VALUES = ["7", "1", "0,1,0", "u", "", "1/2", "a b", "٣"]


@st.composite
def command_lines(draw):
    """A command line that starts nearly well formed: one word per
    positional, and each flag of the command at most once, with ``=`` or
    with its value as the next word, bare if it takes no value; but now
    and then a required flag is left out, a bare flag takes ``=value``
    or a flag that takes a value comes without one.  Then up to three
    edits: a flag cut to a prefix, a repeated item, a dropped item, an
    extra positional, ``-h``, ``--help``, ``--`` or an unknown flag, a
    flag of any command, or a value that starts with '-'.  Non-int
    values of ``--budget`` and ``--ext-order`` come with the values
    drawn."""
    declared = [a for *_, arguments in cli._COMMANDS.values() for a in arguments]
    every = sorted({a.flag for a in declared if a.flag.startswith("--")})
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["nope", "-h"]))
    *_, arguments = cli._COMMANDS.get(command, (None, None, ()))
    groups = [["m.kb"] for a in arguments if not a.flag.startswith("-")]
    now_and_then = [False, False, False, True]
    for a in arguments:
        if not a.flag.startswith("-"):
            continue
        if not a.required and draw(st.booleans()):
            continue
        if a.required and draw(st.sampled_from(now_and_then)):
            continue
        value = draw(st.sampled_from(FLAG_VALUES))
        if a.store_true != draw(st.sampled_from(now_and_then)):
            groups.append([a.flag])
        elif a.store_true or draw(st.booleans()):
            groups.append([a.flag + "=" + value])
        else:
            groups.append([a.flag, value])
    flag_groups = [g for g in groups if g[0].startswith("--")]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["prefix", "repeat", "drop", "extra", "special", "foreign", "negative"]
        ))
        if edit == "prefix" and flag_groups:
            group = draw(st.sampled_from(flag_groups))
            flag, eq, value = group[0].partition("=")
            group[0] = flag[: draw(st.integers(3, len(flag)))] + eq + value
        elif edit == "repeat" and groups:
            groups.append(list(draw(st.sampled_from(groups))))
        elif edit == "drop" and groups:
            groups.remove(draw(st.sampled_from(groups)))
        elif edit == "extra":
            groups.append([draw(st.sampled_from(["x", "", "-", "-1"]))])
        elif edit == "special":
            groups.append([draw(st.sampled_from(["-h", "--help", "--", "--nope", "-x", "--h"]))])
        elif edit == "foreign":
            groups.append([draw(st.sampled_from(every)), draw(st.sampled_from(FLAG_VALUES))])
        elif edit == "negative":
            groups.append([draw(st.sampled_from(every)), draw(st.sampled_from(["-1", "-1,0", "-x"]))])
    return [command] + [word for group in draw(st.permutations(groups)) for word in group]


@settings(max_examples=1000, deadline=None)
@given(command_lines())
@example(["blowup", "m.kb", "--full=x"])
@example(["independence", "m.kb"])
@example(["obstruction", "m.kb", "--ext-order", "x"])
def test_scanned_words_match_the_full_parse(words):
    assert parsed(cli._parse_words, words) == parsed(full_parse, words)


INTEGER_PARTS = st.from_regex(r"[+-]?0*[0-9]{1,6}", fullmatch=True)
OTHER_PARTS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{1,3}/[+-]?[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["1/0", "0/0", "-", "--1", "1_000", "١٢", "inf", "nan", "1/2/3", " "]),
    st.text(alphabet="0123456789-+./eE_ x", max_size=6),
)


def reference_part(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return "error"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(INTEGER_PARTS, OTHER_PARTS), min_size=1, max_size=4))
def test_parse_point_matches_the_fraction_parser(parts):
    from equiblow.errors import ModelFileError

    text = ",".join(parts)
    want = [reference_part(s.strip()) for s in text.split(",")]
    try:
        got = cli._parse_point(text, len(want))
    except ModelFileError as e:
        assert "error" in want
        assert str(e) == f"bad point {text!r}"
    else:
        assert list(got) == want
        assert all(is_canonical_scalar(x) for x in got)


# ---------------------------------------------------------------------------
# the models a process keeps, one per model text


def test_a_file_edited_between_calls_is_read_anew(capsys, monkeypatch, tmp_path):
    # the two texts give different crit reports; each is compared with
    # a first read of its text under the same file name
    from equiblow import modelfile

    texts = {
        "square": (CORPUS / "square.kb").read_text(),
        "witness": 'variables = [x, y]\nweights = [[1, -1]]\nideal = ["x"]\n'
        'section = ["x"]\nframe_weights = [[1]]\n',
    }
    path = tmp_path / "m.kb"
    got = []
    for text in texts.values():
        path.write_text(text)
        got.append(run(capsys, "crit", str(path)))
    for name, text in texts.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "m.kb").write_text(text)
    want = []
    for name in texts:
        monkeypatch.setattr(modelfile, "_built", {})
        want.append(run(capsys, "crit", str(tmp_path / name / "m.kb")))
    assert got == want
    assert got[0] != got[1]


def test_a_process_keeps_the_models_of_the_last_32_texts(monkeypatch):
    from equiblow import modelfile

    assert modelfile._KEPT == 32
    texts = [f"variables = [x]\nweights = [[{i}]]\nideal = [\"x\"]\n" for i in range(1, 34)]
    builds = count_calls(monkeypatch, modelfile, "build_model")
    first = [modelfile.model_of_text(text) for text in texts]
    assert len(builds) == 33
    assert len(modelfile._built) == 32
    # the oldest text went first: every other model is the one kept
    builds.clear()
    assert [modelfile.model_of_text(text) for text in texts[1:]] == first[1:]
    assert len(builds) == 0
    assert modelfile.model_of_text(texts[0]) is not first[0]
    assert len(builds) == 1
    assert texts[1] not in modelfile._built


def test_a_budget_still_binds_after_an_unbudgeted_run(capsys):
    e2 = str(CORPUS / "e2.kb")
    report(capsys, "blowup", e2)
    code, out, err = run(capsys, "blowup", e2, "--budget", "1")
    assert (code, out) == (4, "")
    assert err == "budget: reduction produced degree 2 (cap 1)\n"


def test_a_budget_that_ran_out_leaves_nothing_behind(capsys, monkeypatch):
    from equiblow import modelfile

    e2 = str(CORPUS / "e2.kb")
    first = run(capsys, "blowup", e2)
    assert first[0] == 0
    monkeypatch.setattr(modelfile, "_built", {})
    assert run(capsys, "blowup", e2, "--budget", "1")[0] == 4
    assert run(capsys, "blowup", e2) == first


def test_facts_of_one_budget_serve_only_that_budget(capsys, monkeypatch):
    # e2.kb takes one basis per chart, and a budget of 50 exceeds none,
    # yet a basis computed under it is not one of the unbudgeted run
    e2 = str(CORPUS / "e2.kb")
    calls = count_calls(monkeypatch, groebner, "buchberger")
    for argv, bases in (
        (["--budget", "50"], 2),
        ([], 2),
        (["--budget", "50"], 0),
        ([], 0),
        (["--budget", "40"], 2),
    ):
        calls.clear()
        report(capsys, "blowup", e2, *argv)
        assert len(calls) == bases, argv


def test_a_family_computes_each_stage_zero_ideal_once(capsys, monkeypatch):
    # plain and full blowups and fiber-checks at five base values all
    # read the family's stage-0 intrinsic ideals; each fiber, and each
    # deeper stage, has a ring of its own
    from equiblow import blowup

    family = str(CORPUS / "family.kb")
    calls = count_calls(monkeypatch, blowup, "intrinsic_ideal")
    rep = report(capsys, "blowup", family)
    report(capsys, "blowup", family, "--full")
    for c in ("0", "1", "-2", "1/2", "7"):
        assert report(capsys, "fiber-check", family, "--at=" + c)["ledger"]["commutes"]
    names = ("x", "y", "z", "t")
    stage_zero = [chart.name for (ideal, chart, *_), _ in calls if ideal.ring.names == names]
    assert stage_zero == [chart["name"] for chart in rep["charts"]]
    # every fiber-check computed route two on each of its charts
    fibers = [ideal for (ideal, *_), _ in calls if ideal.ring.names == names[:3]]
    assert len(fibers) == 5 * len(stage_zero)


def test_a_fiber_check_builds_no_fiber_model(capsys, monkeypatch):
    # a fiber-check sets the base value in the family's section alone:
    # it calls no specialize and builds no LocalModel, and still computes
    # one fiber intrinsic ideal per fiber chart
    from equiblow import blowup, family as families

    family = str(CORPUS / "family.kb")
    report(capsys, "blowup", family)
    specialized = count_calls(monkeypatch, families, "specialize")
    calls = count_calls(monkeypatch, blowup, "intrinsic_ideal")
    models = []
    init = blowup.LocalModel.__init__

    def counted_init(self, *args, **kwargs):
        models.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(blowup.LocalModel, "__init__", counted_init)
    for c in ("0", "-2", "11/6"):
        calls.clear()
        rep = report(capsys, "fiber-check", family, "--at=" + c)
        fibers = [chart.name for (ideal, chart, *_), _ in calls]
        assert all(ideal.ring.names == ("x", "y", "z") for (ideal, *_), _ in calls)
        assert fibers == list(rep["ledger"]["charts"])
    assert specialized == [] and models == []


def test_fiber_check_reports_a_chart_where_the_routes_differ(capsys, monkeypatch):
    # route two with one generator dropped from the fiber's ideal on
    # chart_x: that chart does not commute, and the line still exits 0
    from equiblow import desing

    intrinsic = desing.intrinsic_ideal

    def dropped(ideal, chart, budget=None):
        out = intrinsic(ideal, chart, budget)
        if chart.parent_ring.names == ("x", "y", "z") and chart.name == "chart_x":
            out = Ideal(out.ring, out.generators[:-1])
        return out

    monkeypatch.setattr(desing, "intrinsic_ideal", dropped)
    rep = report(capsys, "fiber-check", str(CORPUS / "family.kb"), "--at=1")
    assert rep["ledger"] == {
        "at": "1",
        "charts": {"chart_x": False, "chart_y": True},
        "commutes": False,
    }


def test_model_file_errors_come_on_every_read(capsys, tmp_path):
    from equiblow import modelfile

    src = tmp_path / "m.kb"
    src.write_text('variables = [x, y]\nweights = [[1, 1]]\npotential = "x*y"\n')
    for _ in range(2):
        assert run(capsys, "crit", str(src)) == (
            2, "", "error: potential is not invariant\n"
        )
    assert modelfile._built == {}


@pytest.fixture(scope="module")
def kept_model_lines(tmp_path_factory):
    """Per corpus and bench file, lines of the point queries, of
    fiber-checks at three base values, and of blowups: plain, full, of
    one chart, without a budget and with budgets of 1 and 50; on the
    files with an auxiliary coordinate u, the independence check,
    without a budget and with a budget of 1."""
    from equiblow import modelfile

    bench = write_bench_models(tmp_path_factory.mktemp("bench"))
    by_file = []
    for path in sorted(CORPUS.glob("*.kb")) + sorted(bench.glob("*.kb")):
        mf = modelfile.load_model_file(str(path))
        n = len(mf.variables)
        zeros, ones = ",".join("0" * n), ",".join("1" * n)
        f = str(path)
        moving = [i for i in range(n) if any(row[i] for row in mf.weights)]
        charts = ["chart_" + mf.variables[i] for i in moving[:3]]
        lines = [
            ["crit", f],
            ["crit", f, "--point=" + zeros],
            ["obstruction", f, "--point=" + zeros, "--direction=" + ones],
            *(["fiber-check", f, "--at=" + c] for c in ("1", "-2", "1/2")),
            *(
                ["blowup", f, *extra, *budget]
                for extra in ([], ["--full"], *(["--chart", c] for c in charts[:1]))
                for budget in ([], ["--budget", "1"], ["--budget", "50"])
            ),
        ]
        for chart in charts:
            lines += [
                ["semistable", f, "--chart", chart, "--point=" + zeros],
                ["semistable", f, "--chart", chart, "--point=" + ones],
            ]
        if path.name in ("e1aux.kb", "e2aux.kb"):
            lines += [
                ["independence", f, "--aux", "u", *budget]
                for budget in ([], ["--budget", "1"])
            ]
        by_file.append(lines)
    return by_file


def captured(argv):
    """``run`` for a hypothesis test, which takes no ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


_FIRST_READS: dict = {}  # line -> its outcome with no model kept


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kept_models_give_every_line_its_first_read_outcome(kept_model_lines, data):
    # a command that changed a kept model, chart or report, or read a
    # fact kept under another budget, would give a later line on the
    # same text another outcome
    from equiblow import modelfile

    # the lines of one or two files, so most draws run several lines
    # on one model text
    files = data.draw(st.lists(st.sampled_from(kept_model_lines), min_size=1, max_size=2))
    lines = st.lists(st.sampled_from([ln for lines in files for ln in lines]),
                     min_size=1, max_size=12)
    for line in data.draw(lines):
        key = tuple(line)
        if key not in _FIRST_READS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(modelfile, "_built", {})
                _FIRST_READS[key] = captured(line)
        assert captured(line) == _FIRST_READS[key], line
