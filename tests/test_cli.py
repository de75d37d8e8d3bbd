import csv
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ordstat.orderstats
import ordstat.stochorder
from ordstat import cli
from ordstat.copula import survival_copula_eval
from ordstat.marginals import mphr_sf
from ordstat.scenarios import ScenarioError, builtin_example, example_scenario_document
from ordstat.stochorder import DominanceReport, validate_theorem
from ordstat.svgplot import render_csv_plot

from scenario_gen import NAN_HAZARD_DOC


def run_cli(*args, env_extra=None, cwd=None):
    import os
    env = dict(os.environ)
    # the subprocess imports the same ordstat as these tests
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ordstat", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd)


def read_rows(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def small_grid(doc):
    doc = dict(doc)
    doc["grid"] = {"points": 120, "u_min": 1e-3, "u_max": 1.0}
    return doc


class TestReproduce:
    def test_first_example_files_and_dominance(self, tmp_path):
        r = run_cli("reproduce", "1", "--out-dir", tmp_path, "--grid-points", "200")
        assert r.returncode == 0, r.stderr
        csv_path = tmp_path / "example1_curves.csv"
        assert csv_path.exists()
        assert (tmp_path / "example1_plot.svg").exists()
        assert (tmp_path / "example1_report.txt").exists()
        rows = read_rows(csv_path)
        assert len(rows) == 200
        assert list(rows[0]) == ["u", "x", "sf_X", "sf_Y", "hr_X", "hr_Y", "source"]
        for row in rows:
            assert float(row["sf_X"]) >= float(row["sf_Y"]) - 1e-12
            assert row["hr_X"] == "" and row["hr_Y"] == ""  # survival-only run
        us = [float(r_["u"]) for r_ in rows]
        assert us == sorted(us)

    def test_third_example_hazard_columns(self, tmp_path):
        r = run_cli("reproduce", "3", "--out-dir", tmp_path, "--grid-points", "150")
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "example3_curves.csv")
        with_hazard = [row for row in rows if row["hr_X"]]
        assert len(with_hazard) == len(rows) - 1  # empty only at x = 0
        for row in with_hazard:
            assert float(row["hr_X"]) <= float(row["hr_Y"]) + 1e-10
        x0_row = [row for row in rows if float(row["x"]) == 0.0]
        assert x0_row and x0_row[0]["hr_X"] == ""

    def test_each_curve_evaluated_once(self, tmp_path, monkeypatch):
        # count the router calls that stochorder makes
        calls = []

        def counted(*args, _fn=ordstat.stochorder._curves, **kwargs):
            calls.append(kwargs.get("hazard", False))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ordstat.stochorder, "_curves", counted)
        for example_id in ("1", "2", "3", "4"):
            calls.clear()
            assert cli.main(["reproduce", example_id, "--out-dir", str(tmp_path),
                             "--grid-points", "150"]) == 0
            # one pass per side gives its survival and hazard, shared by the st
            # check and both hr routes; sides with a sample-size law (examples
            # 1 and 2) give no hazard
            assert calls == [example_id in ("3", "4")] * 2

    def test_reports_print_zeros_without_a_sign(self, tmp_path):
        # the st witness at the origin is x = -log(1), and an exactly met
        # majorization total is a negated zero
        for example_id in ("1", "2", "3", "4"):
            assert cli.main(["reproduce", example_id, "--out-dir", str(tmp_path),
                             "--grid-points", "150"]) == 0
            report = (tmp_path / f"example{example_id}_report.txt").read_text()
            numbers = re.findall(r"(?<![\w.])-\d[\d.]*(?:e[+-]\d+)?", report)
            assert not [v for v in numbers if float(v) == 0.0]

    @pytest.mark.parametrize("example_id", [2, 4])
    def test_remaining_examples_pass(self, tmp_path, example_id):
        r = run_cli("reproduce", example_id, "--out-dir", tmp_path,
                    "--grid-points", "150")
        assert r.returncode == 0, r.stderr

    def test_env_var_output_dir(self, tmp_path):
        r = run_cli("reproduce", "1", "--grid-points", "80",
                    env_extra={"ORDSTAT_OUT": str(tmp_path / "envdir")})
        assert r.returncode == 0
        assert (tmp_path / "envdir" / "example1_curves.csv").exists()

    def test_flag_overrides_env(self, tmp_path):
        r = run_cli("reproduce", "1", "--grid-points", "80",
                    "--out-dir", tmp_path / "flag",
                    env_extra={"ORDSTAT_OUT": str(tmp_path / "envdir")})
        assert r.returncode == 0
        assert (tmp_path / "flag" / "example1_curves.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # a directory in the plot's place makes the rename fail
        svg_path = tmp_path / "example1_plot.svg"
        svg_path.mkdir()
        assert cli.main(["reproduce", "1", "--out-dir", str(tmp_path),
                         "--grid-points", "80"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and f"'{svg_path}'" in err
        assert not list(tmp_path.glob("*.tmp"))


class TestCompare:
    def test_equivalent_document_reproduces_bit_for_bit(self, tmp_path):
        doc = example_scenario_document(1)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        r1 = run_cli("reproduce", "1", "--out-dir", tmp_path / "a",
                     "--grid-points", "300")
        r2 = run_cli("compare", path, "--out-dir", tmp_path / "b",
                     "--grid-points", "300")
        assert r1.returncode == 0 and r2.returncode == 0
        a = (tmp_path / "a" / "example1_curves.csv").read_bytes()
        b = (tmp_path / "b" / "example1_curves.csv").read_bytes()
        assert a == b

    def test_swapped_sides_exit_dominance_failure(self, tmp_path):
        doc = small_grid(example_scenario_document(3))
        doc["x_side"], doc["y_side"] = doc["y_side"], doc["x_side"]
        doc["theorem"] = "none"
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(doc))
        r = run_cli("compare", path, "--out-dir", tmp_path)
        assert r.returncode == 3

    def test_skipped_hazard_points_are_reported(self, tmp_path, capsys):
        path = tmp_path / "nan_hazard.json"
        path.write_text(json.dumps(NAN_HAZARD_DOC))
        # the 0/0 hazard where sf_Y is 0 is handled, so numpy stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
        hr_block = capsys.readouterr().out.split("  [pass] hr: ")[1].split("\n\n")[0]
        assert hr_block.splitlines()[1:] == [
            "         [pass] survival-ratio monotonicity: min step 6.921066e-04",
            "         points skipped by the hazard route (a survival is 0): 1"]

    def test_coupled_sides_evaluate_their_rows_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(marginals, xs, hazard=False, _fn=ordstat.orderstats._marginal_terms):
            calls.append(hazard)
            return _fn(marginals, xs, hazard)

        monkeypatch.setattr(ordstat.orderstats, "_marginal_terms", counted)
        path = tmp_path / "coupled.json"
        doc = small_grid(example_scenario_document(1))
        del doc["n1_pmf"], doc["n2_pmf"]  # with laws, no hazards are computed
        path.write_text(json.dumps(doc))
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
        # one fused survival-and-hazard pass over each side's rows
        assert calls == [True, True]

    def test_hypothesis_failure_exit_code(self, tmp_path):
        doc = small_grid(example_scenario_document(3))
        doc["x_side"], doc["y_side"] = doc["y_side"], doc["x_side"]  # keeps thm3 tag
        path = tmp_path / "badhyp.json"
        path.write_text(json.dumps(doc))
        r = run_cli("compare", path, "--out-dir", tmp_path)
        assert r.returncode == 2

    def test_third_example_with_sample_size_laws_fails_its_hypotheses(self, tmp_path,
                                                                       capsys):
        # Theorem 3 grades hazards, which a side with a law does not have: the
        # scenario used to pass every graded hypothesis, fall back to st and
        # exit 3
        doc = small_grid(example_scenario_document(3))
        doc["n1_pmf"] = doc["n2_pmf"] = [0.1, 0.2, 0.3, 0.4]
        path = tmp_path / "laws.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "[FAIL] fixed_sample_sizes" in capsys.readouterr().out

    def test_clayton_recoupled_first_example_fails_log_concavity(self, tmp_path, capsys):
        # Clayton's psi is log-convex, so theorem 1's hypothesis fails
        doc = small_grid(example_scenario_document(1))
        doc["generator"] = {"name": "clayton", "params": {"theta": 2.0}}
        path = tmp_path / "clayton.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "[FAIL] generator_log_concave" in capsys.readouterr().out

    def test_malformed_json_exits_64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        r = run_cli("compare", path)
        assert r.returncode == 64
        assert "line" in r.stderr

    def test_unknown_key_exits_64_and_names_it(self, tmp_path):
        doc = small_grid(example_scenario_document(1))
        doc["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        r = run_cli("compare", path)
        assert r.returncode == 64
        assert "surprise" in r.stderr

    def test_bad_probability_rejected(self, tmp_path):
        doc = small_grid(example_scenario_document(1))
        doc["n1_pmf"] = [0.5, 0.2, 0.2, 0.2]
        path = tmp_path / "badpmf.json"
        path.write_text(json.dumps(doc))
        r = run_cli("compare", path)
        assert r.returncode == 64

    def test_nan_probability_rejected(self, tmp_path, capsys):
        doc = small_grid(example_scenario_document(1))
        doc["n1_pmf"] = [float("nan"), 0.0, 0.0, 1.0]
        path = tmp_path / "nanpmf.json"
        path.write_text(json.dumps(doc))  # written as the JSON token NaN
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 64
        assert "n1_pmf" in capsys.readouterr().err

    def test_fractional_grid_points_rejected(self, tmp_path, capsys):
        doc = small_grid(example_scenario_document(1))
        doc["grid"]["points"] = 100.9
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 64
        assert "grid.points" in capsys.readouterr().err

    def test_nan_u_min_names_the_grid(self, tmp_path, capsys):
        code = cli.main(["reproduce", "3", "--u-min", "nan", "--out-dir", str(tmp_path)])
        assert code == 64
        assert "grid values must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("example_id,keys,value,where", [
        (1, ("baseline", "a"), "1.2", "baseline.a"),
        (1, ("baseline", "b"), 10**400, "baseline.b"),
        (1, ("generator", "params", "theta"), "0.1", "generator.params.theta"),
        (1, ("grid", "u_min"), "0.001", "grid.u_min"),
        (1, ("n1_pmf",), [False, False, False, True], "n1_pmf"),
        (4, ("x_side", "multiple_outlier", "p"), True, "x_side.p"),
        (3, ("x_side", "alpha"), [math.inf, 1 / 3, 1 / 2, 1.0], "x_side.alpha"),
    ], ids=["string", "int_beyond_float", "string_theta", "string_grid", "bools",
            "bool_integer", "infinity"])
    def test_numbers_are_finite_json_numbers(self, tmp_path, capsys, example_id,
                                             keys, value, where):
        doc = small_grid(example_scenario_document(example_id))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))  # math.inf is written as Infinity
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 64
        assert where in capsys.readouterr().err

    def test_missing_file_exits_64(self, tmp_path):
        r = run_cli("compare", tmp_path / "nope.json")
        assert r.returncode == 64

    @pytest.mark.parametrize("key,value,where", [
        ("output", {"csv": 5}, "output.csv"),
        ("output", {"report": None}, "output.report"),
        ("output", {"svg": ""}, "output.svg"),
        ("name", 7, "name"),
    ], ids=["number", "null", "empty", "number_name"])
    def test_output_paths_and_name_are_strings(self, tmp_path, capsys, key, value, where):
        doc = small_grid(example_scenario_document(3))
        doc[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == 64
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entries,where", [
        ({"output": {"csv": "same.txt", "svg": "same.txt"}}, "output.csv and output.svg"),
        ({"output": {"report": "example3_curves.csv"}}, "output.csv and output.report"),
        ({"output": {"csv": "../escaped.csv"}}, "output.csv"),
        ({"output": {"report": "ABSOLUTE"}}, "output.report"),
        ({"name": "../escaped"}, "name gives the file '../escaped_curves.csv'"),
        ({"name": "ABSOLUTE"}, "name gives the file"),
    ], ids=["same_file", "default_name", "parent_dir", "absolute", "name_parent_dir",
            "name_absolute"])
    def test_output_entries_name_distinct_files_in_out_dir(self, tmp_path, capsys,
                                                            entries, where):
        # before, each of these exited 0: the SVG replaced the CSV, or a file
        # landed outside --out-dir
        def placed(value):
            return str(tmp_path / "abs") if value == "ABSOLUTE" else value

        doc = small_grid(example_scenario_document(3))
        doc["output"] = {k: placed(v) for k, v in entries.get("output", {}).items()}
        if "name" in entries:
            doc["name"] = placed(entries["name"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out" / "inner"
        assert cli.main(["compare", str(path), "--out-dir", str(out_dir)]) == 64
        assert where in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_simulate_outputs_name_distinct_files(self, tmp_path, capsys):
        doc = small_grid(example_scenario_document(3))
        doc["output"] = {"svg": "same.txt", "report": "same.txt"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path), "--replications", "1000",
                         "--out-dir", str(tmp_path / "out")]) == 64
        assert "output.svg and output.report" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_name_stays_in_out_dir(self, tmp_path, capsys):
        doc = small_grid(example_scenario_document(3))
        doc["name"] = "../escaped"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path), "--replications", "1000",
                         "--out-dir", str(tmp_path / "out" / "inner")]) == 64
        assert "name gives the file '../escaped_mc_curves.csv'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("key", ["theorem", "name"])
    def test_null_key_takes_its_default(self, tmp_path, key):
        # JSON null reads as an absent key, as for every other optional key
        results = []
        for case in ("absent", "null"):
            doc = small_grid(example_scenario_document(3))
            if case == "absent":
                del doc[key]
            else:
                doc[key] = None
            path = tmp_path / case / "scenario.json"
            path.parent.mkdir()
            path.write_text(json.dumps(doc))
            code = cli.main(["compare", str(path), "--out-dir", str(tmp_path / "out")])
            results.append((code, next((tmp_path / "out").glob("*_report.txt")).read_bytes()))
        assert results[0] == results[1]

    def test_deeply_nested_json_exits_64(self, tmp_path, capsys):
        # json.loads raises RecursionError here, which used to escape as a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == 64
        assert "nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_exits_64_and_names_it(self, tmp_path, capsys):
        # a second theorem tag would otherwise replace the first one silently
        text = json.dumps(small_grid(example_scenario_document(3)))
        path = tmp_path / "twice.json"
        path.write_text(text[:-1] + ', "theorem": "none"}')
        assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 64
        assert "duplicate key 'theorem'" in capsys.readouterr().err


_DELETE = object()


@pytest.mark.parametrize("example_id,keys,value,code,text", [
    (3, (), [1], 64, "scenario document must be a JSON object"),
    (3, ("baseline",), _DELETE, 64, "missing key 'baseline' in scenario"),
    (3, ("baseline",), [], 64, "baseline must be an object"),
    (3, ("baseline", "family"), "gamma", 64, "unknown baseline family 'gamma'"),
    (3, ("baseline", "a"), 0.0, 64, "baseline.a must be positive"),
    (1, ("generator",), "clayton", 64, "generator must be an object"),
    (1, ("generator", "params"), [0.1], 64, "generator.params must be an object"),
    (1, ("generator", "params"), [], 64, "generator.params must be an object"),
    (1, ("generator", "params"), 0, 64, "generator.params must be an object"),
    (1, ("generator", "name"), "gumbel", 64, "generator: unknown generator 'gumbel'"),
    (1, ("generator", "params", "theta"), 2.0, 64, "generator: exp_tilt needs 0 < theta <= 1"),
    (3, ("x_side",), [1], 64, "x_side must be an object"),
    (4, ("x_side", "multiple_outlier"), 1, 64, "x_side.multiple_outlier must be an object"),
    (4, ("x_side", "multiple_outlier", "alpha"), 2.0, 2, "[FAIL] tilt_in_unit_interval"),
    (4, ("x_side", "multiple_outlier", "p"), 10**30, 64,
     "x_side: block sizes p + q must be at most 2**53"),
    (3, ("x_side", "alpha"), 0.5, 64,
     "x_side.alpha is a scalar but the side length cannot be inferred"),
    (3, ("x_side", "alpha"), [], 64, "x_side.alpha must be a number or a non-empty number list"),
    (3, ("x_side", "lambda"), [0.5, 0.5], 64, "x_side: alpha and lambda lengths differ"),
    (1, ("x_side", "lambda"), [0.5] * 17, 64, "x_side: sample size 17 exceeds"),
    (1, ("n1_pmf",), 0.5, 64, "n1_pmf must be a list of probabilities"),
    (3, ("grid",), [1], 64, "grid must be an object"),
    (3, ("grid",), [], 64, "grid must be an object"),
    (3, ("grid",), 0, 64, "grid must be an object"),
    (3, ("output",), "out.csv", 64, "output must be an object"),
    (3, ("output",), "", 64, "output must be an object"),
    (3, ("output",), False, 64, "output must be an object"),
    (3, ("theorem",), "thm9", 64,
     "theorem must be one of ('thm1', 'thm2', 'thm3', 'thm4', 'thm5', 'none'), got 'thm9'"),
    (3, ("theorem",), "", 64, "theorem must be one of"),
    (3, ("theorem",), 0, 64, "theorem must be one of"),
    (3, ("theorem",), False, 64, "theorem must be one of"),
    (3, ("name",), False, 64, "name must be a string, got False"),
    (4, ("n1_pmf",), [0.5, 0.5], 64, "sample-size laws need marginal-list sides"),
    (3, ("n1_pmf",), [0.2] * 5, 64, "sample-size law exceeds the side's size"),
    (4, ("theorem",), "thm1", 2, "[FAIL] sides_are_marginal_lists"),
    (3, ("theorem",), "thm5", 2, "[FAIL] sides_are_two_block"),
], ids=["not_an_object", "missing_key", "baseline_list", "baseline_family",
        "nonpositive", "generator_string", "params_list", "params_empty_list",
        "params_zero", "generator_family", "bad_theta", "side_list", "two_block_number",
        "two_block_alpha", "two_block_size_beyond_float", "scalar_only_side", "empty_list",
        "length_mismatch", "beyond_max_dimension", "law_number", "grid_list",
        "grid_empty_list", "grid_zero", "output_string", "output_empty_string",
        "output_false", "theorem_tag", "theorem_empty", "theorem_zero", "theorem_false",
        "name_false", "law_on_two_block", "law_too_wide",
        "thm1_on_two_block", "thm5_on_marginal_lists"])
def test_rejected_scenarios_name_their_key(tmp_path, capsys, example_id, keys, value,
                                           code, text):
    # exit 64 names the key on stderr; a structural theorem mismatch exits 2 and
    # reports the failed condition
    doc = small_grid(example_scenario_document(example_id))
    if keys:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    else:
        doc = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    if code == 64:
        assert err.startswith("scenario error: ") and text in err
        assert not (tmp_path / "out").exists()
    else:
        assert text in out


def test_unknown_example_id_rejected():
    with pytest.raises(ScenarioError, match=r"example id must be one of \(1, 2, 3, 4\), got 5"):
        example_scenario_document(5)


def test_split_hazard_routes_print_a_warning():
    scenario = builtin_example(3, {"points": 60})
    report = DominanceReport(holds=False, min_margin=-1.0, witness_x=0.5,
                             ratio_margin=0.0, ratio_holds=True, routes_agree=False)
    text = cli._report_text(scenario, validate_theorem(scenario), {"hr": report}, 3, [])
    assert ("         WARNING: the two hazard-order routes disagree "
            "(numerical instability)\n") in text


class TestOracleCheck:
    def test_small_run_passes(self):
        r = run_cli("oracle-check", "--n", "3", "--trials", "40", "--seed", "1")
        assert r.returncode == 0
        assert "max |closed form - count oracle|" in r.stdout

    def test_sign_flip_injection_detected(self, monkeypatch, capsys):
        def sign_flipped_sf(spec, x):
            def at(x):
                G = [float(mphr_sf(m, x)) for m in spec.marginals]
                n = len(G)
                acc = sum(survival_copula_eval(spec.generator, G[:i] + G[i + 1:])
                          for i in range(n))
                return acc + (n - 1) * survival_copula_eval(spec.generator, G)

            return np.array([at(v) for v in np.atleast_1d(x)])

        monkeypatch.setattr(ordstat.orderstats, "second_order_sf_dependent",
                            sign_flipped_sf)
        code = cli.main(["oracle-check", "--n", "3", "--trials", "5", "--seed", "1"])
        assert code == 3
        assert "VIOLATION" in capsys.readouterr().out

    def test_n_limit(self):
        r = run_cli("oracle-check", "--n", "15", "--trials", "1")
        assert r.returncode == 64

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_must_be_positive(self, capsys, trials):
        assert cli.main(["oracle-check", "--trials", trials]) == 64
        assert "--trials" in capsys.readouterr().err

    def test_negative_seed_is_a_configuration_error(self, capsys):
        assert cli.main(["oracle-check", "--seed", "-1", "--trials", "1"]) == 64
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_grid_and_output_options_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle-check", "--out-dir", "x"])
        assert exc.value.code == 2


class TestSimulate:
    def test_independent_scenario_concordance(self, tmp_path):
        doc = small_grid(example_scenario_document(3))
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        r = run_cli("simulate", path, "--replications", "20000", "--seed", "5",
                    "--out-dir", tmp_path)
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "example3_mc_curves.csv")
        sources = {row["source"] for row in rows}
        assert sources == {"analytic", "mc"}
        assert (tmp_path / "example3_mc_plot.svg").exists()

    def test_coupled_scenario_rejected(self, tmp_path):
        doc = small_grid(example_scenario_document(1))
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(doc))
        r = run_cli("simulate", path, "--replications", "1000")
        assert r.returncode == 2


class TestSvg:
    def test_svg_is_pure_function_of_csv(self, tmp_path):
        r = run_cli("reproduce", "3", "--out-dir", tmp_path, "--grid-points", "100")
        assert r.returncode == 0
        csv_text = (tmp_path / "example3_curves.csv").read_text()
        svg_file = (tmp_path / "example3_plot.svg").read_text()
        assert render_csv_plot(csv_text) == svg_file
        assert render_csv_plot(csv_text) == render_csv_plot(csv_text)
        assert "hazard rate functions" in svg_file

    def test_deterministic_csv_across_runs(self, tmp_path):
        r1 = run_cli("reproduce", "2", "--out-dir", tmp_path / "r1",
                     "--grid-points", "100")
        r2 = run_cli("reproduce", "2", "--out-dir", tmp_path / "r2",
                     "--grid-points", "100")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "r1" / "example2_curves.csv").read_bytes() == \
               (tmp_path / "r2" / "example2_curves.csv").read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        r = run_cli("reproduce", "1", "--out-dir", tmp_path, "--grid-points", "80")
        assert r.returncode == 0
        rows = read_rows(tmp_path / "example1_curves.csv")
        row = rows[0]
        # a float64 round-trips exactly through the printed representation
        assert float(row["sf_X"]) == float(f"{float(row['sf_X']):.17g}")
        assert len(row["sf_X"].replace(".", "").replace("-", "").lstrip("0")) >= 15
