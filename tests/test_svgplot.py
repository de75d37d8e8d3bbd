"""Golden bytes of the SVG renderer.

Each digest is the SHA-256 of ``render_csv_plot`` on one CSV.  They pin
every byte of the picture: any change in parsing, scaling or number
formatting shows here.  The plots the CLI writes, which it draws from its
curve arrays, must carry the same digests.  A point is drawn only where its
value and its x are finite, so a ``nan`` cell draws what an empty one does
and no SVG holds a ``nan`` or ``inf`` token.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from ordstat import Grid, cli
from ordstat.scenarios import example_scenario_document
from ordstat.svgplot import render_csv_plot, render_curve_plot

HEADER = "u,x,sf_X,sf_Y,hr_X,hr_Y,source\n"

INLINE_CSVS = {
    # survival-only: every hazard cell empty, so there is one panel
    "survival_only": HEADER
    + "0.001,6.9077552789821368,0.0012,0.00031,,,analytic\n"
      "0.25,1.3862943611198906,0.61,0.43,,,analytic\n"
      "0.5,0.69314718055994529,0.83,0.72,,,analytic\n"
      "1,0,1,1,,,analytic\n",
    # one row: a zero-width x range and a zero-height y range
    "one_row": HEADER + "1,0,1,1,,,analytic\n",
    # a nan survival cell after finite ones
    "nan_cell": HEADER
    + "0.25,1.3862943611198906,0.5,nan,,,analytic\n"
      "0.5,0.69314718055994529,0.75,0.6,,,analytic\n"
      "1,0,1,1,,,analytic\n",
    # a nan first met in row order: sf_Y of row 1 comes before sf_X of row 2
    "nan_first_in_row_order": HEADER
    + "0.25,1.3862943611198906,,nan,,,analytic\n"
      "0.5,0.69314718055994529,0.75,0.6,0.2,0.3,analytic\n"
      "1,0,1,1,,,analytic\n",
}

GOLDEN = {
    "reproduce1": "89600aa19f89071254eb3645217d77e2a8d40f810ace7c65980504bacfe1404f",
    "reproduce2": "542c8d70ec3fde2f2819379a37d2fd4796172571fa3392ac36164ac0230aafe7",
    "reproduce3": "80733432ac35894d9cfa4704d59206ab797a7152e099d4194460de5f4420f99e",
    "reproduce4": "3db7bac1dc832a462a81c2e5f38f7c1e71161968a1e2815bb018165554eff32e",
    "simulate": "24d755c6918ec9c3c9dccce8c38f2659177eac386a19348b17ea5d5b182c9582",
    "survival_only": "9f04e8ad9b49056711db01691c9fe67278040d96e291085a4675dcdf7bd589bf",
    "one_row": "640232ccd50d385a255caa018470e05e1dca58ef256cb5011089715529373227",
    "nan_cell": "a59398b4badc4d47fce780ade3b44c0b7575a8e0fa7372b818503b9bceeb5894",
    "nan_first_in_row_order": "89e56108cfe1d9b00f5c2a6b498b9d110e01b13f92b295d5ca2f03d2bcadad29",
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Curve CSVs and SVG plots of ``reproduce 1..4`` and of ``simulate``
    (analytic rows, then mc rows), all on the default grid."""
    out = tmp_path_factory.mktemp("cli")
    stems = {}
    for k in (1, 2, 3, 4):
        cli.main(["reproduce", str(k), "--out-dir", str(out)])
        stems[f"reproduce{k}"] = f"example{k}"
    doc = out / "example3.json"
    doc.write_text(json.dumps(example_scenario_document(3)))
    assert cli.main(["simulate", str(doc), "--replications", "20000",
                     "--seed", "5", "--out-dir", str(out)]) == 0
    stems["simulate"] = "example3_mc"
    return {name: ((out / f"{stem}_curves.csv").read_text(),
                   (out / f"{stem}_plot.svg").read_text()) for name, stem in stems.items()}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, cli_files):
    csv_text = INLINE_CSVS.get(name) or cli_files[name][0]
    assert sha256(render_csv_plot(csv_text)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - set(INLINE_CSVS)))
def test_cli_plot_files_are_golden(name, cli_files):
    assert sha256(cli_files[name][1]) == GOLDEN[name]


def assert_no_non_finite_token(svg: str) -> None:
    assert not re.findall(r"\b(?:nan|inf)\b", svg, flags=re.IGNORECASE)


@pytest.mark.parametrize("name", ["nan_cell", "nan_first_in_row_order"])
def test_nan_cell_draws_as_an_empty_cell(name):
    csv_text = INLINE_CSVS[name]
    assert render_csv_plot(csv_text) == render_csv_plot(csv_text.replace("nan", ""))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_plots_hold_no_non_finite_token(name, cli_files):
    assert_no_non_finite_token(render_csv_plot(INLINE_CSVS.get(name) or cli_files[name][0]))


def _synthetic_blocks(case: str, grid: Grid) -> list:
    rng = np.random.default_rng(7)
    n, m = grid.u.size, grid.positive_x.size

    def curve(size):
        return np.sort(rng.uniform(0.0, 1.0, size))

    if case == "nan_survival":
        sf_y = curve(n)
        sf_y[[0, 17]] = np.nan
        return [("analytic", curve(n), sf_y, None, None)]
    if case == "nonfinite_hazards":
        hr_x, hr_y = curve(m) * 3.0, curve(m) * 4.0
        hr_x[[0, 1, 9]] = [np.inf, np.nan, -np.inf]
        hr_y[:5] = np.nan
        return [("analytic", curve(n), curve(n), hr_x, hr_y)]
    if case == "hazards_one_short":
        return [("analytic", curve(n), curve(n), curve(n - 1), curve(n - 1))]
    if case == "two_sources":
        # the NaN that a panel's min/max meets first depends on series order
        sf_y = curve(n)
        sf_y[0] = np.nan
        return [("analytic", None, sf_y, None, None), ("mc", curve(n), None, None, None)]
    # an all-NaN hazard column draws nothing; its panel keeps the other one
    return [("analytic", curve(n), curve(n), np.full(m, np.nan), curve(m))]


@pytest.mark.parametrize("case", ["nan_survival", "nonfinite_hazards", "hazards_one_short",
                                  "two_sources", "all_nan_hazard_column"])
def test_curve_plot_equals_plot_of_written_csv(case):
    grid = Grid.default(points=60, u_min=1e-5)
    blocks = _synthetic_blocks(case, grid)
    assert render_curve_plot(grid.x, blocks) == render_csv_plot(cli._csv_text(grid, blocks))


@pytest.mark.parametrize("csv_text", ["", HEADER, "u,x\n0.5,0.69314718055994529\n1,0\n"],
                         ids=["empty", "header_only", "u_x_only"])
def test_no_curve_columns_is_value_error(csv_text):
    with pytest.raises(ValueError, match="no drawable curve columns"):
        render_csv_plot(csv_text)


@pytest.mark.parametrize("rows", ["1,0,1,1,,\n0.5,0.69314718055994529,0.8,0.7,,,mc\n",
                                  "1,0,1,1,,\n0.5,0.69314718055994529,0.8,0.7,,\n"],
                         ids=["one_short_row", "all_rows_short"])
def test_row_width_differs_from_header_is_value_error(rows):
    # a missing field would shift or drop the source column
    with pytest.raises(ValueError):
        render_csv_plot(HEADER + rows)


def _random_blocks(rng, grid: Grid) -> list:
    n, m = grid.u.size, grid.positive_x.size

    def survival():
        if rng.random() < 0.15:
            return None
        v = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        if rng.random() < 0.4:
            v[rng.integers(0, n, rng.integers(1, 4))] = np.nan
        if rng.random() < 0.15:
            v[0] = np.nan
        return v

    def hazard():
        if rng.random() < 0.2:
            return None
        size = m - 1 if rng.random() < 0.3 else m
        v = rng.uniform(0.0, 5.0, size)
        k = rng.integers(0, 6)
        v[rng.integers(0, size, k)] = rng.choice([np.inf, -np.inf, np.nan], k)
        return v

    sources = ("analytic", "mc")[: rng.integers(1, 3)]
    return [(src, survival(), survival(), hazard(), hazard()) for src in sources]


def test_curve_plot_equals_plot_of_written_csv_on_random_blocks():
    rng = np.random.default_rng(2024)
    drawn = 0
    for _ in range(200):
        grid = Grid.default(points=int(rng.integers(50, 91)), u_min=1e-5)
        blocks = _random_blocks(rng, grid)
        if all(c is None for block in blocks for c in block[1:]):
            continue
        assert render_curve_plot(grid.x, blocks) == render_csv_plot(cli._csv_text(grid, blocks))
        drawn += 1
    assert drawn > 190


def test_random_block_plots_hold_no_non_finite_token():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        grid = Grid.default(points=int(rng.integers(50, 91)), u_min=1e-5)
        blocks = _random_blocks(rng, grid)
        if all(c is None for block in blocks for c in block[1:]):
            continue
        assert_no_non_finite_token(render_curve_plot(grid.x, blocks))
        assert_no_non_finite_token(render_csv_plot(cli._csv_text(grid, blocks)))
