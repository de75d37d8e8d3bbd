"""Golden bytes of the SVG renderer.

Each digest is the SHA-256 of ``render_csv_plot`` on one CSV, recorded from
the row-by-row ``csv.DictReader`` renderer that the column-parsing one
replaced.  They pin every byte of the picture: any change in parsing,
series order, scaling or number formatting shows here.
"""

import hashlib
import json

import pytest

from ordstat import cli
from ordstat.scenarios import example_scenario_document
from ordstat.svgplot import render_csv_plot

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
    "nan_cell": "372bec8f9840e557591dd89ecad32b76e21b67fa94baba2e6085a0aa86f25967",
    "nan_first_in_row_order": "3fd6d12f6f1fef46c6c03f094d172d2bfcd91d5e99d61690c3dfe58ae537b792",
}


@pytest.fixture(scope="module")
def cli_csvs(tmp_path_factory):
    """Curve CSVs of ``reproduce 1..4`` and of ``simulate`` (analytic rows,
    then mc rows), all on the default grid."""
    out = tmp_path_factory.mktemp("cli")
    texts = {}
    for k in (1, 2, 3, 4):
        cli.main(["reproduce", str(k), "--out-dir", str(out)])
        texts[f"reproduce{k}"] = (out / f"example{k}_curves.csv").read_text()
    doc = out / "example3.json"
    doc.write_text(json.dumps(example_scenario_document(3)))
    assert cli.main(["simulate", str(doc), "--replications", "20000",
                     "--seed", "5", "--out-dir", str(out)]) == 0
    texts["simulate"] = (out / "example3_mc_curves.csv").read_text()
    return texts


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, cli_csvs):
    csv_text = INLINE_CSVS.get(name) or cli_csvs[name]
    svg = render_csv_plot(csv_text)
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN[name]


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
