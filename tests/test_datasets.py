import numpy as np
import pytest

import rowpath
from driftscope import catalog
from driftscope.datasets import ADULT_COLUMNS, census_sample, load_adult, resolve_tabular


def test_census_sample_shape_and_columns():
    rows = census_sample(n=500, seed=1)
    assert len(rows) == 500
    assert set(rows[0]) == set(ADULT_COLUMNS) | {"y"}
    assert all(r["y"] in (0, 1) for r in rows)


def test_census_sample_deterministic():
    a = census_sample(n=300, seed=7)
    b = census_sample(n=300, seed=7)
    assert a == b
    c = census_sample(n=300, seed=8)
    assert a != c


def test_census_sample_label_rate_realistic():
    rows = census_sample(n=20000, seed=0)
    rate = np.mean([r["y"] for r in rows])
    assert 0.10 < rate < 0.35


def test_census_sample_is_learnable():
    from driftscope.catalog import ColumnData
    from driftscope.streams import fit_tree

    rows = census_sample(n=8000, seed=3)
    cols = ColumnData(rows)
    X = cols.feature_matrix()
    model = fit_tree(X[:4000], cols.y[:4000], max_depth=8)
    acc = (model.predict(X[4000:]) == cols.y[4000:]).mean()
    base = max(cols.y[4000:].mean(), 1 - cols.y[4000:].mean())
    assert acc > base + 0.03  # clearly better than majority class


def test_load_adult_headerless_format(tmp_path):
    lines = [
        "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
        " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
        "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
        " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K.",
    ]
    p = tmp_path / "adult.data"
    p.write_text("\n".join(lines) + "\n")
    cols = load_adult(p)
    assert cols.n == 2
    rows = cols.records([0, 1])
    assert rows[0]["age"] == 39.0
    assert rows[0]["workclass"] == "State-gov"
    assert rows[0]["y"] == 0
    assert rows[1]["y"] == 1


_TAIL = ",83311,Bachelors,13,Married-civ-spouse,Exec-managerial,Husband,White,Male,0,0,13,United-States,>50K"


@pytest.mark.parametrize(
    "text, ages, workclasses",
    [
        # a quoted field holds a comma
        (f'50,Self-emp-inc{_TAIL}\n39,"Self-emp, inc"{_TAIL}\n', [50, 39], ["Self-emp-inc", "Self-emp, inc"]),
        # the header sniff reads the first line as a CSV record, as the rows are read
        (f'"39",Self-emp-inc{_TAIL}\n50,Private{_TAIL}\n', [39, 50], ["Self-emp-inc", "Private"]),
        # each line is one record: an open quote does not take in the lines after it
        (
            f'50,Private{_TAIL}\n39,"Self-emp, inc{_TAIL}\n40,Local-gov{_TAIL}\n41,State-gov{_TAIL}\n',
            [50, 40, 41],
            ["Private", "Local-gov", "State-gov"],
        ),
    ],
    ids=["quoted-comma", "quoted-first-field", "unclosed-quote"],
)
def test_load_adult_headerless_reads_each_line_as_a_csv_record(tmp_path, text, ages, workclasses):
    p = tmp_path / "adult.data"
    p.write_text(text)
    cols = load_adult(p)
    assert [(r["age"], r["workclass"]) for r in cols.records(range(cols.n))] == list(zip(ages, workclasses))


def test_load_adult_headered_format(tmp_path):
    p = tmp_path / "adult.csv"
    p.write_text(
        "age,workclass,income\n40,Private,>50K\n30,?, <=50K\n"
    )
    rows = load_adult(p).records([0, 1])
    assert rows[0] == {"age": 40.0, "workclass": "Private", "y": 1}
    assert rows[1] == {"age": 30.0, "workclass": None, "y": 0}


def test_resolve_tabular_defaults_to_the_surrogate():
    cols, name = resolve_tabular(n=100, seed=0)
    assert name == "census-surrogate"
    assert cols.n == 100

    cols, name = resolve_tabular("surrogate", n=50, seed=0)
    assert name == "census-surrogate"
    assert cols.n == 50


def test_resolve_tabular_names_a_file_by_its_name(tmp_path):
    p = tmp_path / "deep" / "adult.csv"
    p.parent.mkdir()
    p.write_text("age,workclass,income\n40,Private,>50K\n")
    assert resolve_tabular(str(p))[1] == "adult:adult.csv"


def test_load_adult_bad_label(tmp_path):
    p = tmp_path / "adult.csv"
    p.write_text("age,income\n40,maybe\n")
    with pytest.raises(ValueError, match="income label"):
        load_adult(p)


_ADULT_LINES = [
    "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
    " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K.",
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
    "",
    "38, Private, 215646, HS-grad, 9, Divorced, ?, Not-in-family,"
    " White, Female, 0, 0, 40, ?, <=50K.",
    "| a comment line",
    "53, Private, 234721, 11th, 7, Married-civ-spouse",  # wrong width: skipped
    "28,Private,338409,Bachelors,13,Married-civ-spouse,Prof-specialty,"
    "Wife,Black,Female,0,0,40,Cuba,>50K",
]


def test_load_adult_header_detection_ignores_age_inside_a_value(tmp_path):
    # "Exec-managerial" contains "age"; the first field 50 says: no header
    p = tmp_path / "adult.data"
    p.write_text("\n".join(_ADULT_LINES) + "\n")
    cols = load_adult(p)
    assert cols.n == 4
    assert cols.attrs == list(ADULT_COLUMNS)
    assert cols.y.tolist() == [1, 0, 0, 1]
    assert cols.records([0])[0]["occupation"] == "Exec-managerial"


def _adult_text(layout):
    if layout == "adult.data":
        # the first line keeps "age" out, so the row path's header test agrees
        return "\n".join(_ADULT_LINES[1:]) + "\n"
    if layout == "adult.test":
        return "|1x3 Cross validator\n" + "\n".join(_ADULT_LINES[1:]) + "\n"
    names = [c.replace("_", "-") if layout == "dashed.csv" else c for c in ADULT_COLUMNS]
    body = [line for line in _ADULT_LINES if line.count(",") == len(ADULT_COLUMNS)]
    return ",".join([*names, "Income"]) + "\n" + "\n".join(body) + "\n"


_ADULT_LAYOUTS = ["adult.data", "adult.test", "headered.csv", "dashed.csv"]


@pytest.mark.parametrize("layout", _ADULT_LAYOUTS)
def test_load_adult_matches_the_row_path(tmp_path, layout):
    p = tmp_path / layout
    p.write_text(_adult_text(layout))
    rowpath.assert_same_table(load_adult(p), rowpath.column_data(rowpath.load_adult(p)))


@pytest.mark.parametrize("layout", _ADULT_LAYOUTS)
def test_load_adult_in_blocks_of_3_rows_matches_the_row_path(tmp_path, monkeypatch, layout):
    monkeypatch.setattr(catalog, "BLOCK", 3)
    p = tmp_path / layout
    p.write_text(_adult_text(layout))
    rowpath.assert_same_table(load_adult(p), rowpath.column_data(rowpath.load_adult(p)))


def test_load_adult_errors(tmp_path):
    p = tmp_path / "adult.csv"
    p.write_text("age,workclass\n40,Private\n")
    with pytest.raises(ValueError, match="no income/label column found in header"):
        load_adult(p)
    p.write_text("age,workclass,income\n")
    with pytest.raises(ValueError, match="no data rows parsed"):
        load_adult(p)
    p.write_text("| only a comment\n")
    with pytest.raises(ValueError, match="no data rows parsed"):
        load_adult(p)


@pytest.mark.parametrize("layout", _ADULT_LAYOUTS)
def test_load_adult_reads_past_a_byte_order_mark(tmp_path, layout):
    """A UTF-8 BOM is not data: a headerless file stays headerless, and a
    header's first name is the column's."""
    plain, marked = tmp_path / f"plain.{layout}", tmp_path / f"marked.{layout}"
    plain.write_text(_adult_text(layout), encoding="utf-8")
    marked.write_text(_adult_text(layout), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    rowpath.assert_same_table(load_adult(marked), load_adult(plain))
