"""Tabular dataset access for the evaluation harness.

The injection experiments run on the public Adult census dataset when given
the path of a copy (``eval --data PATH``), and otherwise, with the source
"surrogate" (the default), on :func:`census_sample`, a deterministic
synthetic stand-in with the same column names, comparable cardinalities and
scale, and a learnable income concept, so the full experiment protocol
exercises identical code paths at identical sizes. Results on the stand-in
are clearly labeled; they are not measurements on the real Adult data. The
program reads no environment variable: the acceptance tests read an Adult
copy's path from DRIFTSCOPE_ADULT themselves and pass it on.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .catalog import MISSING_VALUES, Column, ColumnData, _columns_of_rows, _open_data, read_columns

__all__ = ["load_adult", "census_sample", "resolve_tabular", "ADULT_COLUMNS"]

ADULT_COLUMNS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education_num",
    "marital_status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours_per_week",
    "native_country",
)

_LABEL_COLUMNS = frozenset({"income", "class", "label", "y", "target", "salary"})


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _record(line: str) -> list[str]:
    """The fields of one CSV line; a quote left open ends with the line."""
    return next(csv.reader((line,)))


def load_adult(path: str | Path) -> ColumnData:
    """Load the Adult dataset from a CSV file (with or without a header).

    Handles the classic ``adult.data`` layout (no header; each line one CSV
    record of 15 fields, quoted or not; lines of another width are skipped) as
    well as headered exports. A file has a header when the first field of its
    first line is neither a number nor a
    missing-value token, as the age column of ``adult.data`` always is.
    Hyphens in column names are normalized to underscores and the income
    column becomes the label ``y`` (1 for >50K). ``?`` entries are missing.
    """
    path = Path(path)
    with _open_data(path) as fh:
        first = fh.readline().strip()
    first_field = next(iter(_record(first)), "").strip()
    has_header = not (first.startswith("|") or first_field in MISSING_VALUES or _is_number(first_field))

    def norm_label(v) -> int:
        v = str(v).strip().rstrip(".")
        if v in (">50K", "1"):
            return 1
        if v in ("<=50K", "0"):
            return 0
        raise ValueError(f"unrecognized income label {v!r}")

    def labels(column: Column) -> np.ndarray:
        return np.array([norm_label(v) for v in column.values], dtype=np.int64)[column.codes]

    if has_header:
        columns: dict = {}
        label = None
        for name, values in read_columns(path).items():
            key = str(name).strip().lower().replace("-", "_")
            if key in _LABEL_COLUMNS:
                label = values
            else:
                columns[key] = values
        if label is None:
            raise ValueError("no income/label column found in header")
    else:
        width = len(ADULT_COLUMNS) + 1
        with _open_data(path) as fh:
            lines = (line for line in map(str.strip, fh) if line and not line.startswith("|"))
            *attributes, label = _columns_of_rows((row for row in map(_record, lines) if len(row) == width), width)
        columns = dict(zip(ADULT_COLUMNS, attributes))
    if not len(label):
        raise ValueError(f"no data rows parsed from {path}")
    return ColumnData.from_columns(columns, y=labels(label))


# Value tables for the synthetic census sample: (value, sampling weight).
_WORKCLASS = (
    ("Private", 0.70), ("Self-emp-not-inc", 0.08), ("Local-gov", 0.064),
    ("?", 0.056), ("State-gov", 0.040), ("Self-emp-inc", 0.034),
    ("Federal-gov", 0.029), ("Without-pay", 0.004),
)
_EDUCATION = (
    ("HS-grad", 0.322), ("Some-college", 0.223), ("Bachelors", 0.164),
    ("Masters", 0.054), ("Assoc-voc", 0.042), ("11th", 0.037),
    ("Assoc-acdm", 0.033), ("10th", 0.028), ("7th-8th", 0.020),
    ("Prof-school", 0.018), ("9th", 0.016), ("12th", 0.013),
    ("Doctorate", 0.012), ("5th-6th", 0.010), ("1st-4th", 0.005),
    ("Preschool", 0.002),
)
_EDU_NUM = {
    "Preschool": 1, "1st-4th": 2, "5th-6th": 3, "7th-8th": 4, "9th": 5,
    "10th": 6, "11th": 7, "12th": 8, "HS-grad": 9, "Some-college": 10,
    "Assoc-voc": 11, "Assoc-acdm": 12, "Bachelors": 13, "Masters": 14,
    "Prof-school": 15, "Doctorate": 16,
}
_MARITAL = (
    ("Married-civ-spouse", 0.46), ("Never-married", 0.33), ("Divorced", 0.136),
    ("Separated", 0.031), ("Widowed", 0.030), ("Married-spouse-absent", 0.012),
    ("Married-AF-spouse", 0.001),
)
_OCCUPATION = (
    ("Prof-specialty", 0.126), ("Craft-repair", 0.125), ("Exec-managerial", 0.124),
    ("Adm-clerical", 0.115), ("Sales", 0.112), ("Other-service", 0.101),
    ("Machine-op-inspct", 0.061), ("?", 0.057), ("Transport-moving", 0.048),
    ("Handlers-cleaners", 0.042), ("Farming-fishing", 0.030),
    ("Tech-support", 0.029), ("Protective-serv", 0.020), ("Priv-house-serv", 0.010),
)
_OCC_EFFECT = {
    "Exec-managerial": 0.95, "Prof-specialty": 0.85, "Protective-serv": 0.35,
    "Tech-support": 0.35, "Sales": 0.20, "Craft-repair": 0.0,
    "Transport-moving": -0.10, "Adm-clerical": -0.20, "Machine-op-inspct": -0.35,
    "?": -0.40, "Farming-fishing": -0.60, "Handlers-cleaners": -0.75,
    "Other-service": -0.95, "Priv-house-serv": -1.60,
}
_RELATIONSHIP = (
    ("Husband", 0.40), ("Not-in-family", 0.26), ("Own-child", 0.15),
    ("Unmarried", 0.11), ("Wife", 0.05), ("Other-relative", 0.03),
)
_RACE = (
    ("White", 0.855), ("Black", 0.096), ("Asian-Pac-Islander", 0.031),
    ("Amer-Indian-Eskimo", 0.010), ("Other", 0.008),
)
_COUNTRY = (
    ("United-States", 0.897), ("Mexico", 0.020), ("?", 0.018),
    ("Philippines", 0.006), ("Germany", 0.004), ("Canada", 0.004),
    ("Puerto-Rico", 0.004), ("El-Salvador", 0.003), ("India", 0.003),
    ("Cuba", 0.003), ("England", 0.003), ("China", 0.003),
    ("Jamaica", 0.002), ("South", 0.002), ("Italy", 0.002),
    ("Dominican-Republic", 0.002), ("Japan", 0.002), ("Guatemala", 0.002),
    ("Poland", 0.002), ("Vietnam", 0.002), ("Columbia", 0.002),
    ("Haiti", 0.002), ("Portugal", 0.002), ("Taiwan", 0.002),
    ("Iran", 0.002), ("Greece", 0.002), ("Nicaragua", 0.002),
    ("Peru", 0.002), ("Ecuador", 0.002), ("France", 0.002),
)


def _choice(rng: np.random.Generator, table, n: int) -> np.ndarray:
    values = np.array([v for v, _ in table], dtype=object)
    w = np.array([p for _, p in table], dtype=np.float64)
    return values[rng.choice(len(values), size=n, p=w / w.sum())]


def census_sample(n: int = 48842, seed: int = 0) -> list[dict]:
    """Deterministic census-like tabular sample with a learnable income label.

    Fourteen metadata columns mirroring the Adult schema. The binary label
    follows a noisy monotone concept in education, age, hours, sex, marital
    status, occupation, and capital gains, giving tree models a realistic
    accuracy ceiling (low 0.8s) and subgroup structure to monitor.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x43454E53, seed]))

    age = np.clip(17 + rng.gamma(2.2, 10.0, n), 17, 90).astype(np.int64)
    workclass = _choice(rng, _WORKCLASS, n)
    fnlwgt = np.clip(rng.lognormal(12.0, 0.46, n), 1.3e4, 1.5e6).astype(np.int64)
    education = _choice(rng, _EDUCATION, n)
    edu_num = np.array([_EDU_NUM[e] for e in education], dtype=np.int64)
    marital = _choice(rng, _MARITAL, n)
    # younger people skew unmarried; rough age coupling
    young = age < 28
    swap = young & (rng.random(n) < 0.55)
    marital = marital.copy()
    marital[swap] = "Never-married"
    occupation = _choice(rng, _OCCUPATION, n)
    sex = np.where(rng.random(n) < 0.669, "Male", "Female").astype(object)
    married = marital == "Married-civ-spouse"
    relationship = _choice(rng, _RELATIONSHIP, n)
    relationship = np.where(
        married, np.where(sex == "Male", "Husband", "Wife"), relationship
    ).astype(object)
    race = _choice(rng, _RACE, n)
    has_gain = rng.random(n) < 0.083
    capital_gain = np.where(has_gain, np.clip(rng.lognormal(8.6, 1.1, n), 100, 99999), 0.0)
    capital_gain = capital_gain.astype(np.int64)
    has_loss = rng.random(n) < 0.047
    capital_loss = np.where(has_loss, np.clip(rng.normal(1900, 350, n), 100, 4356), 0.0)
    capital_loss = capital_loss.astype(np.int64)
    hours = np.clip(rng.normal(40.4, 12.3, n), 1, 99).astype(np.int64)
    country = _choice(rng, _COUNTRY, n)

    occ_eff = np.array([_OCC_EFFECT[o] for o in occupation])
    z = (
        -4.0
        + 0.09 * (age - 38)
        - 0.0019 * (age - 38) ** 2
        + 0.72 * (edu_num - 9.5)
        + 0.055 * (hours - 40)
        + 1.9 * married
        + 0.7 * (sex == "Male")
        + 1.6 * occ_eff
        + 4.2 * (capital_gain > 5000)
        + 1.3 * (capital_loss > 1500)
        + 0.55 * (workclass == "Self-emp-inc")
        + 0.4 * (workclass == "Federal-gov")
    )
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)

    columns = (
        age, workclass, fnlwgt, education, edu_num, marital, occupation, relationship,
        race, sex, capital_gain, capital_loss, hours, country, y,
    )
    keys = (*ADULT_COLUMNS, "y")
    return [dict(zip(keys, values)) for values in zip(*(c.tolist() for c in columns))]


def resolve_tabular(source: str = "surrogate", n: int = 48842, seed: int = 0) -> tuple[ColumnData, str]:
    """Resolve an injection-suite dataset.

    ``source`` is a file path, or "surrogate" for ``census_sample(n, seed)``.
    Returns (table, name) where name identifies what was actually loaded: a
    file by its name, not its path, so that results do not depend on where
    the file lies.
    """
    if source != "surrogate":
        return load_adult(source), f"adult:{Path(source).name}"
    return ColumnData(census_sample(n=n, seed=seed)), "census-surrogate"
