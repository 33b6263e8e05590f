"""CSV loading, seeded attribute sub-sampling, and the standard-library-only
runtime."""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import ontoshape
from conftest import DATA_2, make_dataset2
from ontoshape.bench import key_attributes
from ontoshape.errors import DatasetError
from ontoshape.syndata import SynthConfig, generate_synthetic
from ontoshape.tabular import (
    Dataset,
    Table,
    list_attributes,
    load_dataset,
    load_table,
    subsample_attributes,
)

def _write_data2(tmp_path):
    (tmp_path / "welding_operation.csv").write_text(DATA_2, encoding="utf-8")
    return tmp_path


def test_load_dataset_fixture(tmp_path):
    d = load_dataset(_write_data2(tmp_path), "welding_operation")
    assert set(d.tables) == {"welding_operation"}
    t = d.main
    assert t.attributes == ["operation_id", "program_id", "current_mean", "current_array"]
    assert len(t.rows) == 2
    assert t.rows[0]["operation_id"] == "op1"


def test_quoted_cells_preserved(tmp_path):
    d = load_dataset(_write_data2(tmp_path), "welding_operation")
    # the quoted list must come back exactly, comma included
    assert d.main.rows[0]["current_array"] == "[1,2]"
    assert d.main.rows[1]["current_array"] == "[3,4]"


def test_leading_bom_is_ignored(tmp_path):
    plain = load_table(_write_data2(tmp_path) / "welding_operation.csv")
    path = tmp_path / "bom" / "welding_operation.csv"
    path.parent.mkdir()
    path.write_bytes(b"\xef\xbb\xbf" + DATA_2.encode("utf-8"))
    t = load_table(path)
    assert t.attributes == plain.attributes == ["operation_id", "program_id", "current_mean", "current_array"]
    assert t.rows == plain.rows


def test_missing_main_table(tmp_path):
    _write_data2(tmp_path)
    with pytest.raises(DatasetError, match="main table not found: sensors"):
        load_dataset(tmp_path, "sensors")


def test_missing_data_directory_names_its_path(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(FileNotFoundError, match="nowhere"):
        load_dataset(missing, "welding_operation")


def test_data_directory_without_tables(tmp_path):
    (tmp_path / "notes.txt").write_text("x\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"no <table>\.csv files in"):
        load_dataset(tmp_path, "welding_operation")


def test_ragged_row_reports_row_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"row 3: expected 4 cells, got 3"):
        load_table(path)


@pytest.mark.parametrize(
    "text, message",
    [
        # the open quote would otherwise take in row 3 as part of one cell
        ('id,v\n1,"a\n2,b\n', "row 2: malformed CSV: unexpected end of data"),
        # a character after the closing quote would otherwise be glued on
        ('id,v\n1,"a"b\n2,c\n', "row 2: malformed CSV: ',' expected after '\"'"),
        ('id,"v\n', "row 1: malformed CSV: unexpected end of data"),
        # rows, not file lines: the cell spanning lines 2-3 keeps the next record row 3
        ('id,v\n1,"a\nb"\n2,"c\n', "row 3: malformed CSV: unexpected end of data"),
    ],
    ids=["unterminated", "after-closing-quote", "unterminated-header", "after-multiline-cell"],
)
def test_malformed_quoting_names_its_row(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError, match=re.escape(f"t.csv {message}")):
        load_table(path)


def test_duplicate_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate header"):
        load_table(path)


def test_empty_header_name_reports_its_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,,v\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"^t\.csv: empty header name in column 2$"):
        load_table(path)


def test_empty_file_is_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    t = load_table(path)
    assert t.name == "empty"
    assert t.attributes == []
    assert t.rows == []


def test_list_attributes_fixture():
    d = make_dataset2()
    assert list_attributes(d) == [
        ("welding_operation", "operation_id"),
        ("welding_operation", "program_id"),
        ("welding_operation", "current_mean"),
        ("welding_operation", "current_array"),
    ]


def test_list_attributes_empty():
    d = Dataset({"m": Table("m", [], [])}, "m")
    assert list_attributes(d) == []


def test_list_attributes_orders_by_table_name():
    d = Dataset(
        {
            "zeta": Table("zeta", ["x"], []),
            "alpha": Table("alpha", ["y", "z"], []),
        },
        "alpha",
    )
    assert list_attributes(d) == [("alpha", "y"), ("alpha", "z"), ("zeta", "x")]


def test_subsample_is_deterministic():
    d = make_dataset2()
    a = subsample_attributes(d, 2, {"operation_id"}, seed=7)
    b = subsample_attributes(d, 2, {"operation_id"}, seed=7)
    assert a.main.attributes == b.main.attributes
    assert a.main.rows == b.main.rows


def test_subsample_counts_and_retained():
    d = make_dataset2()
    out = subsample_attributes(d, 2, {"operation_id"}, seed=7)
    attrs = out.main.attributes
    assert "operation_id" in attrs
    assert len(attrs) == 3  # retained + k sampled
    assert set(attrs) <= set(d.main.attributes)
    # rows carry exactly the kept attributes
    assert all(set(row) == set(attrs) for row in out.main.rows)


def test_subsample_preserves_attribute_order():
    d = make_dataset2()
    out = subsample_attributes(d, 3, {"operation_id"}, seed=3)
    original = d.main.attributes
    assert out.main.attributes == [a for a in original if a in set(out.main.attributes)]


def test_subsample_k_zero_keeps_only_retained():
    d = make_dataset2()
    out = subsample_attributes(d, 0, {"operation_id"}, seed=1)
    assert out.main.attributes == ["operation_id"]


def test_subsample_all_candidates_is_identity():
    d = make_dataset2()
    out = subsample_attributes(d, 3, {"operation_id"}, seed=5)
    assert out.main.attributes == d.main.attributes
    assert out.main.rows == d.main.rows


def test_subsample_k_too_large():
    d = make_dataset2()
    with pytest.raises(ValueError, match="k too large"):
        subsample_attributes(d, 4, {"operation_id"}, seed=1)


def test_subsample_leaves_other_tables_alone():
    d = make_dataset2()
    d.tables["extra"] = Table("extra", ["a"], [{"a": "1"}])
    out = subsample_attributes(d, 1, {"operation_id"}, seed=2)
    assert out.tables["extra"] is d.tables["extra"]


def test_subsample_seeds_differ():
    # with 3 candidates and k=1 two seeds should eventually disagree
    d = make_dataset2()
    picks = {
        tuple(subsample_attributes(d, 1, {"operation_id"}, seed=s).main.attributes)
        for s in range(8)
    }
    assert len(picks) > 1


def test_subsample_negative_k_raises():
    with pytest.raises(ValueError, match=r"^cannot take -1 of 3 without replacement$"):
        subsample_attributes(make_dataset2(), -1, {"operation_id"}, seed=1)


def test_subsample_negative_seed_raises():
    with pytest.raises(ValueError, match=r"^seed must be non-negative$"):
        subsample_attributes(make_dataset2(), 1, {"operation_id"}, seed=-1)


_SYNTHETIC_60 = generate_synthetic(SynthConfig(60, 1))


def _synthetic_sample(k: int, seed: int) -> list[int]:
    """The numbers of the ``attrNNN`` columns that ``bench`` samples from
    ``SynthConfig(60, 1)``'s main table."""
    _, d, m, _ = _SYNTHETIC_60
    retained = key_attributes(m, d)
    return [int(a[4:]) for a in subsample_attributes(d, k, retained, seed).main.attributes
            if a not in retained]


# (seed, k) -> the attrNNN columns kept, in attribute order. The stream is
# Python's documented random() sequence for an int seed, so these hold on
# every release.
PINNED = [
    ((1, 10), [0, 8, 9, 13, 19, 20, 26, 35, 42, 56]),
    ((2, 10), [2, 3, 11, 20, 21, 28, 29, 31, 35, 45]),
    ((3, 10), [5, 6, 9, 15, 21, 25, 37, 38, 39, 55]),
    ((1, 30), [0, 3, 5, 8, 9, 11, 13, 14, 16, 19, 20, 23, 24, 25, 26, 27, 28, 30, 31, 32,
               34, 35, 39, 42, 43, 47, 50, 56, 57, 59]),
    ((2, 30), [2, 3, 7, 11, 12, 13, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31,
               32, 35, 42, 45, 48, 49, 50, 52, 54, 57]),
    ((3, 30), [0, 1, 2, 5, 6, 8, 9, 11, 13, 15, 18, 21, 23, 24, 25, 27, 32, 34, 37, 38,
               39, 41, 43, 44, 45, 46, 47, 48, 55, 59]),
]


@pytest.mark.parametrize("case, expected", PINNED)
def test_subsample_pinned_samples(case, expected):
    seed, k = case
    assert _synthetic_sample(k, seed) == expected


def test_subsample_is_uniform():
    # 6,000 draws of 10 of 60: each attribute is picked 1,000 times on
    # average with a standard deviation of about 30, so 150 is 5 sigma
    counts = Counter(a for seed in range(6000) for a in _synthetic_sample(10, seed))
    assert set(counts) == set(range(60))
    assert all(850 <= n <= 1150 for n in counts.values()), sorted(counts.values())


def test_package_imports_only_the_standard_library():
    for path in sorted(Path(ontoshape.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "ontoshape", (path.name, name)
