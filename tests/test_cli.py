"""Command line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import DATA_2, MAPPINGS_WX, ONTOLOGY_WX
from test_golden import CASES

import ontoshape
from ontoshape.cli import main
from ontoshape.kggen import generate_kg, serialize_ntriples
from ontoshape.mapping import UserInfo, parse_mappings
from ontoshape.metrics import build_report, report_text
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import parse_schema, reshape, serialize_schema
from ontoshape.tabular import load_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "ontology.osf").write_text(ONTOLOGY_WX, encoding="utf-8")
    (tmp_path / "mappings.csv").write_text(MAPPINGS_WX, encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "welding_operation.csv").write_text(DATA_2, encoding="utf-8")
    return tmp_path


def _reshape_argv(workdir, out):
    return [
        "reshape",
        "-o", str(workdir / "ontology.osf"),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
        "--main-class", "WeldingOperation",
        "--out", str(out),
    ]


def test_reshape_writes_expected_schema(workdir):
    out = workdir / "schema.txt"
    assert main(_reshape_argv(workdir, out)) == 0

    ontology = parse_ontology(ONTOLOGY_WX)
    mappings = parse_mappings(MAPPINGS_WX)
    dataset = load_dataset(str(workdir / "data"), "welding_operation")
    expected = serialize_schema(
        reshape(ontology, dataset, mappings, UserInfo("WeldingOperation"))
    )
    assert out.read_text(encoding="utf-8") == expected


def test_baseline_subcommand(workdir):
    out = workdir / "baseline.txt"
    argv = [
        "baseline",
        "-o", str(workdir / "ontology.osf"),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
        "--main-class", "WeldingOperation",
        "--out", str(out),
    ]
    assert main(argv) == 0
    schema = parse_schema(out.read_text(encoding="utf-8"))
    assert len(schema.classes) == 8


def test_generate_and_metrics(workdir, capsys):
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    assert main(_reshape_argv(workdir, schema_file)) == 0
    assert main([
        "generate",
        "-s", str(schema_file),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
        "--out", str(kg_file),
    ]) == 0

    schema = parse_schema(schema_file.read_text(encoding="utf-8"))
    dataset = load_dataset(str(workdir / "data"), "welding_operation")
    expected = serialize_ntriples(
        generate_kg(schema, dataset, parse_mappings(MAPPINGS_WX), "WeldingOperation")
    )
    assert kg_file.read_text(encoding="utf-8") == expected

    assert main([
        "metrics",
        "-k", str(kg_file),
        "-s", str(schema_file),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
    ]) == 0
    report = capsys.readouterr().out
    assert report.startswith("data coverage")
    assert "#entities" in report


def test_generate_rejects_a_base_iri_n_triples_forbids(workdir, capsys):
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    assert main(_reshape_argv(workdir, schema_file)) == 0
    capsys.readouterr()
    assert main([
        "generate",
        "-s", str(schema_file),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
        "--base-iri", "http://x y/",
        "--out", str(kg_file),
    ]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: base IRI 'http://x y/' holds a character N-Triples forbids in an IRI"]
    assert not kg_file.exists()


def test_metrics_rejects_a_graph_written_with_another_base_iri(workdir, capsys):
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    tables = ["-s", str(schema_file), "-d", str(workdir / "data"), "-m", str(workdir / "mappings.csv")]
    assert main(_reshape_argv(workdir, schema_file)) == 0
    assert main(["generate", *tables, "--base-iri", "http://a.org/x#", "--out", str(kg_file)]) == 0
    capsys.readouterr()
    # read with the default base, no IRI would name an entity of the main class
    assert main(["metrics", "-k", str(kg_file), *tables]) == 1
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and out == ""
    assert errors[0].startswith("error: line 1: IRI '<http://a.org/x#")
    assert errors[0].endswith("does not start with the base IRI 'http://example.org/kg#'")
    assert main(["metrics", "-k", str(kg_file), *tables, "--base-iri", "http://a.org/x#"]) == 0
    assert "avg. root to leaf depth  1.0000" in capsys.readouterr().out


def test_metrics_rejects_a_base_iri_that_the_written_one_extends(tmp_path, capsys):
    fx, schema_file, kg_file = tmp_path / "fx", tmp_path / "schema.txt", tmp_path / "kg.nt"
    inputs = ["-d", str(fx / "data"), "-m", str(fx / "mappings.csv")]
    tables = ["-s", str(schema_file), *inputs]
    assert main(["synth", "--attrs", "3", "--rows", "2", "--out", str(fx)]) == 0
    assert main(["baseline", "-o", str(fx / "ontology.osf"), *inputs, "-u", str(fx / "userinfo.json"),
                 "--out", str(schema_file)]) == 0
    assert main(["generate", *tables, "--base-iri", "http://a.org/x#", "--out", str(kg_file)]) == 0
    capsys.readouterr()
    assert main(["metrics", "-k", str(kg_file), *tables, "--base-iri", "http://a.org/x#"]) == 0
    assert "max. root to leaf depth  4.0000" in capsys.readouterr().out
    # every IRI starts with these two, but class names would read as "#C" or "x#C"
    for base, error in [
        ("http://a.org/x", "error: base IRI 'http://a.org/x' must end with '#' or '/'"),
        ("http://a.org/", "error: line 2: class <http://a.org/x#MachineID> is not the base IRI 'http://a.org/'"
                          " plus an identifier"),
    ]:
        assert main(["metrics", "-k", str(kg_file), *tables, "--base-iri", base]) == 1
        out, err = capsys.readouterr()
        assert out == "" and [line for line in err.splitlines() if line.startswith("error:")] == [error]


def test_reshape_include_unmapped_then_generate(workdir, capsys):
    csv_file = workdir / "data" / "welding_operation.csv"
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    # a column name with a space would make the property "hasmy attr", which is no identifier
    csv_file.write_text("operation_id,program_id,my attr\nop1,pg1,x y\n", encoding="utf-8")
    assert main(_reshape_argv(workdir, schema_file) + ["--include-unmapped"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "welding_operation.my attr" in errors[0]
    assert not schema_file.exists()

    csv_file.write_text("operation_id,program_id,my_attr\nop1,pg1,x y\n", encoding="utf-8")
    assert main(_reshape_argv(workdir, schema_file) + ["--include-unmapped"]) == 0
    assert "attach hasmy_attr WeldingOperation welding_operation.my_attr" in schema_file.read_text(
        encoding="utf-8"
    ).splitlines()
    assert main([
        "generate",
        "-s", str(schema_file),
        "-d", str(workdir / "data"),
        "-m", str(workdir / "mappings.csv"),
        "--out", str(kg_file),
    ]) == 0
    assert '"x y" .' in kg_file.read_text(encoding="utf-8")


def test_reshape_rejects_an_empty_header_name(workdir, capsys):
    # an unnamed column would become the schema token "welding_operation.", which cannot be read back
    (workdir / "data" / "welding_operation.csv").write_text(
        "operation_id,,program_id\nop1,x,pg1\n", encoding="utf-8"
    )
    schema_file = workdir / "schema.txt"
    assert main(_reshape_argv(workdir, schema_file) + ["--include-unmapped"]) == 1
    assert "error: welding_operation.csv: empty header name in column 2" in capsys.readouterr().err
    assert not schema_file.exists()


def test_metrics_counts_the_bytes_of_a_crlf_file(workdir, capsys):
    rows = "".join(f'op{i},pg{i},{i}.5,"[{i},2]"\n' for i in range(60))
    (workdir / "data" / "welding_operation.csv").write_text(
        "operation_id,program_id,current_mean,current_array\n" + rows, encoding="utf-8"
    )
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    assert main(_reshape_argv(workdir, schema_file)) == 0
    inputs = ["-s", str(schema_file), "-d", str(workdir / "data"), "-m", str(workdir / "mappings.csv")]
    assert main(["generate", *inputs, "--out", str(kg_file)]) == 0
    lf = kg_file.read_bytes()
    crlf = lf.replace(b"\n", b"\r\n")
    assert len(crlf) - len(lf) > 300  # enough lines to move the 4-decimal MB row

    def storage_row(data):
        kg_file.write_bytes(data)
        assert main(["metrics", "-k", str(kg_file), *inputs]) == 0
        report = capsys.readouterr().out
        return next(line for line in report.splitlines() if line.startswith("storage space (MB)"))

    lf_row, crlf_row = storage_row(lf), storage_row(crlf)
    assert lf_row.endswith(f"  {len(lf) / 1e6:.4f}")
    assert crlf_row.endswith(f"  {len(crlf) / 1e6:.4f}")
    assert crlf_row != lf_row


def _write_case(case, out: Path) -> list[str]:
    """A golden case's schema, tables and mappings as files under ``out``;
    returns the ``-s``/``-d``/``-m``/``--main-table`` arguments."""
    s, d, m, _ = case
    (out / "data").mkdir()
    for table in d.tables.values():
        with open(out / "data" / f"{table.name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.attributes)
            writer.writerows([row[a] for a in table.attributes] for row in table.rows)
    with open(out / "mappings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "table", "attribute", "class"])
        writer.writerows(["table", tname, "", cls] for tname, cls in m.table_map.items())
        writer.writerows(["attribute", tname, attr, cls] for (tname, attr), cls in m.attribute_map.items())
    (out / "schema.txt").write_text(serialize_schema(s), encoding="utf-8")
    return ["-s", str(out / "schema.txt"), "-d", str(out / "data"), "-m", str(out / "mappings.csv"),
            "--main-table", d.main_table]


@pytest.mark.parametrize("name", ["odd_characters_baseline", "odd_characters_reshape",
                                  "welding_tables_baseline", "welding_tables_reshape"])
def test_metrics_on_the_generated_file_reports_what_the_generated_graph_does(name, tmp_path):
    case = CASES[name]()
    inputs = _write_case(case, tmp_path)
    kg_file, report_file = tmp_path / "kg.nt", tmp_path / "report.txt"
    assert main(["generate", *inputs, "--out", str(kg_file)]) == 0
    assert main(["metrics", "-k", str(kg_file), *inputs, "--out", str(report_file)]) == 0
    s, d, m, mc = case
    g = generate_kg(s, d, m, mc)
    expected = build_report(g, s, d, m, mc, storage_bytes=kg_file.stat().st_size)
    assert report_file.read_text(encoding="utf-8") == report_text(expected)


def test_metrics_rejects_tables_that_lack_a_schema_source_as_generate_does(workdir, capsys):
    schema_file = workdir / "schema.txt"
    kg_file = workdir / "kg.nt"
    inputs = ["-s", str(schema_file), "-d", str(workdir / "data"), "-m", str(workdir / "mappings.csv")]
    assert main(_reshape_argv(workdir, schema_file)) == 0
    assert main(["generate", *inputs, "--out", str(kg_file)]) == 0
    (workdir / "data" / "welding_operation.csv").write_text(
        "operation_id,program_id,current_mean\nop1,pg1,10.5\n", encoding="utf-8"
    )
    capsys.readouterr()
    errors = {}
    for command in ("generate", "metrics"):
        out = ["--out", str(workdir / f"{command}.out")]
        args = [command, *inputs, *out] if command == "generate" else [command, "-k", str(kg_file), *inputs, *out]
        assert main(args) == 1
        errors[command] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert not (workdir / f"{command}.out").exists()
    assert errors["metrics"] == errors["generate"] == [
        "error: attachment hasCurrentArrayValue names attribute welding_operation.current_array "
        "missing from the dataset"
    ]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # bench runs every cell in this process and starts no process pool
    src = str(Path(ontoshape.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ontoshape.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_missing_required_flag_is_usage_error(workdir, capsys):
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    argv.remove("-m")
    argv.remove(str(workdir / "mappings.csv"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error:" in err


def test_missing_main_class_is_usage_error(workdir, capsys):
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    argv.remove("--main-class")
    argv.remove("WeldingOperation")
    assert main(argv) == 1
    assert "either --userinfo or --main-class" in capsys.readouterr().err


@pytest.mark.parametrize("command, inputs", [
    ("generate", ["-s", "schema.txt", "-d", "data", "-m", "mappings.csv", "--out", "kg.nt"]),
    ("metrics", ["-k", "kg.nt", "-s", "schema.txt", "-d", "data", "-m", "mappings.csv"]),
])
def test_main_class_comes_from_the_schema(command, inputs, capsys):
    assert main([command, *inputs, "--main-class", "X"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "unrecognized arguments: --main-class X" in err


def test_malformed_userinfo_rule_is_validation_error(workdir, capsys):
    (workdir / "user.json").write_text(
        '{"main_class": "WeldingOperation", "entity_rules": '
        '[{"attribute_class": "A", "entity_class": ["x"], "relation": "r"}]}',
        encoding="utf-8",
    )
    argv = _reshape_argv(workdir, workdir / "schema.txt") + ["-u", str(workdir / "user.json")]
    assert main(argv) == 1
    assert "entity_rules[0] needs" in capsys.readouterr().err


def test_userinfo_name_that_is_no_identifier_writes_no_schema(workdir, capsys):
    (workdir / "user.json").write_text(
        '{"main_class": "WeldingOperation", "entity_rules": [{"attribute_class": '
        '"WeldingProgramID", "entity_class": "Prog Ram", "relation": "has prog"}]}',
        encoding="utf-8",
    )
    out = workdir / "schema.txt"
    assert main(_reshape_argv(workdir, out) + ["-u", str(workdir / "user.json")]) == 1
    assert "entity_rules[0] entity_class 'Prog Ram' is not an identifier" in capsys.readouterr().err
    assert not out.exists()


def _pipeline(workdir, tag, ontology, userinfo, schema_in=None, kg_in=None):
    """Run reshape, generate and metrics; ``schema_in`` and ``kg_in`` replace
    the schema and N-Triples files the earlier commands wrote. The report
    comes without its storage row, which reads the size on disk, BOM
    included."""
    inputs = ["-d", str(workdir / "data"), "-m", str(workdir / "mappings.csv")]
    schema, kg, report = (workdir / f"{tag}.{ext}" for ext in ("schema", "nt", "report"))
    assert main(["reshape", "-o", str(ontology), "-u", str(userinfo), *inputs, "--out", str(schema)]) == 0
    schema_in = schema_in or schema
    assert main(["generate", "-s", str(schema_in), *inputs, "--out", str(kg)]) == 0
    kg_in = kg_in or kg
    assert main(["metrics", "-k", str(kg_in), "-s", str(schema_in), *inputs, "--out", str(report)]) == 0
    rows = [row for row in report.read_text(encoding="utf-8").splitlines() if not row.startswith("storage")]
    return schema.read_bytes(), kg.read_bytes(), rows


def test_ontology_userinfo_schema_and_ntriples_saved_with_a_bom_give_the_same_output(workdir):
    userinfo = workdir / "user.json"
    userinfo.write_text('{"main_class": "WeldingOperation"}', encoding="utf-8")
    plain = _pipeline(workdir, "plain", workdir / "ontology.osf", userinfo)

    def with_bom(name, data):
        path = workdir / name
        path.write_bytes(b"\xef\xbb\xbf" + data)
        return path

    got = _pipeline(
        workdir, "bom",
        with_bom("bom.osf", ONTOLOGY_WX.encode("utf-8")),
        with_bom("bom.json", userinfo.read_bytes()),
        schema_in=with_bom("bom_in.schema", plain[0]),
        kg_in=with_bom("bom_in.nt", plain[1]),
    )
    assert got == plain


def test_tables_and_mappings_saved_with_a_bom_give_the_same_schema(workdir):
    plain = workdir / "plain.txt"
    assert main(_reshape_argv(workdir, plain)) == 0
    bom = b"\xef\xbb\xbf"
    (workdir / "mappings.csv").write_bytes(bom + MAPPINGS_WX.encode("utf-8"))
    (workdir / "data" / "welding_operation.csv").write_bytes(bom + DATA_2.encode("utf-8"))
    with_bom = workdir / "bom.txt"
    assert main(_reshape_argv(workdir, with_bom)) == 0
    assert with_bom.read_text(encoding="utf-8") == plain.read_text(encoding="utf-8")


def test_missing_input_file_is_io_error(workdir, capsys):
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    argv[argv.index("-o") + 1] = str(workdir / "nope.osf")
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_data_directory_is_io_error(workdir, capsys):
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    argv[argv.index("-d") + 1] = str(workdir / "nodata")
    assert main(argv) == 2
    assert "nodata" in capsys.readouterr().err


@pytest.mark.parametrize("main_table", [[], ["--main-table", "welding_operation"]])
def test_data_directory_without_tables_is_validation_error(workdir, capsys, main_table):
    (workdir / "empty").mkdir()
    argv = _reshape_argv(workdir, workdir / "schema.txt") + main_table
    argv[argv.index("-d") + 1] = str(workdir / "empty")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "no <table>.csv files in" in err and "--main-table" not in err


def test_bad_ontology_is_validation_error(workdir, capsys):
    (workdir / "ontology.osf").write_text("class A\nobjprop r A B\n", encoding="utf-8")
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("ontoshape ")


def test_userinfo_file(workdir):
    (workdir / "user.json").write_text('{"main_class": "WeldingOperation"}', encoding="utf-8")
    out = workdir / "schema.txt"
    argv = _reshape_argv(workdir, out)
    argv.remove("--main-class")
    argv.remove("WeldingOperation")
    argv[1:1] = ["-u", str(workdir / "user.json")]
    assert main(argv) == 0
    assert parse_schema(out.read_text(encoding="utf-8")).main_class == "WeldingOperation"


def test_synth_writes_fixture_tree(tmp_path):
    out = tmp_path / "fixture"
    argv = [
        "synth", "--attrs", "4", "--rows", "6", "--chain-depth", "2",
        "--entities", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    assert (out / "ontology.osf").is_file()
    assert (out / "mappings.csv").is_file()
    assert (out / "userinfo.json").is_file()
    assert (out / "data" / "operation.csv").is_file()


def test_bench_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    argv = [
        "bench", "--synth-attrs", "5", "--rows", "8", "--chain-depth", "2",
        "--synth-entities", "1", "--counts", "2,3", "--reps", "2",
        "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    assert "time ratio (baseline / reshape)" in capsys.readouterr().out
    assert (out / "report.csv").read_text(encoding="utf-8").startswith("approach,metric,")
    assert "== reshape ==" in (out / "report.txt").read_text(encoding="utf-8")


def test_bench_bad_counts_is_validation_error(tmp_path, capsys):
    argv = [
        "bench", "--counts", "5,5", "--out", str(tmp_path / "bench"),
    ]
    assert main(argv) == 1
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_is_validation_error(tmp_path, capsys, jobs):
    # bench has no --jobs flag, so a value below one is refused before any cell runs
    argv = [
        "bench", "--synth-attrs", "5", "--rows", "8", "--counts", "2",
        "--reps", "1", "--jobs", jobs, "--out", str(tmp_path / "bench"),
    ]
    assert main(argv) == 1
    assert f"error: unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--approaches", "reshape"]], ids=["jobs", "approaches"])
def test_bench_removed_flags_are_usage_errors(tmp_path, capsys, flag):
    # every cell runs in this process, and both approaches always run
    argv = [
        "bench", "--synth-attrs", "5", "--rows", "8", "--counts", "2",
        "--reps", "1", *flag, "--out", str(tmp_path / "bench"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(flag)}" in err.splitlines()
    assert not (tmp_path / "bench").exists()


def test_same_seed_runs_are_byte_identical(workdir, tmp_path):
    outs = []
    for name in ("a", "b"):
        schema_file = tmp_path / f"schema_{name}.txt"
        kg_file = tmp_path / f"kg_{name}.nt"
        assert main(_reshape_argv(workdir, schema_file)) == 0
        assert main([
            "generate",
            "-s", str(schema_file),
            "-d", str(workdir / "data"),
            "-m", str(workdir / "mappings.csv"),
            "--out", str(kg_file),
        ]) == 0
        outs.append((schema_file.read_bytes(), kg_file.read_bytes()))
    assert outs[0] == outs[1]


def test_main_table_flag_required_with_several_tables(workdir, capsys):
    (workdir / "data" / "extra.csv").write_text("x\n1\n", encoding="utf-8")
    argv = _reshape_argv(workdir, workdir / "schema.txt")
    assert main(argv) == 1
    assert "--main-table is required" in capsys.readouterr().err

    argv += ["--main-table", "welding_operation"]
    assert main(argv) == 0


def test_readme_quick_start_runs(tmp_path, capsys):
    readme = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quick start\n.*?```\n(.*?)```", readme, re.S)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 4
    for line in commands:
        program, *args = shlex.split(line)
        assert program == "ontoshape"
        argv = [re.sub(r"\Ademo(?=/|\Z)", str(tmp_path), arg) for arg in args]
        assert main(argv) == 0, line
    assert "global depth" in capsys.readouterr().out
