"""End-to-end acceptance checks.

Each test covers one numbered claim about the pipeline and prints a
"criterion N: PASS/FAIL" line (visible with ``pytest -s``). Criterion 2
builds the full default benchmark, which the later criteria reuse, so this
module takes a few minutes; everything else is fast.
"""

from __future__ import annotations

import csv
import random
import re
import time
from pathlib import Path
from statistics import mean
from urllib.parse import quote, unquote

import pytest
from conftest import DATA_2, MAPPINGS_WX, ONTOLOGY_WX, make_dataset2

from ontoshape.bench import (
    APPROACHES,
    ExperimentConfig,
    aggregate_runs,
    key_attributes,
    render_report,
    run_experiment,
)
from ontoshape.cli import main as cli_main
from ontoshape.kggen import KnowledgeGraph
from ontoshape.mapping import UserInfo, parse_mappings
from ontoshape.metrics import depth_metrics, format_value
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import reshape
from ontoshape.syndata import SynthConfig, generate_synthetic, write_fixture_tree

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_BASE = "http://example.org/kg#"


class _Criterion:
    """Prints the one-line verdict whether the body passed or raised."""

    def __init__(self, number: int):
        self.number = number
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            suffix = f" ({self.detail})" if self.detail else ""
            print(f"criterion {self.number}: PASS{suffix}")
        else:
            print(f"criterion {self.number}: FAIL")
        return False


@pytest.fixture(scope="module")
def full_bench():
    """The default benchmark: 6 counts x 10 reps x 2 approaches, 1000 rows."""
    inputs = generate_synthetic(SynthConfig(60, 1000, chain_depth=4, n_entity_classes=2))
    cfg = ExperimentConfig()
    start = time.perf_counter()
    results = run_experiment(cfg, inputs)
    wall = time.perf_counter() - start
    return inputs, cfg, results, wall


def _per_set(results, approach):
    out: dict[int, list] = {}
    for r in results:
        if r.approach == approach:
            out.setdefault(r.attribute_count, []).append(r.report)
    return out


def test_criterion_1_worked_example():
    with _Criterion(1) as c:
        ontology = parse_ontology(ONTOLOGY_WX)
        mappings = parse_mappings(MAPPINGS_WX)
        dataset = make_dataset2()
        start = time.perf_counter()
        schema = reshape(ontology, dataset, mappings, UserInfo("WeldingOperation"))
        elapsed = time.perf_counter() - start

        assert schema.main_class == "WeldingOperation"
        assert schema.classes == {"WeldingOperation", "WeldingProgram"}
        assert schema.edges == {("executes", "WeldingOperation", "WeldingProgram")}
        assert schema.data_attachments == {
            ("hasCurrentMeanValue", "WeldingOperation", ("welding_operation", "current_mean")),
            ("hasCurrentArrayValue", "WeldingOperation", ("welding_operation", "current_array")),
            ("hasWeldingProgramID", "WeldingProgram", ("welding_operation", "program_id")),
        }
        assert schema.class_keys == {
            "WeldingOperation": ("welding_operation", "operation_id"),
            "WeldingProgram": ("welding_operation", "program_id"),
        }
        assert schema.class_tables == {"WeldingOperation": "welding_operation"}
        assert elapsed < 1.0
        c.detail = f"exact shape match in {elapsed * 1000:.1f} ms"


def test_criterion_2_zero_dummies(full_bench):
    with _Criterion(2) as c:
        _, cfg, results, wall = full_bench
        expected_runs = len(cfg.attribute_counts) * cfg.repetitions * len(APPROACHES)
        assert len(results) == expected_runs
        reshaped = [r for r in results if r.approach == "reshape"]
        assert len(reshaped) == expected_runs // 2
        assert all(r.report.dummy_count == 0 for r in reshaped)
        assert wall < 300.0
        c.detail = f"{len(reshaped)} reshape runs, 0 dummies, bench took {wall:.1f} s"


def test_criterion_3_full_coverage(full_bench):
    with _Criterion(3) as c:
        _, _, results, _ = full_bench
        assert all(r.report.data_coverage == 1.0 for r in results)
        c.detail = f"coverage 1.0 on all {len(results)} runs"


def test_criterion_4_depth_contrast(full_bench):
    with _Criterion(4) as c:
        _, cfg, results, _ = full_bench
        base = _per_set(results, "baseline")
        resh = _per_set(results, "reshape")
        assert set(base) == set(resh) == set(cfg.attribute_counts)
        for count in cfg.attribute_counts:
            b_depths = [r.root_to_leaf_depth for r in base[count]]
            r_depths = [r.root_to_leaf_depth for r in resh[count]]
            assert max(b_depths) == 4
            assert max(r_depths) <= 3
            assert mean(r_depths) <= mean(b_depths)
        c.detail = "baseline max 4, reshape max " + str(
            max(r.report.root_to_leaf_depth for r in results if r.approach == "reshape")
        )


def test_criterion_5_size_contrast(full_bench):
    with _Criterion(5) as c:
        inputs, cfg, results, _ = full_bench
        base = _per_set(results, "baseline")
        resh = _per_set(results, "reshape")
        worst = None
        for count in cfg.attribute_counts:
            b_bytes = mean(r.storage_bytes for r in base[count])
            r_bytes = mean(r.storage_bytes for r in resh[count])
            factor = b_bytes / r_bytes
            assert factor >= 1.5
            worst = factor if worst is None else min(worst, factor)

        # every reshape run materializes exactly one entity per row plus one
        # per distinct satellite key value; keys are never sampled away
        _, d, m, u = inputs
        mc_attr = next(
            a for a in d.main.attributes
            if m.attribute_map.get((d.main_table, a)) == u.main_class + "ID"
        )
        satellite = sorted(key_attributes(m, d) - {mc_attr})
        expected = len(d.main.rows) + sum(
            len({row[a] for row in d.main.rows}) for a in satellite
        )
        for r in results:
            if r.approach == "reshape":
                assert r.report.entity_count == expected
        c.detail = f"worst size factor {worst:.2f}x, reshape entities {expected} exact"


def test_criterion_6_speed_direction(full_bench):
    with _Criterion(6) as c:
        _, cfg, results, _ = full_bench
        top = max(cfg.attribute_counts)
        base = _per_set(results, "baseline")[top]
        resh = _per_set(results, "reshape")[top]
        agg = aggregate_runs(results)
        ratio = (
            agg[("baseline", top)]["time cost (sec)"]
            / agg[("reshape", top)]["time cost (sec)"]
        )
        assert mean(r.time_cost_ms for r in base) > mean(r.time_cost_ms for r in resh)
        assert ratio > 1.0

        _, text = render_report(agg)
        ratio_lines = [l for l in text.splitlines() if l.startswith("time ratio")]
        assert len(ratio_lines) == 1
        assert format_value(ratio) in ratio_lines[0]
        c.detail = f"measured ratio {ratio:.2f}x on the {top}-attribute set"


# --- criterion 7: a from-scratch file-level checker ------------------------
#
# Everything below re-reads the written files with its own parsing and
# rebuilds the expected triples by brute force, so a generation bug cannot
# hide behind the library's own readers.

_NT_LINE = re.compile(
    r"\A(<[^>]*>|_:\S+) <([^>]*)> (<[^>]*>|_:\S+|\"(?:[^\"\\]|\\.)*\") \.\Z"
)


def _nt_unescape(text: str) -> str:
    def repl(match: re.Match) -> str:
        body = match.group(0)
        if body.startswith("\\u"):
            return chr(int(body[2:], 16))
        return {"\\n": "\n", "\\r": "\r", "\\t": "\t", '\\"': '"', "\\\\": "\\"}[body]

    return re.sub(r"\\u[0-9A-Fa-f]{4}|\\.", repl, text)


def _read_nt_file(path: Path):
    types: dict[str, str] = {}
    objects: set[tuple[str, str, str]] = set()
    literals: set[tuple[str, str, str]] = set()

    def local(term: str) -> str:
        if term.startswith("_:"):
            return term
        iri = term[1:-1]
        assert iri.startswith(_BASE), iri
        return iri[len(_BASE):]

    for line in path.read_text(encoding="utf-8").splitlines():
        match = _NT_LINE.match(line)
        assert match is not None, f"unparseable triple line: {line!r}"
        subj_t, pred_iri, obj_t = match.groups()
        subj = local(subj_t)
        if obj_t.startswith('"'):
            literals.add((subj, pred_iri[len(_BASE):], _nt_unescape(obj_t[1:-1])))
        elif pred_iri == _RDF_TYPE:
            types[subj] = local(obj_t)
        else:
            objects.add((subj, pred_iri[len(_BASE):], local(obj_t)))
    return types, objects, literals


def _read_schema_file(path: Path):
    main = None
    classes: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    attaches: list[tuple[str, str, str, str]] = []
    keys: dict[str, tuple[str, str]] = {}
    tables: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "main":
            main = parts[1]
        elif parts[0] == "class":
            classes.add(parts[1])
        elif parts[0] == "objprop":
            edges.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "attach":
            table, attr = parts[3].split(".", 1)
            attaches.append((parts[1], parts[2], unquote(table), unquote(attr)))
        elif parts[0] == "key":
            table, attr = parts[2].split(".", 1)
            keys[parts[1]] = (unquote(table), unquote(attr))
        elif parts[0] == "table":
            tables[parts[1]] = unquote(parts[2])
        else:
            raise AssertionError(f"unknown schema line: {line!r}")
    assert main is not None
    return main, classes, edges, attaches, keys, tables


def _check_generated_files(schema_file: Path, nt_file: Path, fixture_dir: Path) -> None:
    main, classes, edges, attaches, keys, tables = _read_schema_file(schema_file)

    csv_files = sorted((fixture_dir / "data").glob("*.csv"))
    assert len(csv_files) == 1
    main_table = csv_files[0].stem
    with open(csv_files[0], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) <= 100

    mapped_attrs = set()
    with open(fixture_dir / "mappings.csv", newline="", encoding="utf-8") as fh:
        for rec in list(csv.DictReader(fh)):
            if rec["kind"] == "attribute" and rec["table"] == main_table:
                mapped_attrs.add(rec["attribute"])

    # every mapped attribute must surface either as an entity key or as a
    # data attachment; nothing may be dropped
    key_attrs = {attr for table, attr in keys.values() if table == main_table}
    attached_attrs = {attr for _, _, table, attr in attaches if table == main_table}
    assert key_attrs | attached_attrs == mapped_attrs

    expected_types: dict[str, str] = {}
    row_ids: list[tuple[int, dict[str, str]]] = []
    for i, row in enumerate(rows):
        ids: dict[str, str] = {}
        for cls in classes:
            key = keys.get(cls)
            if key is not None and key[0] == main_table:
                value = row[key[1]]
                assert value, f"row {i}: empty key {key[1]}"
                ids[cls] = f"{cls}/{quote(value, safe='')}"
            elif cls == main or tables.get(cls) == main_table:
                ids[cls] = f"{cls}/row{i}"
            else:
                ids[cls] = f"_:dummy_{cls}_row{i}"
        row_ids.append((i, ids))
        for cls, eid in ids.items():
            expected_types[eid] = cls

    expected_literals: set[tuple[str, str, str]] = set()
    pair_count = 0
    for prop, owner, table, attr in attaches:
        assert table == main_table
        for i, ids in row_ids:
            value = rows[i][attr]
            if value:
                expected_literals.add((ids[owner], prop, value))
                pair_count += 1
    # the fixture values are unique per row, so the (row, attribute) to
    # literal-triple correspondence must be a bijection
    assert len(expected_literals) == pair_count

    expected_objects: set[tuple[str, str, str]] = set()
    for rel, frm, to in edges:
        for _, ids in row_ids:
            if frm in ids and to in ids:
                expected_objects.add((ids[frm], rel, ids[to]))

    types, objects, literals = _read_nt_file(nt_file)
    assert types == expected_types
    assert objects == expected_objects
    assert literals == expected_literals


def test_criterion_7_bruteforce_file_check(tmp_path):
    with _Criterion(7) as c:
        fixture = tmp_path / "fixture"
        write_fixture_tree(
            SynthConfig(n_attributes=4, n_rows=50, chain_depth=3, n_entity_classes=2),
            fixture,
        )
        common = [
            "-d", str(fixture / "data"),
            "-m", str(fixture / "mappings.csv"),
        ]
        for approach in ("reshape", "baseline"):
            schema_file = tmp_path / f"{approach}.schema"
            nt_file = tmp_path / f"{approach}.nt"
            assert cli_main([
                approach,
                "-o", str(fixture / "ontology.osf"),
                "-u", str(fixture / "userinfo.json"),
                *common,
                "--out", str(schema_file),
            ]) == 0
            assert cli_main([
                "generate", "-s", str(schema_file), *common, "--out", str(nt_file),
            ]) == 0
            _check_generated_files(schema_file, nt_file, fixture)
        c.detail = "reshape and baseline on 50 rows, zero mismatches"


def test_criterion_8_byte_identical_runs(tmp_path):
    with _Criterion(8) as c:
        trees = []
        for name in ("first", "second"):
            root = tmp_path / name
            assert cli_main([
                "synth", "--attrs", "6", "--rows", "40", "--chain-depth", "3",
                "--entities", "2", "--out", str(root),
            ]) == 0
            schema_file = root / "schema.txt"
            nt_file = root / "kg.nt"
            common = ["-d", str(root / "data"), "-m", str(root / "mappings.csv")]
            assert cli_main([
                "reshape",
                "-o", str(root / "ontology.osf"),
                "-u", str(root / "userinfo.json"),
                *common,
                "--out", str(schema_file),
            ]) == 0
            assert cli_main([
                "generate", "-s", str(schema_file), *common, "--out", str(nt_file),
            ]) == 0
            trees.append((
                (root / "ontology.osf").read_bytes(),
                (root / "mappings.csv").read_bytes(),
                (root / "data" / "operation.csv").read_bytes(),
                schema_file.read_bytes(),
                nt_file.read_bytes(),
            ))
        assert trees[0] == trees[1]
        c.detail = "synth, reshape and generate outputs byte-identical across runs"


def _oracle_depths(g: KnowledgeGraph, mc: str) -> tuple[int, int]:
    """All-pairs reference: Floyd-Warshall on the undirected entity graph."""
    ids = list(g.entities)
    index = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    INF = float("inf")
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for subj, _, obj in g.object_triples:
        a, b = index[subj], index[obj]
        if a != b:
            dist[a][b] = dist[b][a] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    global_depth = max(
        (dist[i][j] for i in range(n) for j in range(n) if dist[i][j] < INF),
        default=0,
    )
    root_depth = 0
    for eid in ids:
        if g.entities[eid][0] != mc:
            continue
        i = index[eid]
        for j in range(n):
            if dist[i][j] < INF and dist[i][j] > root_depth:
                root_depth = dist[i][j]
    return int(root_depth), int(global_depth)


def test_criterion_9_depth_oracle():
    with _Criterion(9) as c:
        rng = random.Random(20260816)
        for case in range(50):
            n = rng.randint(1, 50)
            entities = {}
            for i in range(n):
                cls = "M" if rng.random() < 0.3 else rng.choice("ABCD")
                entities[f"{cls}/e{i}"] = (cls, False)
            ids = list(entities)
            triples = set()
            for _ in range(rng.randint(0, 2 * n)):
                triples.add((rng.choice(ids), f"r{rng.randint(0, 3)}", rng.choice(ids)))
            graph = KnowledgeGraph(entities, dict.fromkeys(triples), {})
            assert depth_metrics(graph, "M") == _oracle_depths(graph, "M"), f"case {case}"
        c.detail = "50 random graphs, exact match"
