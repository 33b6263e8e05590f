"""One op per workload, the checks on its outputs, and the CLI reference run.

A file op is what a user does with the CLI (``reshape``/``baseline`` →
``generate`` → ``metrics``), made with the same public calls in the same
order inside one process: files in, schema file and N-Triples file written
and read back, report out. A grid op is the paper-table run: files in, one
``bench.run_experiment`` with ``jobs=1``, then ``aggregate_runs`` and
``render_report``. Checks compare every op with the closed-form counts of
``workloads.expected`` and with what the CLI wrote for the same fixture.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from ontoshape import bench, cli, kggen, metrics, syndata
from ontoshape.mapping import parse_mappings, parse_userinfo
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import KGSchema, baseline_schema, parse_schema, reshape, serialize_schema
from ontoshape.tabular import load_dataset

from .workloads import Expected, Fixture, Workload, expected


@dataclass(frozen=True)
class GraphSummary:
    """Counts and content hashes of a graph, so the generated graph can be
    compared with the one read back without keeping both in memory."""

    entities: int
    dummies: int
    objects: int
    literal_lines: int
    content: tuple[int, int, int]


def summarize(g: kggen.KnowledgeGraph) -> GraphSummary:
    literals = frozenset((s, p, v) for s, p, v, _ in g.literal_triples)
    return GraphSummary(
        len(g.entities),
        sum(1 for _, dummy in g.entities.values() if dummy),
        len(g.object_triples),
        len(literals),
        (hash(frozenset(g.entities.items())), hash(frozenset(g.object_triples)), hash(literals)),
    )


@dataclass
class OpResult:
    seconds: float  # op wall time, check work excluded
    lines: int  # N-Triples lines emitted
    kg_bytes: int  # N-Triples bytes emitted
    problems: list[str]


@dataclass(frozen=True)
class Reference:
    """What the CLI wrote for the workload's fixture."""

    schema_sha: str = ""
    nt_sha: str = ""
    report_text: str = ""
    report_csv: tuple[str, ...] = ()  # grid: rows other than the time rows


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dummy_classes(s: KGSchema) -> int:
    return sum(
        1 for c in s.classes if c != s.main_class and c not in s.class_keys and c not in s.class_tables
    )


def _read_inputs(fx: Fixture, tr):
    with tr.span("ontology.parse"):
        o = parse_ontology(fx.ontology.read_text(encoding="utf-8"))
    with tr.span("mapping.parse"):
        m = parse_mappings(fx.mappings.read_text(encoding="utf-8"))
        u = parse_userinfo(fx.userinfo.read_text(encoding="utf-8"))
    with tr.span("tabular.load"):
        d = load_dataset(fx.data, syndata.MAIN_TABLE)
    tr.count("ontology.classes", len(o.classes))
    tr.count("tabular.cells", sum(len(t.rows) * len(t.attributes) for t in d.tables.values()))
    return o, d, m, u


class _Problems(list):
    def want(self, label: str, got, expected) -> None:
        if got != expected:
            self.append(f"{label}: got {got!r}, expected {expected!r}")


def _check_report(p: _Problems, label: str, r: metrics.MetricsReport, exp: Expected) -> None:
    p.want(f"{label} data coverage", r.data_coverage, 1.0)
    p.want(f"{label} classes", r.class_count, exp.classes)
    p.want(f"{label} entities", r.entity_count, exp.entities - exp.dummies)
    p.want(f"{label} dummies", r.dummy_count, exp.dummies)
    p.want(f"{label} object triples", r.object_prop_count, exp.objects)
    if exp.depths is not None:
        p.want(f"{label} depths", (r.root_to_leaf_depth, r.global_depth), exp.depths)


def file_op(w: Workload, fx: Fixture, out: Path, ref: Reference, tr) -> OpResult:
    """Run the CLI pipeline once and check its outputs."""
    schema_path, nt_path = out / "schema.txt", out / "kg.nt"
    start = time.perf_counter()
    with tr.span("op"):
        o, d, m, u = _read_inputs(fx, tr)
        with tr.span("reshape.schema"):
            if w.approach == "reshape":
                s = reshape(o, d, m, u)
            else:
                s = baseline_schema(o, d, m, u.main_class)
        with tr.span("reshape.schema_io"):
            schema_path.write_text(serialize_schema(s), encoding="utf-8")
            s = parse_schema(schema_path.read_text(encoding="utf-8"))
        for name, value in _schema_counts(s).items():
            tr.count(name, value)
        with tr.span("kggen.generate"):
            g = kggen.generate_kg(s, d, m, s.main_class)
        with tr.span("kggen.serialize"):
            nt_path.write_text(kggen.serialize_ntriples(g), encoding="utf-8")
        pause = time.perf_counter()
        with tr.span("check"):
            generated = summarize(g)
            del g
        paused = time.perf_counter() - pause
        tr.count("kggen.entities", generated.entities)
        tr.count("kggen.dummies", generated.dummies)
        with tr.span("kggen.read"):
            text = nt_path.read_text(encoding="utf-8")
            g2 = kggen.load_ntriples(text, kggen.DEFAULT_BASE_IRI, s)
        with tr.span("metrics.report"):
            report = metrics.build_report(
                g2, s, d, m, s.main_class, storage_bytes=len(text.encode("utf-8"))
            )
    seconds = time.perf_counter() - start - paused

    exp = expected(w.approach, w.attrs, w.rows, w.depth, fx.key_values)
    nt = nt_path.read_bytes()
    tr.count("kggen.bytes", len(nt))
    p = _Problems()
    p.want("generated entities", generated.entities, exp.entities)
    p.want("generated dummies", generated.dummies, exp.dummies)
    p.want("generated object triples", generated.objects, exp.objects)
    p.want("generated literal lines", generated.literal_lines, exp.literal_lines)
    p.want("N-Triples lines", nt.count(b"\n"), exp.lines)
    p.want("read-back graph", summarize(g2), generated)
    _check_report(p, "report", report, exp)
    p.want("schema file vs CLI", _sha(schema_path.read_bytes()), ref.schema_sha)
    p.want("N-Triples file vs CLI", _sha(nt), ref.nt_sha)
    p.want("report text vs CLI", metrics.report_text(report), ref.report_text)
    return OpResult(seconds, nt.count(b"\n"), len(nt), p)


def _untimed_rows(csv_doc: str) -> tuple[str, ...]:
    return tuple(line for line in csv_doc.splitlines() if ",time cost" not in line)


def grid_op(w: Workload, fx: Fixture, out: Path, ref: Reference, tr) -> OpResult:
    """Run the paper-table experiment once and check every run in it."""
    start = time.perf_counter()
    with tr.span("op"):
        inputs = _read_inputs(fx, tr)
        cfg = bench.ExperimentConfig(w.counts, 1, fx.grid_seed)
        with tr.span("bench.experiment"):
            results = bench.run_experiment(cfg, inputs, jobs=1)
        with tr.span("bench.render"):
            csv_doc, text_doc = bench.render_report(bench.aggregate_runs(results))
            (out / "report.csv").write_text(csv_doc, encoding="utf-8")
            (out / "report.txt").write_text(text_doc, encoding="utf-8")
    seconds = time.perf_counter() - start
    kg_bytes = sum(r.report.storage_bytes for r in results)
    tr.count("bench.cells", len(w.counts) * cfg.repetitions)
    tr.count("kggen.entities", sum(r.report.entity_count + r.report.dummy_count for r in results))
    tr.count("kggen.dummies", sum(r.report.dummy_count for r in results))
    tr.count("kggen.bytes", kg_bytes)

    p = _Problems()
    p.want(
        "runs",
        [(r.approach, r.attribute_count) for r in results],
        [(ap, c) for c in w.counts for ap in bench.APPROACHES],
    )
    # every key is unique here, so each graph triple is one N-Triples line
    lines = 0
    for r in results:
        exp = expected(r.approach, r.attribute_count, w.rows, w.depth, fx.key_values)
        rep = r.report
        _check_report(p, f"{r.approach}@{r.attribute_count}", rep, exp)
        p.want(f"{r.approach}@{r.attribute_count} literal triples", rep.data_prop_count, exp.literal_lines)
        lines += rep.entity_count + rep.dummy_count + rep.object_prop_count + rep.data_prop_count
    p.want("report.csv vs CLI", _untimed_rows(csv_doc), ref.report_csv)
    return OpResult(seconds, lines, kg_bytes, p)


def _schema_counts(s: KGSchema) -> dict[str, int]:
    return {
        "reshape.classes": len(s.classes),
        "reshape.edges": len(s.edges),
        "reshape.dummy_classes": _dummy_classes(s),
    }


def traced_calls(w: Workload) -> list:
    """Module attributes the traced run wraps, as ``tracing.wrapped`` takes
    them: calls made inside ontoshape, which the op cannot span itself."""
    calls = [(metrics, "depth_metrics", "metrics.depth", None)]
    if w.approach == "grid":
        calls += [
            (bench, "subsample_attributes", "tabular.subsample", None),
            (bench, "reshape", "reshape.schema", _schema_counts),
            (bench, "baseline_schema", "reshape.schema", _schema_counts),
            (kggen, "generate_kg", "kggen.generate", None),
            (kggen, "serialize_ntriples", "kggen.serialize", None),
            (metrics, "build_report", "metrics.report", None),
        ]
    return calls


def cli_reference(w: Workload, fx: Fixture, out: Path) -> Reference:
    """Run ``ontoshape.cli.main`` on the fixture and keep what it wrote."""
    out.mkdir(parents=True, exist_ok=True)
    if w.approach == "grid":
        argv = [
            "bench", "--synth-attrs", str(w.attrs), "--rows", str(w.rows),
            "--chain-depth", str(w.depth), "--counts", ",".join(map(str, w.counts)),
            "--reps", "1", "--seed", str(fx.grid_seed), "--out", str(out),
        ]
        with redirect_stdout(io.StringIO()):  # bench also prints its table
            _cli(argv)
        return Reference(report_csv=_untimed_rows((out / "report.csv").read_text(encoding="utf-8")))
    inputs = ["-d", str(fx.data), "-m", str(fx.mappings)]
    schema, nt, report = out / "schema.txt", out / "kg.nt", out / "report.txt"
    _cli([w.approach, "-o", str(fx.ontology), *inputs, "-u", str(fx.userinfo), "--out", str(schema)])
    _cli(["generate", "-s", str(schema), *inputs, "--out", str(nt)])
    _cli(["metrics", "-k", str(nt), "-s", str(schema), *inputs, "--out", str(report)])
    return Reference(
        schema_sha=_sha(schema.read_bytes()),
        nt_sha=_sha(nt.read_bytes()),
        report_text=report.read_text(encoding="utf-8"),
    )


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ontoshape {argv[0]} exited with {code}")
