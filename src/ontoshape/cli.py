"""Command line front end.

Exit codes: 0 on success, 1 on validation or usage errors, 2 on I/O
errors. Diagnostics go to stderr; file outputs are byte stable for equal
inputs and seeds.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, bench, kggen, metrics, syndata
from .errors import OntoshapeError
from .mapping import MappingSet, UserInfo, parse_mappings, parse_userinfo
from .ontology import parse_ontology
from .reshape import baseline_schema, parse_schema, reshape, serialize_schema
from .tabular import Dataset, load_dataset, table_paths


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_input_flags(p: argparse.ArgumentParser, ontology: bool = True) -> None:
    if ontology:
        p.add_argument("-o", "--ontology", required=True, help="ontology file (.osf)")
    p.add_argument("-d", "--data", required=True, help="directory of <table>.csv files")
    p.add_argument("-m", "--mappings", required=True, help="mapping CSV file")
    p.add_argument("--main-table", help="main table name (default: sole table or 'operation')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ontoshape",
        description="Reshape a class ontology into a compact schema, materialize "
        "knowledge graphs from tables, and benchmark against the naive approach.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in (("reshape", "build the compact data-oriented schema"),
                             ("baseline", "build the naive schema for comparison")):
        p = sub.add_parser(command, help=summary)
        _add_input_flags(p)
        p.add_argument("-u", "--userinfo", help="user info JSON file")
        p.add_argument("--main-class", help="override the main class")
        if command == "reshape":
            p.add_argument("--include-unmapped", action="store_true",
                           help="attach attributes without a mapping to the main class")
        p.add_argument("--out", required=True, help="schema output file")
        p.set_defaults(func=_cmd_schema)

    p = sub.add_parser("generate", help="materialize a knowledge graph as N-Triples")
    p.add_argument("-s", "--schema", required=True, help="schema file")
    _add_input_flags(p, ontology=False)
    p.add_argument("--base-iri", default=kggen.DEFAULT_BASE_IRI,
                   help="IRI prefix, must end with '#' or '/' and be a valid N-Triples IRI")
    p.add_argument("--out", required=True, help="N-Triples output file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("metrics", help="measure a generated knowledge graph")
    p.add_argument("-k", "--kg", required=True, help="N-Triples file")
    p.add_argument("-s", "--schema", required=True, help="schema file the graph was generated from")
    _add_input_flags(p, ontology=False)
    p.add_argument("--base-iri", default=kggen.DEFAULT_BASE_IRI)
    p.add_argument("--out", help="write the text report here instead of stdout")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bench", help="run the paired benchmark on synthetic inputs")
    p.add_argument("--synth-attrs", type=int, default=60, help="attributes in the synthetic table")
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--chain-depth", type=int, default=4)
    p.add_argument("--synth-entities", type=int, default=2)
    p.add_argument("--counts", default="10,20,30,40,50,60",
                   help="comma-separated attribute counts, strictly increasing")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory for report.csv and report.txt")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic fixture tree")
    p.add_argument("--attrs", type=int, default=60)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--chain-depth", type=int, default=4)
    p.add_argument("--entities", type=int, default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)
    return parser


def _pick_main_table(args) -> str:
    if args.main_table:
        return args.main_table
    names = [p.stem for p in table_paths(args.data)]
    if len(names) == 1:
        return names[0]
    if syndata.MAIN_TABLE in names:
        return syndata.MAIN_TABLE
    raise _UsageError("--main-table is required when the data directory holds several tables")


def _read_text(path: str) -> str:
    """A text input file as UTF-8, with any leading byte-order mark ignored."""
    return Path(path).read_text(encoding="utf-8-sig")


def _load_tables(args) -> tuple[MappingSet, Dataset]:
    mappings = parse_mappings(_read_text(args.mappings))
    return mappings, load_dataset(args.data, _pick_main_table(args))


def _load_userinfo(args) -> UserInfo:
    if args.userinfo:
        info = parse_userinfo(_read_text(args.userinfo))
        if args.main_class:
            info.main_class = args.main_class
        return info
    if args.main_class:
        return UserInfo(args.main_class)
    raise _UsageError("either --userinfo or --main-class is required")


def _cmd_schema(args) -> int:
    ontology = parse_ontology(_read_text(args.ontology))
    mappings, dataset = _load_tables(args)
    info = _load_userinfo(args)
    if args.command == "reshape":
        schema = reshape(ontology, dataset, mappings, info, include_unmapped=args.include_unmapped)
    else:
        schema = baseline_schema(ontology, dataset, mappings, info.main_class)
    Path(args.out).write_text(serialize_schema(schema), encoding="utf-8")
    return 0


def _cmd_generate(args) -> int:
    schema = parse_schema(_read_text(args.schema))
    mappings, dataset = _load_tables(args)
    graph = kggen.generate_kg(schema, dataset, mappings, schema.main_class)
    Path(args.out).write_text(kggen.serialize_ntriples(graph, args.base_iri), encoding="utf-8")
    return 0


def _cmd_metrics(args) -> int:
    schema = parse_schema(_read_text(args.schema))
    mappings, dataset = _load_tables(args)
    with open(args.kg, encoding="utf-8-sig") as kg:
        graph = kggen.load_ntriples(kg, args.base_iri)
    size = Path(args.kg).stat().st_size  # the size on disk, line endings included
    report = metrics.build_report(graph, schema, dataset, mappings, schema.main_class, storage_bytes=size)
    rendered = metrics.report_text(report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_bench(args) -> int:
    counts = tuple(int(c) for c in args.counts.split(",") if c.strip())
    cfg = bench.ExperimentConfig(counts, args.reps, args.seed)
    synth_cfg = syndata.SynthConfig(args.synth_attrs, args.rows, args.chain_depth, args.synth_entities)
    inputs = syndata.generate_synthetic(synth_cfg)
    results = bench.run_experiment(cfg, inputs)
    csv_doc, text_doc = bench.render_report(bench.aggregate_runs(results))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(csv_doc, encoding="utf-8")
    (out / "report.txt").write_text(text_doc, encoding="utf-8")
    sys.stdout.write(text_doc)
    return 0


def _cmd_synth(args) -> int:
    cfg = syndata.SynthConfig(args.attrs, args.rows, args.chain_depth, args.entities)
    syndata.write_fixture_tree(cfg, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version and --help exit through argparse
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, OntoshapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
