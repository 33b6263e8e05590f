"""Relational input tables: CSV loading and seeded attribute sub-sampling."""

from __future__ import annotations

import csv
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetError


@dataclass
class Table:
    """One relational table. Cell values stay strings; "" means missing."""

    name: str
    attributes: list[str]
    rows: list[dict[str, str]]


@dataclass
class Dataset:
    """A set of tables keyed by name, one of which is the main table."""

    tables: dict[str, Table]
    main_table: str

    @property
    def main(self) -> Table:
        return self.tables[self.main_table]


def _csv_records(
    lines: Iterable[str], fail: Callable[[str, int, int], Exception]
) -> Iterator[tuple[int, int, list[str]]]:
    """(row number, first line, cells) of each CSV record, the header as
    row 1 on line 1; a record with a quoted line break spans several lines.
    The reader is strict: an unterminated quote or a character after a
    closing quote raises ``fail(message, row, first line)`` for the record
    it is in, rather than taking in the rows after it or dropping the
    quote."""
    reader = csv.reader(lines, strict=True)
    row, first = 0, 1
    try:
        for row, record in enumerate(reader, start=1):
            yield row, first, record
            first = reader.line_num + 1
    except csv.Error as exc:
        raise fail(f"malformed CSV: {exc}", row + 1, first) from exc


def load_table(path: Path) -> Table:
    """Read one ``<name>.csv`` file (comma separated, double-quote quoting,
    UTF-8 with any leading byte-order mark ignored, header first, header
    names nonempty and distinct). Cell values are preserved byte for byte."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _csv_records(fh, lambda msg, row, _: DatasetError(f"{path.name} row {row}: {msg}"))
        _, _, header = next(records, (1, 1, None))
        if header is None:
            return Table(path.stem, [], [])
        seen = set()
        for column, name in enumerate(header, start=1):
            if not name:
                raise DatasetError(f"{path.name}: empty header name in column {column}")
            if name in seen:
                raise DatasetError(f"{path.name}: duplicate header name {name!r}")
            seen.add(name)
        rows = []
        for rownum, _, record in records:
            if len(record) != len(header):
                raise DatasetError(
                    f"{path.name} row {rownum}: expected {len(header)} cells, got {len(record)}"
                )
            rows.append(dict(zip(header, record)))
    return Table(path.stem, list(header), rows)


def table_paths(directory: str | Path) -> list[Path]:
    """The ``<table>.csv`` files under ``directory``, sorted.

    A missing directory raises ``FileNotFoundError``, one without tables
    ``DatasetError``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"data directory not found: {directory}")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DatasetError(f"no <table>.csv files in {directory}")
    return paths


def load_dataset(directory: str | Path, main_table: str) -> Dataset:
    """Load every ``*.csv`` file under ``directory`` as one table each."""
    tables = {path.stem: load_table(path) for path in table_paths(directory)}
    if main_table not in tables:
        raise DatasetError(f"main table not found: {main_table}")
    return Dataset(tables, main_table)


def list_attributes(d: Dataset) -> list[tuple[str, str]]:
    """All (table, attribute) pairs, ordered by table name then by the
    attribute's position in its table."""
    out = []
    for name in sorted(d.tables):
        out.extend((name, a) for a in d.tables[name].attributes)
    return out


def subsample_attributes(d: Dataset, k: int, retained: set[str], seed: int) -> Dataset:
    """Return a dataset whose main table keeps the ``retained`` attributes
    plus ``k`` others sampled uniformly without replacement.

    ``random.Random(seed)`` gives each candidate, in attribute order, one
    ``random()`` draw as its key, and the ``k`` candidates with the
    smallest keys are kept, so equal inputs give byte-equal results.
    Attribute order and the other tables are left untouched. A negative
    ``k`` or ``seed`` raises ``ValueError``.
    """
    main = d.main
    kept_keys = set(retained) & set(main.attributes)
    candidates = [a for a in main.attributes if a not in kept_keys]
    if k > len(candidates):
        raise ValueError(f"k too large: {k} > {len(candidates)} non-key attributes")
    if k < 0:
        raise ValueError(f"cannot take {k} of {len(candidates)} without replacement")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # Only random() is drawn: Python keeps its sequence for an int seed
    # stable across releases, and promises that for neither sample() nor
    # randrange().
    rng = random.Random(seed)
    picked = {a for _, a in sorted((rng.random(), a) for a in candidates)[:k]}
    keep = [a for a in main.attributes if a in kept_keys or a in picked]
    rows = [{a: row[a] for a in keep} for row in main.rows]
    tables = dict(d.tables)
    tables[main.name] = Table(main.name, keep, rows)
    return Dataset(tables, d.main_table)
