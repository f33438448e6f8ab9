"""Challenge-format TSV reading and writing.

All tables are UTF-8 TSV with a header row. Lines starting with '#' are
treated as provenance comments and skipped by every reader. Multi-valued
columns hold comma-separated integer ids; the empty string means "missing"
(empty set for multi-valued columns, 0 for categorical scalars, None for
latitude/longitude/created_at).

Contract at the file boundary:

- Each table is declared once, as an ordered map column -> (entity field,
  cell kind); a cell kind is one (parse, format) pair. The same map drives
  the reader and the writer, so what `save_dataset` writes, `load_dataset`
  reads back equal.
- Every malformed cell, rejected row (wrong width, an entity that refuses
  its fields) or duplicate key (user id, item id, target user, ground-truth
  user) raises `DataFormatError` naming `file:line`, and the column where
  one cell is at fault.
- User and item ids are non-negative and fit int64, in every table and in
  the ground truth; timestamps fit int64 and may be negative.
- Interactions and impressions load as int64 column tables
  (`InteractionTable`, `ImpressionTable`): each column is parsed in one
  pass, and only a column that fails is scanned row by row for the
  `file:line` of its first bad cell.
- Events and target users that name unknown user/item ids are dropped by
  `load_dataset`, counted in `Dataset.row_counts` and logged as a warning.
  A dataset built in memory is not filtered: its `Dataset.index` rejects
  any event that names an unknown user or item.
"""

from __future__ import annotations

import inspect
import logging
import math
from datetime import date
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn

import numpy as np

from .entities import (
    Dataset,
    EventLog,
    ImpressionTable,
    InteractionKind,
    InteractionTable,
    Item,
    User,
)

log = logging.getLogger(__name__)

USERS_FILE = "users.tsv"
ITEMS_FILE = "items.tsv"
INTERACTIONS_FILE = "interactions.tsv"
IMPRESSIONS_FILE = "impressions.tsv"
TARGET_USERS_FILE = "target_users.tsv"


class DataFormatError(ValueError):
    """Malformed input file; message carries file path and line number."""


# ---------------------------------------------------------------- cell kinds


class Cell(NamedTuple):
    """How one column's cell is parsed from and formatted to a string.
    `parse` raises a plain `ValueError` on a malformed cell."""

    parse: Callable[[str], object]
    format: Callable[[object], str]


_INT64_MAX = np.iinfo(np.int64).max


def _int64(raw: str) -> int:
    value = int(raw)
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise ValueError(f"{value} does not fit in int64")
    return value


def _id(raw: str) -> int:
    """A user or item id: non-negative and within int64."""
    value = _int64(raw)
    if value < 0:
        raise ValueError(f"negative id {value}")
    return value


def _ids(raw: str) -> frozenset[int]:
    return frozenset([int(tok) for tok in raw.split(",")]) if raw else frozenset()


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {raw!r}")
    return raw == "1"


_KINDS = {int(k): k for k in InteractionKind}


def _kind(raw: str) -> InteractionKind:
    kind = _KINDS.get(int(raw))
    if kind is None:
        raise ValueError(f"unknown interaction_type code {raw}")
    return kind


def _coordinate(raw: str) -> float | None:
    if not raw:
        return None
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite coordinate, got {raw!r}")
    return value


INT = Cell(int, str)
INT64 = Cell(_int64, str)
ID = Cell(_id, str)
OPT_INT = Cell(lambda raw: int(raw) if raw else 0, str)
OPT_TIMESTAMP = Cell(lambda raw: int(raw) if raw else None, lambda v: "" if v is None else str(v))
OPT_FLOAT = Cell(_coordinate, lambda v: "" if v is None else repr(v))
ID_SET = Cell(_ids, lambda s: ",".join([str(t) for t in sorted(s)]))
ID_LIST = Cell(lambda raw: [_id(tok) for tok in raw.split(",")],
               lambda ids: ",".join([str(i) for i in ids]))
ITEM_SET = Cell(lambda raw: frozenset(ID_LIST.parse(raw)) if raw else frozenset(),
                ID_SET.format)
FLAG = Cell(_flag, {False: "0", True: "1"}.__getitem__)
KIND = Cell(_kind, {k: str(int(k)) for k in InteractionKind}.__getitem__)

# ------------------------------------------------------------- table specs
# column -> (entity field, cell kind), in file column order

Columns = Mapping[str, tuple[str, Cell]]

USER_COLUMNS: Columns = {
    "id": ("id", ID),
    "jobroles": ("jobroles", ID_SET),
    **{c: (c, OPT_INT) for c in (
        "career_level", "discipline_id", "industry_id", "country", "region",
        "experience_n_entries_class", "experience_years_experience",
        "experience_years_in_current", "edu_degree")},
    "edu_fieldofstudies": ("edu_fieldofstudies", ID_SET),
}

ITEM_COLUMNS: Columns = {
    "id": ("id", ID),
    "title": ("title", ID_SET),
    **{c: (c, OPT_INT) for c in (
        "career_level", "discipline_id", "industry_id", "country", "region")},
    "latitude": ("latitude", OPT_FLOAT),
    "longitude": ("longitude", OPT_FLOAT),
    "employment": ("employment", OPT_INT),
    "tags": ("tags", ID_SET),
    "created_at": ("created_at", OPT_TIMESTAMP),
    "active_during_test": ("active_during_test", FLAG),
}

INTERACTION_COLUMNS: Columns = {
    "user_id": ("user_id", ID),
    "item_id": ("item_id", ID),
    "interaction_type": ("kind", KIND),
    "created_at": ("timestamp", INT64),
}

# one impressions row expands to one table row per listed item, so this
# spec only serves the header and the failure path of `load_impressions`
IMPRESSION_COLUMNS: Columns = {
    "user_id": ("user_id", ID),
    "year": ("year", INT),
    "week": ("week", INT),
    "items": ("items", ID_LIST),
}

TARGET_USER_COLUMNS: Columns = {"user_id": ("user_id", ID)}
GROUND_TRUTH_COLUMNS: Columns = {"user_id": ("user_id", ID), "items": ("items", ITEM_SET)}


# ---------------------------------------------------------------- provenance


def format_provenance(provenance: Mapping[str, object] | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={provenance[key]}" for key in provenance]


def read_provenance(path: str | Path) -> dict[str, str]:
    """Parse leading '# key=value' comment lines of an artifact file."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                out[key.strip()] = value.strip()
    return out


# ------------------------------------------------------------------- reading


def _read_table(path: Path, required: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells of the `required` columns in that order) per
    data row; the header may order columns freely and add others."""
    required = list(required)
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((n, line.rstrip("\n").split("\t"))
                for n, line in enumerate(fh, start=1) if not line.startswith("#"))
        try:
            _, header = next(rows)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        missing = [c for c in required if c not in header]
        if missing:
            raise DataFormatError(f"{path}:1: missing columns {missing} in header {header}")
        width = len(header)
        pos = None if header == required else [header.index(c) for c in required]
        for lineno, fields in rows:
            if len(fields) != width:
                raise DataFormatError(f"{path}:{lineno}: expected {width} columns, got {len(fields)}")
            yield lineno, fields if pos is None else [fields[p] for p in pos]


def _row_error(path: Path, lineno: int, columns: Columns, cells: list[str],
               exc: Exception) -> DataFormatError:
    """The error for a row that raised `exc`, naming the first bad cell's
    column, or only the row when every cell parses on its own."""
    for (column, (_, cell)), raw in zip(columns.items(), cells):
        try:
            cell.parse(raw)
        except ValueError as cell_exc:
            return DataFormatError(f"{path}:{lineno}: column {column!r}: {cell_exc}")
    return DataFormatError(f"{path}:{lineno}: {exc}")


def _read_records(path: str | Path, columns: Columns, make: Callable, key: str | None = None):
    """`make(*fields)` per row, fields passed in `make`'s parameter order, as
    a list; with `key`, a dict by that field's value, where a repeated value
    is rejected at its row."""
    path = Path(path)
    specs = list(columns.values())
    column_of = {name: c for c, (name, _) in enumerate(specs)}
    order = [column_of[name] for name in inspect.signature(make).parameters]
    plan = [(specs[c][1].parse, c) for c in order]
    key_at = order.index(column_of[key]) if key else None
    out: dict | list = {} if key else []
    for lineno, cells in _read_table(path, columns):
        try:
            fields = [parse(cells[c]) for parse, c in plan]
            record = make(*fields)
            if key is None:
                out.append(record)
            elif fields[key_at] in out:
                raise ValueError(f"duplicate {key} {fields[key_at]}")
            else:
                out[fields[key_at]] = record
        except ValueError as exc:
            raise _row_error(path, lineno, columns, cells, exc) from None
    return out


def load_users(path: str | Path) -> dict[int, User]:
    return _read_records(path, USER_COLUMNS, User, key="id")


def load_items(path: str | Path) -> dict[int, Item]:
    return _read_records(path, ITEM_COLUMNS, Item, key="id")


# characters of text read per run of rows by `_column_runs`
RUN_CHARS = 1 << 16


def _column_runs(path: Path, required: Iterable[str]) -> Iterator[list[list[str]]]:
    """The cells of each `required` column, in that order, for successive
    runs of data rows, each run cut from one split of about `RUN_CHARS`
    characters; the header may order columns freely and add others. At the
    run that holds a row `_read_table` rejects, fails with its error."""
    required = list(required)
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(RUN_CHARS):
            lines = [line for line in lines if line[0] != "#"]  # no line is empty
            if header is None:
                if not lines:
                    continue
                header = lines.pop(0).rstrip("\n").split("\t")
                if not set(required) <= set(header):
                    break
                width, pos = len(header), [header.index(c) for c in required]
            if set(map(str.count, lines, repeat("\t"))) - {width - 1}:
                break
            if lines:
                cells = "".join(lines).replace("\n", "\t").split("\t")
                yield [cells[p : len(lines) * width : width] for p in pos]
        else:
            if header is not None:
                return
    # no header, a header without a required column, or a row of the wrong width
    for _ in _read_table(path, required):
        pass
    raise AssertionError(f"{path}: a run of rows was rejected, but every row reads")


def _read_columns(path: Path, required: Iterable[str]) -> list[list[str]]:
    """The cells of each `required` column, in that order. A file that
    `_read_table` rejects fails with its error."""
    columns: list[list[str]] = [[] for _ in required]
    for run in _column_runs(path, required):
        for column, cells in zip(columns, run):
            column += cells
    return columns


def _int_column(cells: Iterable[str]) -> np.ndarray:
    """int64 column of cells parsed by `int`; `ValueError` on a bad cell,
    `OverflowError` on a value outside int64."""
    return np.fromiter(map(int, cells), dtype=np.int64)


def _raise_first_bad_row(path: Path, columns: Columns,
                         parse_row: Callable | None = None) -> NoReturn:
    """Raise the error of the first row `parse_row(cells)` rejects, by
    default a row with a cell its column's kind rejects: the failure path
    of a table loaded column by column."""
    parsers = [cell.parse for _, cell in columns.values()]
    parse_row = parse_row or (lambda cells: [parse(raw) for parse, raw in zip(parsers, cells)])
    for lineno, cells in _read_table(path, columns):
        try:
            parse_row(cells)
        except ValueError as exc:
            raise _row_error(path, lineno, columns, cells, exc) from None
    raise AssertionError(f"{path}: a column failed to parse, but every row parses")


def load_interactions(path: str | Path) -> InteractionTable:
    path = Path(path)
    columns = _read_columns(path, INTERACTION_COLUMNS)
    try:
        table = InteractionTable(*map(_int_column, columns))
        if (table.user_id < 0).any() or (table.item_id < 0).any() or not np.isin(
                table.kind, list(_KINDS)).all():
            raise ValueError("a user id, item id or interaction_type is out of range")
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, INTERACTION_COLUMNS)
    return table


def load_target_users(path: str | Path) -> list[int]:
    return list(_read_records(path, TARGET_USER_COLUMNS, lambda user_id: user_id, key="user_id"))


def week_index(year: int, week: int) -> int:
    """Absolute Monday-anchored week number for an ISO (year, week) pair."""
    return date.fromisocalendar(year, week, 1).toordinal() // 7


def year_week(index: int) -> tuple[int, int]:
    """Inverse of week_index."""
    iso = date.fromordinal(index * 7 + 1).isocalendar()
    return iso[0], iso[1]


def _iso_week(year: int, week: int) -> int:
    try:
        return week_index(year, week)
    except (ValueError, OverflowError):
        raise ValueError(f"column 'week': {week} is not an ISO week of {year}") from None


def _impression_row(cells: list[str]) -> None:
    uid, year, week, items = cells
    _id(uid)
    _iso_week(int(year), int(week))
    ID_LIST.parse(items)


def load_impressions(path: str | Path) -> ImpressionTable:
    """One table row per listed item, in file order."""
    path = Path(path)
    users, years, weeks, items = _read_columns(path, IMPRESSION_COLUMNS)
    try:
        year_weeks = list(zip(map(int, years), map(int, weeks)))
        week_of = {key: _iso_week(*key) for key in set(year_weeks)}
        counts = [cell.count(",") + 1 for cell in items]
        table = ImpressionTable(
            np.repeat(_int_column(users), counts),
            _int_column(",".join(items).split(",") if items else ()),
            np.repeat(_int_column(map(week_of.__getitem__, year_weeks)), counts),
        )
        if (table.user_id < 0).any() or (table.item_id < 0).any():
            raise ValueError("a user or item id is negative")
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, IMPRESSION_COLUMNS, _impression_row)
    return table


def load_dataset(directory: str | Path) -> Dataset:
    """Load the five challenge tables from a directory.

    Events and target users that reference unknown user/item ids are
    dropped; the counts are in `row_counts` and logged as a warning.
    """
    directory = Path(directory)
    users = load_users(directory / USERS_FILE)
    items = load_items(directory / ITEMS_FILE)
    interactions = load_interactions(directory / INTERACTIONS_FILE)
    impressions = load_impressions(directory / IMPRESSIONS_FILE)
    targets = load_target_users(directory / TARGET_USERS_FILE)

    user_ids, item_ids = (np.fromiter(ids, np.int64, len(ids)) for ids in (users, items))
    kept = {
        table: events[np.isin(events.user_id, user_ids) & np.isin(events.item_id, item_ids)]
        for table, events in (("interactions", interactions), ("impressions", impressions))
    }
    kept["target_users"] = [u for u in targets if u in users]
    counts = {"users": len(users), "items": len(items), "interactions": len(interactions),
              "impressions": len(impressions), "target_users": len(targets)}
    counts.update({f"{table}_dropped": counts[table] - len(rows) for table, rows in kept.items()})
    dropped = sum(counts[f"{table}_dropped"] for table in kept)
    if dropped:
        log.warning("dropped %d events with unknown user/item references", dropped)
    for table in ("users", "items", "interactions", "impressions", "target_users"):
        log.info("loaded %s: %d rows", table, counts[table])
    return Dataset(users=users, items=items,
                   events=EventLog(kept["interactions"], kept["impressions"]),
                   target_users=kept["target_users"], row_counts=counts)


# ------------------------------------------------------------------- writing


def _write_tsv(path: Path, header: list[str], rows: Iterable[Iterable[str]], provenance=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in format_provenance(provenance):
            fh.write(line + "\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _write_records(path: str | Path, columns: Columns, records: Iterable, provenance=None) -> None:
    # formatted column by column, so a `str` cell costs no Python-level call
    records = list(records)
    cells = [map(cell.format, map(attrgetter(name), records)) for name, cell in columns.values()]
    _write_tsv(Path(path), list(columns), zip(*cells), provenance)


def save_interactions(table: InteractionTable, path: str | Path, provenance=None) -> None:
    cells = [map(cell.format, getattr(table, name).tolist())
             for name, cell in INTERACTION_COLUMNS.values()]
    _write_tsv(Path(path), list(INTERACTION_COLUMNS), zip(*cells), provenance)


def save_impressions(table: ImpressionTable, path: str | Path, provenance=None) -> None:
    """Group per (user, week) back into challenge rows, in order of each
    group's first row, items in row order."""
    _, first, group = np.unique(np.stack([table.user_id, table.week], axis=1), axis=0,
                                return_index=True, return_inverse=True)
    starts = first[group]  # each row's group, named by the group's first row
    order = np.argsort(starts, kind="stable")
    bounds = np.flatnonzero(np.diff(starts[order], prepend=-1)).tolist() + [len(table)]
    users, weeks, items = (c[order].tolist() for c in (table.user_id, table.week, table.item_id))
    year_weeks = {w: tuple(map(str, year_week(w))) for w in set(weeks)}

    def rows():
        for a, b in zip(bounds, bounds[1:]):
            yield [str(users[a]), *year_weeks[weeks[a]], ID_LIST.format(items[a:b])]

    _write_tsv(Path(path), list(IMPRESSION_COLUMNS), rows(), provenance)


def save_dataset(dataset: Dataset, directory: str | Path, provenance=None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_records(directory / USERS_FILE, USER_COLUMNS, dataset.users.values(), provenance)
    _write_records(directory / ITEMS_FILE, ITEM_COLUMNS, dataset.items.values(), provenance)
    save_interactions(dataset.interactions, directory / INTERACTIONS_FILE, provenance)
    save_impressions(dataset.impressions, directory / IMPRESSIONS_FILE, provenance)
    _write_tsv(directory / TARGET_USERS_FILE, list(TARGET_USER_COLUMNS),
               ([str(u)] for u in dataset.target_users), provenance)


# -------------------------------------------------------- ground truth files


def save_ground_truth(truth: dict[int, set[int]], path: str | Path, provenance=None) -> None:
    rows = ([str(u), ID_SET.format(truth[u])] for u in sorted(truth))
    _write_tsv(Path(path), list(GROUND_TRUTH_COLUMNS), rows, provenance)


def _truth_items(user_id: int, items: frozenset[int]) -> set[int]:
    if not items:
        raise ValueError(f"empty ground-truth item set for user {user_id}")
    return set(items)


def load_ground_truth(path: str | Path) -> dict[int, set[int]]:
    return _read_records(path, GROUND_TRUTH_COLUMNS, _truth_items, key="user_id")
