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
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .entities import Dataset, EventLog, Impression, Interaction, InteractionKind, Item, User

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
OPT_INT = Cell(lambda raw: int(raw) if raw else 0, str)
OPT_TIMESTAMP = Cell(lambda raw: int(raw) if raw else None, lambda v: "" if v is None else str(v))
OPT_FLOAT = Cell(_coordinate, lambda v: "" if v is None else repr(v))
ID_SET = Cell(_ids, lambda s: ",".join([str(t) for t in sorted(s)]))
ID_LIST = Cell(lambda raw: [int(tok) for tok in raw.split(",")],
               lambda ids: ",".join([str(i) for i in ids]))
FLAG = Cell(_flag, {False: "0", True: "1"}.__getitem__)
KIND = Cell(_kind, {k: str(int(k)) for k in InteractionKind}.__getitem__)

# ------------------------------------------------------------- table specs
# column -> (entity field, cell kind), in file column order

Columns = Mapping[str, tuple[str, Cell]]

USER_COLUMNS: Columns = {
    "id": ("id", INT),
    "jobroles": ("jobroles", ID_SET),
    **{c: (c, OPT_INT) for c in (
        "career_level", "discipline_id", "industry_id", "country", "region",
        "experience_n_entries_class", "experience_years_experience",
        "experience_years_in_current", "edu_degree")},
    "edu_fieldofstudies": ("edu_fieldofstudies", ID_SET),
}

ITEM_COLUMNS: Columns = {
    "id": ("id", INT),
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
    "user_id": ("user_id", INT),
    "item_id": ("item_id", INT),
    "interaction_type": ("kind", KIND),
    "created_at": ("timestamp", INT),
}

# one impressions row expands to one Impression per listed item, so this
# spec only serves the header and the failure path of `load_impressions`
IMPRESSION_COLUMNS: Columns = {
    "user_id": ("user_id", INT),
    "year": ("year", INT),
    "week": ("week", INT),
    "items": ("items", ID_LIST),
}

TARGET_USER_COLUMNS: Columns = {"user_id": ("user_id", INT)}
GROUND_TRUTH_COLUMNS: Columns = {"user_id": ("user_id", INT), "items": ("items", ID_SET)}


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


def load_interactions(path: str | Path) -> list[Interaction]:
    return _read_records(path, INTERACTION_COLUMNS, Interaction)


def load_target_users(path: str | Path) -> list[int]:
    return list(_read_records(path, TARGET_USER_COLUMNS, lambda user_id: user_id, key="user_id"))


def week_index(year: int, week: int) -> int:
    """Absolute Monday-anchored week number for an ISO (year, week) pair."""
    return date.fromisocalendar(year, week, 1).toordinal() // 7


def year_week(index: int) -> tuple[int, int]:
    """Inverse of week_index."""
    iso = date.fromordinal(index * 7 + 1).isocalendar()
    return iso[0], iso[1]


def load_impressions(path: str | Path) -> list[Impression]:
    path = Path(path)
    out: list[Impression] = []
    for lineno, cells in _read_table(path, IMPRESSION_COLUMNS):
        try:
            uid, year, week, items = cells
            uid, year, week = int(uid), int(year), int(week)
            try:
                widx = week_index(year, week)
            except ValueError:
                raise ValueError(f"column 'week': {week} is not an ISO week of {year}") from None
            out.extend([Impression(uid, int(i), widx) for i in items.split(",")])
        except ValueError as exc:
            raise _row_error(path, lineno, IMPRESSION_COLUMNS, cells, exc) from None
    return out


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

    kept = {
        "interactions": [e for e in interactions if e.user_id in users and e.item_id in items],
        "impressions": [e for e in impressions if e.user_id in users and e.item_id in items],
        "target_users": [u for u in targets if u in users],
    }
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


def save_interactions(interactions: list[Interaction], path: str | Path, provenance=None) -> None:
    _write_records(path, INTERACTION_COLUMNS, interactions, provenance)


def save_impressions(impressions: list[Impression], path: str | Path, provenance=None) -> None:
    """Group per (user, week) back into challenge rows, items in log order."""
    grouped: dict[tuple[int, int], list[int]] = {}
    for im in impressions:
        grouped.setdefault((im.user_id, im.week), []).append(im.item_id)

    def rows():
        for (uid, widx), item_ids in grouped.items():
            year, week = year_week(widx)
            yield [str(uid), str(year), str(week), ID_LIST.format(item_ids)]

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
