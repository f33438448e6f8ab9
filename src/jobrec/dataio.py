"""Challenge-format TSV reading and writing.

All tables are UTF-8 TSV with a header row. Lines starting with '#' are
treated as provenance comments and skipped by every reader. Multi-valued
columns hold comma-separated integer ids; the empty string means "missing"
(empty set for multi-valued columns, 0 for categorical scalars, None for
latitude/longitude/created_at).
"""

from __future__ import annotations

import logging
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .entities import (
    Dataset,
    EventLog,
    Impression,
    Interaction,
    InteractionKind,
    Item,
    User,
)

log = logging.getLogger(__name__)

USERS_FILE = "users.tsv"
ITEMS_FILE = "items.tsv"
INTERACTIONS_FILE = "interactions.tsv"
IMPRESSIONS_FILE = "impressions.tsv"
TARGET_USERS_FILE = "target_users.tsv"

USER_COLUMNS = [
    "id",
    "jobroles",
    "career_level",
    "discipline_id",
    "industry_id",
    "country",
    "region",
    "experience_n_entries_class",
    "experience_years_experience",
    "experience_years_in_current",
    "edu_degree",
    "edu_fieldofstudies",
]

ITEM_COLUMNS = [
    "id",
    "title",
    "career_level",
    "discipline_id",
    "industry_id",
    "country",
    "region",
    "latitude",
    "longitude",
    "employment",
    "tags",
    "created_at",
    "active_during_test",
]

INTERACTION_COLUMNS = ["user_id", "item_id", "interaction_type", "created_at"]
IMPRESSION_COLUMNS = ["user_id", "year", "week", "items"]

KIND_CODES: dict[int, InteractionKind] = {
    1: InteractionKind.CLICK,
    2: InteractionKind.BOOKMARK,
    3: InteractionKind.REPLY,
    4: InteractionKind.DELETE,
}


class DataFormatError(ValueError):
    """Malformed input file; message carries file path and line number."""


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


# ------------------------------------------------------------------- parsing


def _iter_rows(path: Path) -> Iterable[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                continue
            yield lineno, line.rstrip("\n").split("\t")


def _header_map(path: Path, fields: list[str], required: list[str]) -> dict[str, int]:
    mapping = {name: pos for pos, name in enumerate(fields)}
    missing = [c for c in required if c not in mapping]
    if missing:
        raise DataFormatError(f"{path}:1: missing columns {missing} in header {fields}")
    return mapping


def _int_field(path: Path, lineno: int, raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: column {column!r} is not an integer: {raw!r}") from None


def _opt_int(path: Path, lineno: int, raw: str, column: str) -> int:
    return 0 if raw == "" else _int_field(path, lineno, raw, column)


def _opt_float(path: Path, lineno: int, raw: str, column: str) -> float | None:
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: column {column!r} is not a float: {raw!r}") from None


def _id_set(path: Path, lineno: int, raw: str, column: str) -> frozenset[int]:
    if raw == "":
        return frozenset()
    try:
        return frozenset(int(tok) for tok in raw.split(","))
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: column {column!r} is not a comma-separated id list: {raw!r}") from None


def _read_table(path: Path, required: list[str]):
    rows = _iter_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file, expected a header row") from None
    cols = _header_map(path, header, required)
    width = len(header)
    for lineno, fields in rows:
        if len(fields) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} columns, got {len(fields)}"
            )
        yield lineno, cols, fields


# ------------------------------------------------------------------- loaders


def load_users(path: str | Path) -> dict[int, User]:
    path = Path(path)
    users: dict[int, User] = {}
    for lineno, cols, f in _read_table(path, USER_COLUMNS):
        uid = _int_field(path, lineno, f[cols["id"]], "id")
        users[uid] = User(
            id=uid,
            jobroles=_id_set(path, lineno, f[cols["jobroles"]], "jobroles"),
            career_level=_opt_int(path, lineno, f[cols["career_level"]], "career_level"),
            discipline_id=_opt_int(path, lineno, f[cols["discipline_id"]], "discipline_id"),
            industry_id=_opt_int(path, lineno, f[cols["industry_id"]], "industry_id"),
            country=_opt_int(path, lineno, f[cols["country"]], "country"),
            region=_opt_int(path, lineno, f[cols["region"]], "region"),
            experience_n_entries_class=_opt_int(
                path, lineno, f[cols["experience_n_entries_class"]], "experience_n_entries_class"
            ),
            experience_years_experience=_opt_int(
                path, lineno, f[cols["experience_years_experience"]], "experience_years_experience"
            ),
            experience_years_in_current=_opt_int(
                path, lineno, f[cols["experience_years_in_current"]], "experience_years_in_current"
            ),
            edu_degree=_opt_int(path, lineno, f[cols["edu_degree"]], "edu_degree"),
            edu_fieldofstudies=_id_set(
                path, lineno, f[cols["edu_fieldofstudies"]], "edu_fieldofstudies"
            ),
        )
    return users


def load_items(path: str | Path) -> dict[int, Item]:
    path = Path(path)
    items: dict[int, Item] = {}
    for lineno, cols, f in _read_table(path, ITEM_COLUMNS):
        iid = _int_field(path, lineno, f[cols["id"]], "id")
        created_raw = f[cols["created_at"]]
        items[iid] = Item(
            id=iid,
            title=_id_set(path, lineno, f[cols["title"]], "title"),
            tags=_id_set(path, lineno, f[cols["tags"]], "tags"),
            career_level=_opt_int(path, lineno, f[cols["career_level"]], "career_level"),
            discipline_id=_opt_int(path, lineno, f[cols["discipline_id"]], "discipline_id"),
            industry_id=_opt_int(path, lineno, f[cols["industry_id"]], "industry_id"),
            country=_opt_int(path, lineno, f[cols["country"]], "country"),
            region=_opt_int(path, lineno, f[cols["region"]], "region"),
            employment=_opt_int(path, lineno, f[cols["employment"]], "employment"),
            latitude=_opt_float(path, lineno, f[cols["latitude"]], "latitude"),
            longitude=_opt_float(path, lineno, f[cols["longitude"]], "longitude"),
            created_at=None if created_raw == "" else _int_field(path, lineno, created_raw, "created_at"),
            active_during_test=f[cols["active_during_test"]] == "1",
        )
    return items


def load_interactions(path: str | Path) -> list[Interaction]:
    path = Path(path)
    out: list[Interaction] = []
    for lineno, cols, f in _read_table(path, INTERACTION_COLUMNS):
        code = _int_field(path, lineno, f[cols["interaction_type"]], "interaction_type")
        kind = KIND_CODES.get(code)
        if kind is None:
            raise DataFormatError(f"{path}:{lineno}: unknown interaction_type code {code}")
        out.append(
            Interaction(
                user_id=_int_field(path, lineno, f[cols["user_id"]], "user_id"),
                item_id=_int_field(path, lineno, f[cols["item_id"]], "item_id"),
                kind=kind,
                timestamp=_int_field(path, lineno, f[cols["created_at"]], "created_at"),
            )
        )
    return out


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
    for lineno, cols, f in _read_table(path, IMPRESSION_COLUMNS):
        uid = _int_field(path, lineno, f[cols["user_id"]], "user_id")
        year = _int_field(path, lineno, f[cols["year"]], "year")
        week = _int_field(path, lineno, f[cols["week"]], "week")
        try:
            widx = week_index(year, week)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: invalid ISO year/week {year}/{week}") from None
        for iid in f[cols["items"]].split(","):
            if iid == "":
                raise DataFormatError(f"{path}:{lineno}: empty item id in impression list")
            out.append(Impression(user_id=uid, item_id=_int_field(path, lineno, iid, "items"), week=widx))
    return out


def load_target_users(path: str | Path) -> list[int]:
    path = Path(path)
    out: list[int] = []
    for lineno, cols, f in _read_table(path, ["user_id"]):
        out.append(_int_field(path, lineno, f[cols["user_id"]], "user_id"))
    return out


def load_dataset(directory: str | Path, on_unknown_ref: str = "drop") -> Dataset:
    """Load the five challenge tables from a directory.

    on_unknown_ref: "drop" silently removes events referencing unknown
    user/item ids (counts reported), "fail" raises instead.
    """
    if on_unknown_ref not in ("drop", "fail"):
        raise ValueError(f"on_unknown_ref must be 'drop' or 'fail', got {on_unknown_ref!r}")
    directory = Path(directory)
    users = load_users(directory / USERS_FILE)
    items = load_items(directory / ITEMS_FILE)
    interactions = load_interactions(directory / INTERACTIONS_FILE)
    impressions = load_impressions(directory / IMPRESSIONS_FILE)
    targets = load_target_users(directory / TARGET_USERS_FILE)

    counts = {
        "users": len(users),
        "items": len(items),
        "interactions": len(interactions),
        "impressions": len(impressions),
        "target_users": len(targets),
    }

    def known(u: int, i: int) -> bool:
        return u in users and i in items

    kept_int = [e for e in interactions if known(e.user_id, e.item_id)]
    kept_imp = [e for e in impressions if known(e.user_id, e.item_id)]
    kept_targets = [u for u in targets if u in users]
    dropped = (
        (len(interactions) - len(kept_int))
        + (len(impressions) - len(kept_imp))
        + (len(targets) - len(kept_targets))
    )
    if dropped and on_unknown_ref == "fail":
        raise DataFormatError(
            f"{directory}: {dropped} events reference unknown user/item ids"
        )
    counts["interactions_dropped"] = len(interactions) - len(kept_int)
    counts["impressions_dropped"] = len(impressions) - len(kept_imp)
    counts["target_users_dropped"] = len(targets) - len(kept_targets)
    if dropped:
        log.warning("dropped %d events with unknown user/item references", dropped)
    for table in ("users", "items", "interactions", "impressions", "target_users"):
        log.info("loaded %s: %d rows", table, counts[table])

    return Dataset(
        users=users,
        items=items,
        events=EventLog(kept_int, kept_imp),
        target_users=kept_targets,
        row_counts=counts,
    )


# ------------------------------------------------------------------- writers


def _fmt_set(s: frozenset[int]) -> str:
    return ",".join(str(t) for t in sorted(s))


def _fmt_opt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_tsv(path: Path, header: list[str], rows: Iterable[list[str]], provenance=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in format_provenance(provenance):
            fh.write(line + "\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def save_users(users: dict[int, User], path: str | Path, provenance=None) -> None:
    rows = (
        [
            str(u.id),
            _fmt_set(u.jobroles),
            str(u.career_level),
            str(u.discipline_id),
            str(u.industry_id),
            str(u.country),
            str(u.region),
            str(u.experience_n_entries_class),
            str(u.experience_years_experience),
            str(u.experience_years_in_current),
            str(u.edu_degree),
            _fmt_set(u.edu_fieldofstudies),
        ]
        for u in users.values()
    )
    _write_tsv(Path(path), USER_COLUMNS, rows, provenance)


def save_items(items: dict[int, Item], path: str | Path, provenance=None) -> None:
    rows = (
        [
            str(it.id),
            _fmt_set(it.title),
            str(it.career_level),
            str(it.discipline_id),
            str(it.industry_id),
            str(it.country),
            str(it.region),
            _fmt_opt(it.latitude),
            _fmt_opt(it.longitude),
            str(it.employment),
            _fmt_set(it.tags),
            _fmt_opt(it.created_at),
            "1" if it.active_during_test else "0",
        ]
        for it in items.values()
    )
    _write_tsv(Path(path), ITEM_COLUMNS, rows, provenance)


def save_interactions(interactions: list[Interaction], path: str | Path, provenance=None) -> None:
    rows = (
        [str(e.user_id), str(e.item_id), str(int(e.kind)), str(e.timestamp)]
        for e in interactions
    )
    _write_tsv(Path(path), INTERACTION_COLUMNS, rows, provenance)


def save_impressions(impressions: list[Impression], path: str | Path, provenance=None) -> None:
    """Group per (user, week) back into challenge rows, items in log order."""
    grouped: dict[tuple[int, int], list[int]] = {}
    for im in impressions:
        grouped.setdefault((im.user_id, im.week), []).append(im.item_id)

    def rows():
        for (uid, widx), item_ids in grouped.items():
            year, week = year_week(widx)
            yield [str(uid), str(year), str(week), ",".join(str(i) for i in item_ids)]

    _write_tsv(Path(path), IMPRESSION_COLUMNS, rows(), provenance)


def save_target_users(target_users: list[int], path: str | Path, provenance=None) -> None:
    _write_tsv(Path(path), ["user_id"], ([str(u)] for u in target_users), provenance)


def save_dataset(dataset: Dataset, directory: str | Path, provenance=None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_users(dataset.users, directory / USERS_FILE, provenance)
    save_items(dataset.items, directory / ITEMS_FILE, provenance)
    save_interactions(dataset.interactions, directory / INTERACTIONS_FILE, provenance)
    save_impressions(dataset.impressions, directory / IMPRESSIONS_FILE, provenance)
    save_target_users(dataset.target_users, directory / TARGET_USERS_FILE, provenance)


# -------------------------------------------------------- ground truth files


def save_ground_truth(truth: dict[int, set[int]], path: str | Path, provenance=None) -> None:
    rows = (
        [str(u), ",".join(str(i) for i in sorted(truth[u]))]
        for u in sorted(truth)
    )
    _write_tsv(Path(path), ["user_id", "items"], rows, provenance)


def load_ground_truth(path: str | Path) -> dict[int, set[int]]:
    path = Path(path)
    truth: dict[int, set[int]] = {}
    for lineno, cols, f in _read_table(path, ["user_id", "items"]):
        uid = _int_field(path, lineno, f[cols["user_id"]], "user_id")
        items = _id_set(path, lineno, f[cols["items"]], "items")
        if not items:
            raise DataFormatError(f"{path}:{lineno}: empty ground-truth item set for user {uid}")
        truth[uid] = set(items)
    return truth
