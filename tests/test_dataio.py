"""TSV round trips, malformed input diagnostics, and the week bijection."""

import hashlib
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jobrec.dataio import (
    DataFormatError,
    load_dataset,
    load_ground_truth,
    load_impressions,
    load_interactions,
    load_items,
    load_target_users,
    load_users,
    read_provenance,
    save_dataset,
    save_ground_truth,
    week_index,
    year_week,
)
from jobrec import synth
from jobrec.entities import Impression, Interaction, InteractionKind, Item, User

from conftest import ev, imp, make_dataset, make_item, make_user


def sample_dataset():
    users = [
        make_user(1, jobroles=frozenset({3, 4}), career_level=2, country=5),
        make_user(2),
    ]
    items = [
        make_item(101, tags=frozenset({1, 2}), title=frozenset({9}),
                  latitude=51.0536421, longitude=13.7381437, created_at=1234567,
                  career_level=3, country=5),
        make_item(102, active=False),
    ]
    interactions = [
        ev(1, 101, "click", ts=604800 * 9 + 5),
        ev(1, 102, "delete", ts=604800 * 9 + 6),
        ev(2, 101, "bookmark", ts=604800 * 10),
    ]
    impressions = [imp(1, 101, 2350), imp(1, 102, 2350), imp(2, 101, 2351)]
    return make_dataset(users, items, interactions, impressions, targets=[1, 2])


class TestRoundTrip:
    def test_full_dataset(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.users == ds.users
        assert back.items == ds.items
        assert back.interactions == ds.interactions
        assert sorted((i.user_id, i.item_id, i.week) for i in back.impressions) == sorted(
            (i.user_id, i.item_id, i.week) for i in ds.impressions
        )
        assert back.target_users == ds.target_users

    def test_float_coordinates_bit_exact(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.items[101].latitude == 51.0536421
        assert back.items[101].longitude == 13.7381437

    def test_second_save_byte_identical(self, tmp_path):
        ds = sample_dataset()
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(ds, a)
        save_dataset(load_dataset(a), b)
        for name in ("users.tsv", "items.tsv", "interactions.tsv",
                      "impressions.tsv", "target_users.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_ground_truth_round_trip(self, tmp_path):
        truth = {5: {101, 103}, 2: {102}}
        path = tmp_path / "gt.tsv"
        save_ground_truth(truth, path)
        assert load_ground_truth(path) == truth

    def test_empty_ground_truth_set_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("user_id\titems\n1\t\n")
        with pytest.raises(DataFormatError, match="gt.tsv:2: "):
            load_ground_truth(path)


class TestProvenance:
    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text(
            "# stage=synth\n# seed=42\n"
            "user_id\titem_id\tinteraction_type\tcreated_at\n"
            "1\t101\t1\t1000\n"
        )
        events = load_interactions(path)
        assert len(events) == 1
        assert events[0].kind == InteractionKind.CLICK

    def test_read_provenance(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, tmp_path, provenance={"stage": "synth", "seed": 42})
        got = read_provenance(tmp_path / "users.tsv")
        assert got["stage"] == "synth"
        assert got["seed"] == "42"


class TestMalformedInput:
    def test_bad_integer_reports_file_and_line(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text(
            "user_id\titem_id\tinteraction_type\tcreated_at\n"
            "1\t101\t1\t1000\n"
            "2\tabc\t1\t1000\n"
        )
        with pytest.raises(DataFormatError) as err:
            load_interactions(path)
        assert "interactions.tsv:3" in str(err.value)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tjobroles\n1\t\n")
        with pytest.raises(DataFormatError):
            load_users(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text(
            "user_id\titem_id\tinteraction_type\tcreated_at\n"
            "1\t101\n"
        )
        with pytest.raises(DataFormatError):
            load_interactions(path)

    def test_unknown_kind_code_rejected(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text(
            "user_id\titem_id\tinteraction_type\tcreated_at\n"
            "1\t101\t9\t1000\n"
        )
        with pytest.raises(DataFormatError):
            load_interactions(path)

    def test_lone_latitude_rejected(self, tmp_path):
        path = tmp_path / "items.tsv"
        header = ("id\ttitle\tcareer_level\tdiscipline_id\tindustry_id\tcountry\t"
                  "region\tlatitude\tlongitude\temployment\ttags\tcreated_at\t"
                  "active_during_test\n")
        path.write_text(header + "101\t\t0\t0\t0\t0\t0\t51.05\t\t0\t\t\t1\n")
        with pytest.raises(DataFormatError, match="items.tsv:2: .*latitude and longitude"):
            load_items(path)

    ITEM_HEADER = ("id\ttitle\tcareer_level\tdiscipline_id\tindustry_id\tcountry\t"
                   "region\tlatitude\tlongitude\temployment\ttags\tcreated_at\t"
                   "active_during_test\n")

    @pytest.mark.parametrize("lat, lon, column", [
        ("nan", "13.7", "latitude"), ("51.05", "inf", "longitude"), ("-inf", "13.7", "latitude"),
        ("51.05", "NaN", "longitude"),
    ])
    def test_non_finite_coordinate_rejected(self, tmp_path, lat, lon, column):
        path = tmp_path / "items.tsv"
        path.write_text(self.ITEM_HEADER + f"101\t\t0\t0\t0\t0\t0\t{lat}\t{lon}\t0\t\t\t1\n")
        with pytest.raises(DataFormatError,
                           match=f"items.tsv:2: column '{column}': expected a finite coordinate"):
            load_items(path)

    def test_empty_coordinates_still_mean_missing(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text(self.ITEM_HEADER + "101\t\t0\t0\t0\t0\t0\t\t\t0\t\t\t1\n")
        item = load_items(path)[101]
        assert item.latitude is None and item.longitude is None

    @pytest.mark.parametrize("lat, lon", [(float("nan"), 13.7), (51.05, float("inf")),
                                          (float("-inf"), float("nan"))])
    def test_item_rejects_non_finite_coordinates(self, lat, lon):
        with pytest.raises(ValueError, match="item 101: latitude and longitude must be finite"):
            Item(101, latitude=lat, longitude=lon)


class TestUnknownReferences:
    def write_with_dangling(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, tmp_path)
        with open(tmp_path / "interactions.tsv", "a") as fh:
            fh.write("777\t101\t1\t1000\n")  # unknown user

    def test_drop_mode_removes_and_counts(self, tmp_path):
        self.write_with_dangling(tmp_path)
        ds = load_dataset(tmp_path)
        assert ds.row_counts["interactions_dropped"] == 1
        assert all(e.user_id != 777 for e in ds.interactions)


class TestEdgeCases:
    def test_empty_interactions_file(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text("user_id\titem_id\tinteraction_type\tcreated_at\n")
        assert load_interactions(path) == []

    def test_duplicate_interaction_rows_retained(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text(
            "user_id\titem_id\tinteraction_type\tcreated_at\n"
            "1\t101\t1\t1000\n"
            "1\t101\t1\t1000\n"
            "2\t101\t2\t2000\n"
        )
        assert len(load_interactions(path)) == 3

    def test_impression_row_expands_per_item(self, tmp_path):
        path = tmp_path / "impressions.tsv"
        path.write_text("user_id\tyear\tweek\titems\n7\t2015\t2\t11,12,13\n")
        rows = load_impressions(path)
        assert [r.item_id for r in rows] == [11, 12, 13]
        assert len({r.week for r in rows}) == 1


class TestWeekBijection:
    def test_round_trip_over_years(self):
        for year in range(2010, 2021):
            weeks = date(year, 12, 28).isocalendar()[1]  # 52 or 53
            for week in range(1, weeks + 1):
                idx = week_index(year, week)
                assert year_week(idx) == (year, week)

    def test_consecutive_weeks_differ_by_one(self):
        a = week_index(2015, 52)
        b = week_index(2015, 53)  # 2015 has 53 ISO weeks
        c = week_index(2016, 1)
        assert b == a + 1
        assert c == b + 1

    def test_invalid_week_rejected(self):
        with pytest.raises(ValueError):
            week_index(2016, 53)  # 2016 has only 52 ISO weeks


# one valid row per table, by column; each sweep case breaks one cell
GOOD_ROWS = {
    "users.tsv": (load_users, {
        "id": "1", "jobroles": "3,4", "career_level": "2", "discipline_id": "0",
        "industry_id": "", "country": "5", "region": "0",
        "experience_n_entries_class": "1", "experience_years_experience": "2",
        "experience_years_in_current": "1", "edu_degree": "0", "edu_fieldofstudies": "7",
    }),
    "items.tsv": (load_items, {
        "id": "101", "title": "9", "career_level": "3", "discipline_id": "0",
        "industry_id": "0", "country": "5", "region": "0", "latitude": "51.05",
        "longitude": "13.73", "employment": "1", "tags": "1,2", "created_at": "1234567",
        "active_during_test": "1",
    }),
    "interactions.tsv": (load_interactions, {
        "user_id": "1", "item_id": "101", "interaction_type": "2", "created_at": "1000",
    }),
    "impressions.tsv": (load_impressions, {
        "user_id": "7", "year": "2015", "week": "2", "items": "11,12",
    }),
    "target_users.tsv": (load_target_users, {"user_id": "1"}),
    "ground_truth.tsv": (load_ground_truth, {"user_id": "1", "items": "5,6"}),
}

BAD_CELLS = {
    "users.tsv": {
        "id": "u1", "jobroles": "3,x", "career_level": "senior", "discipline_id": "1.5",
        "industry_id": "x", "country": "de", "region": "?",
        "experience_n_entries_class": "a", "experience_years_experience": "2y",
        "experience_years_in_current": "-", "edu_degree": "msc", "edu_fieldofstudies": "7,,8",
    },
    "items.tsv": {
        "id": "", "title": "9;10", "career_level": "x", "discipline_id": "x",
        "industry_id": "x", "country": "x", "region": "x", "latitude": "north",
        "longitude": "east", "employment": "full", "tags": "1,b", "created_at": "yesterday",
        "active_during_test": "yes",
    },
    "interactions.tsv": {
        "user_id": "", "item_id": "abc", "interaction_type": "9", "created_at": "1.5",
    },
    "impressions.tsv": {"user_id": "u7", "year": "20x5", "week": "60", "items": "11,,12"},
    "target_users.tsv": {"user_id": "one"},
    "ground_truth.tsv": {"user_id": "x", "items": "5,b"},
}

SWEEP = [(name, column) for name in BAD_CELLS for column in BAD_CELLS[name]]


def write_rows(path, rows):
    """A provenance line, the header, then `rows` (row i lands on line i + 3)."""
    header = list(rows[0])
    lines = ["# stage=test", "\t".join(header)] + ["\t".join(r[c] for c in header) for r in rows]
    path.write_text("\n".join(lines) + "\n")


class TestMalformedCellSweep:
    @pytest.mark.parametrize("name,column", SWEEP, ids=[f"{n}-{c}" for n, c in SWEEP])
    def test_bad_cell_names_file_line_and_column(self, tmp_path, name, column):
        loader, good = GOOD_ROWS[name]
        write_rows(tmp_path / name, [good, {**good, column: BAD_CELLS[name][column]}])
        with pytest.raises(DataFormatError) as err:
            loader(tmp_path / name)
        assert f"{name}:4" in str(err.value)
        assert column in str(err.value)

    @pytest.mark.parametrize("name", list(GOOD_ROWS))
    def test_good_rows_load(self, tmp_path, name):
        loader, good = GOOD_ROWS[name]
        write_rows(tmp_path / name, [good])
        assert len(loader(tmp_path / name)) > 0


# a negative user or item id, per table and id column
NEGATIVE_IDS = [("users.tsv", "id", "-3"), ("items.tsv", "id", "-101"),
                ("interactions.tsv", "user_id", "-1"), ("interactions.tsv", "item_id", "-101"),
                ("impressions.tsv", "user_id", "-7"), ("impressions.tsv", "items", "11,-12"),
                ("target_users.tsv", "user_id", "-1"), ("ground_truth.tsv", "user_id", "-1"),
                ("ground_truth.tsv", "items", "5,-6")]


class TestIdRange:
    @pytest.mark.parametrize("name,column,value", NEGATIVE_IDS,
                             ids=[f"{n}-{c}" for n, c, _ in NEGATIVE_IDS])
    def test_negative_id_names_file_line_and_column(self, tmp_path, name, column, value):
        loader, good = GOOD_ROWS[name]
        write_rows(tmp_path / name, [good, {**good, column: value}])
        with pytest.raises(DataFormatError,
                           match=rf"{name}:4: column '{column}': negative id -\d+"):
            loader(tmp_path / name)

    @pytest.mark.parametrize("name,column", [("interactions.tsv", "item_id"),
                                             ("interactions.tsv", "created_at"),
                                             ("impressions.tsv", "items")])
    def test_value_beyond_int64_names_file_line_and_column(self, tmp_path, name, column):
        loader, good = GOOD_ROWS[name]
        write_rows(tmp_path / name, [good, {**good, column: str(2**63)}])
        with pytest.raises(DataFormatError, match=rf"{name}:4: column '{column}': .*int64"):
            loader(tmp_path / name)

    def test_negative_timestamp_still_loads(self, tmp_path):
        _, good = GOOD_ROWS["interactions.tsv"]
        write_rows(tmp_path / "interactions.tsv", [{**good, "created_at": "-604800"}])
        assert load_interactions(tmp_path / "interactions.tsv").timestamp.tolist() == [-604800]


class TestSavedBytes:
    """The bytes `save_dataset` writes for one small synthetic config. The
    benchmark's inputs and `bench/expected.json` depend on them."""

    SHA256 = {
        "impressions.tsv": "dee8b6081084ccd4196111df3d81795c38139106359f4b97c7fd3fc9b50c4349",
        "interactions.tsv": "d4cbbc06ad6648cc7618660a936cf32b96357220ea05bf3823c8334b286a43d3",
        "items.tsv": "9c59d496a9025c2c5949183b0243c75e617195345263239a757caf4f2611fcc1",
        "target_users.tsv": "ac21122c59d6d0dbf4faabd74dfabdbb233c31f7a0b94834061285b0cf164c49",
        "users.tsv": "4651a74d1271bd1f5c9e3e9f6d9153f4455f9368e27ed1a9c79e7c5410e6b066",
    }

    def test_synth_dataset_bytes_pinned(self, tmp_path):
        ds = synth.generate(synth.SynthConfig(users=25, items=40, weeks=3, seed=7))
        save_dataset(ds, tmp_path, provenance={"stage": "synth", "seed": 7})
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == self.SHA256
        save_dataset(load_dataset(tmp_path), tmp_path / "again", {"stage": "synth", "seed": 7})
        for name, digest in self.SHA256.items():
            assert hashlib.sha256((tmp_path / "again" / name).read_bytes()).hexdigest() == digest


class TestDuplicateKeys:
    @pytest.mark.parametrize("name,key", [
        ("users.tsv", "id"),
        ("items.tsv", "id"),
        ("target_users.tsv", "user_id"),
        ("ground_truth.tsv", "user_id"),
    ])
    def test_second_row_rejected_at_its_line(self, tmp_path, name, key):
        loader, good = GOOD_ROWS[name]
        write_rows(tmp_path / name, [{**good, key: "3"}, {**good, key: "2"}, {**good, key: "3"}])
        with pytest.raises(DataFormatError, match=rf"{name}:5: duplicate {key} 3"):
            loader(tmp_path / name)

    def test_ground_truth_rows_not_merged(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("user_id\titems\n1\t5,6\n1\t7\n")
        with pytest.raises(DataFormatError, match="gt.tsv:3: "):
            load_ground_truth(path)

    def test_repeated_target_user_fails_load_dataset(self, tmp_path):
        save_dataset(sample_dataset(), tmp_path)
        with open(tmp_path / "target_users.tsv", "a") as fh:
            fh.write("1\n")
        with pytest.raises(DataFormatError, match="target_users.tsv:4: "):
            load_dataset(tmp_path)


# -------------------------------------------------- save/load property test

ids = st.integers(min_value=0, max_value=10**6)
id_sets = st.frozensets(st.integers(min_value=0, max_value=500), max_size=4)
cats = st.integers(min_value=0, max_value=50)
coords = st.floats(allow_nan=False, allow_infinity=False, min_value=-180, max_value=180)
# ISO years with 52 and 53 weeks, so the (year, week) columns cross year ends
weeks = st.integers(min_value=2010, max_value=2020).flatmap(
    lambda y: st.integers(min_value=1, max_value=date(y, 12, 28).isocalendar()[1]).map(
        lambda w: week_index(y, w)))


@st.composite
def datasets(draw):
    user_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    item_ids = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    users = [User(u, draw(id_sets), *draw(st.tuples(*[cats] * 9)), draw(id_sets))
             for u in user_ids]
    items = []
    for i in item_ids:
        lat, lon = draw(st.just((None, None)) | st.tuples(coords, coords))
        items.append(Item(
            i, draw(id_sets), draw(id_sets), *draw(st.tuples(*[cats] * 6)),
            latitude=lat, longitude=lon,
            created_at=draw(st.none() | st.integers(min_value=0, max_value=2**40)),
            active_during_test=draw(st.booleans()),
        ))
    interactions = draw(st.lists(st.builds(
        Interaction, st.sampled_from(user_ids), st.sampled_from(item_ids),
        st.sampled_from(list(InteractionKind)), st.integers(min_value=0, max_value=2**40),
    ), max_size=12))
    # one challenge row per (user, week), expanded in the order a load yields
    rows = draw(st.dictionaries(st.tuples(st.sampled_from(user_ids), weeks),
                                st.lists(st.sampled_from(item_ids), min_size=1, max_size=4),
                                max_size=6))
    impressions = [Impression(u, i, w) for (u, w), its in rows.items() for i in its]
    targets = draw(st.lists(st.sampled_from(user_ids), unique=True))
    return make_dataset(users, items, interactions, impressions, targets=targets)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_save_load_equal_and_resave_identical(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            save_dataset(ds, a)
            back = load_dataset(a)
            assert back.users == ds.users
            assert back.items == ds.items
            assert back.interactions == ds.interactions
            assert back.impressions == ds.impressions
            assert back.target_users == ds.target_users
            save_dataset(back, b)
            for name in ("users.tsv", "items.tsv", "interactions.tsv",
                         "impressions.tsv", "target_users.tsv"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
