"""The benchmark's tracer wraps jobrec functions by name; each must exist.

`bench/spans.py` lists them in `WRAPPED` as (module, attribute path,
observer). The file is parsed, not imported, so nothing under `bench/`
runs or is written.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_targets():
    """Span name -> (module, attribute path), read from the `WRAPPED` literal."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return {ast.literal_eval(k): (ast.literal_eval(v.elts[0]), ast.literal_eval(v.elts[1]))
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"no WRAPPED assignment in {SPANS}")


def test_every_wrapped_name_resolves():
    targets = wrapped_targets()
    assert "similarity.top_k_jaccard" in targets and len(targets) >= 20
    for span, (module, path) in targets.items():
        assert module.startswith("jobrec."), span
        target = reduce(getattr, path.split("."), importlib.import_module(module))
        assert callable(target), (span, module, path)


def test_dataset_attributes_the_tracer_reads(tmp_path):
    """`bench/spans.py` observers read `len(ds.interactions)`,
    `len(ds.impressions)`, `ev.max_timestamp` and `len(ev.interactions)`, and
    the worker `ev.del_items(u)`; each agrees with the files as parsed here."""
    from jobrec import dataio, synth

    dataio.save_dataset(synth.generate(synth.SynthConfig(users=30, items=50, weeks=3, seed=4)),
                        tmp_path, provenance={"stage": "synth"})

    def rows(name):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        return [line.split("\t") for line in lines if not line.startswith("#")][1:]

    interactions = [[int(c) for c in row] for row in rows("interactions.tsv")]
    shown = sum(len(row[3].split(",")) for row in rows("impressions.tsv"))
    ds = dataio.load_dataset(tmp_path)
    ev = ds.events
    assert len(ds.interactions) == len(ev.interactions) == len(interactions) > 0
    assert len(ds.impressions) == len(ev.impressions) == shown > 0
    assert ev.max_timestamp == max(row[3] for row in interactions)
    deleted = {}
    for user, item, kind, _ in interactions:
        if kind == 4:
            deleted.setdefault(user, set()).add(item)
    assert deleted
    for u in ds.users:
        assert ev.del_items(u) == deleted.get(u, set()), u


def test_generate_all_reads_as_the_benchmark_reads_it(monkeypatch):
    """`bench/spans.py` wraps `CandidateGenerator.generate` by name, and
    `bench/layers.py` and `bench/worker.py` read the lists `generate_all`
    returns: `.values()`, `.items()`, `len` of a list, `int(u) in lists` and
    `item in lists[int(u)]`. `generate_all` calls `generate` once per user,
    through the class attribute the tracer replaces."""
    from jobrec import candidates, synth

    ds = synth.generate(synth.SynthConfig(users=30, items=50, weeks=3, seed=4))
    calls = []
    generate = candidates.CandidateGenerator.generate

    def counted(self, user_id):
        calls.append(user_id)
        return generate(self, user_id)

    monkeypatch.setattr(candidates.CandidateGenerator, "generate", counted)
    users = sorted(ds.users)
    lists = candidates.CandidateGenerator(ds).generate_all(users + users[:3])
    assert calls == users

    assert sum(len(cl) for cl in lists.values()) == len(lists.item_ids) > 0
    assert [u for u, _ in lists.items()] == users
    assert sorted(u for u, cl in lists.items() if len(cl) > 0) == users
    for u in users:
        cl = lists[int(u)]
        assert int(u) in lists and all(i in cl for i in cl.items())
        assert -1 not in cl and 10**30 not in cl
    assert -1 not in lists
