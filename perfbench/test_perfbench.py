"""Tests of the benchmark's own semantics.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import measure
import run
import spans
import workloads
from freecurve import corpus, parsing

ROOT = Path(__file__).resolve().parent.parent


class Stub:
    """A corpus-shaped workload whose items return canned reports, or one
    that raises inside the library or returns wrong exponents."""

    name = "stub"
    block = 1

    def __init__(self, mode: str):
        self.mode = mode

    def call(self, item):
        entry = item.data
        if self.mode == "raises":
            parsing.parse_curve("x^")          # a ParseError from the library
        exponents = list(entry.expected["exponents"])
        if self.mode == "wrong":
            exponents[-1] += 1
        rep = SimpleNamespace(
            profile=SimpleNamespace(exponents=exponents,
                                    classification=entry.expected["classification"]),
            tau=entry.expected["tau"], verdicts=[])
        return [json.dumps(exponents)], rep

    check = workloads.Corpus.check


def _item(i: int) -> workloads.Item:
    entry = corpus.CORPUS[i % len(corpus.CORPUS)]
    return workloads.Item(entry.name, entry, i)


def test_failed_items_never_read_faster_or_smaller():
    good = [measure.attempt(Stub("ok"), _item(i)) for i in range(30)]
    raised = measure.attempt(Stub("raises"), _item(30))
    wrong = measure.attempt(Stub("wrong"), _item(31))
    assert all(o.verified for o in good)
    assert not raised.verified and not raised.wrong
    assert raised.failure.startswith("ParseError in parsing.")
    assert not wrong.verified and wrong.wrong
    assert "exponents" in wrong.failure

    base, _ = measure.summarize(good, 50.0, 8000.0)
    for bad in ([raised], [wrong], [raised, wrong]):
        mixed, facts = measure.summarize(good + bad, 50.0, 8000.0)
        assert facts["verified"] == len(good)
        wall = sum(o.seconds for o in good + bad)
        assert mixed["items_per_s"] == len(good) / wall
        assert mixed["items_per_s"] < base["items_per_s"]
        assert mixed["item_p50_s"] >= base["item_p50_s"]
        assert mixed["item_tail_s"] >= base["item_tail_s"]
        assert base["peak_rss_mb"] == 50.0 and mixed["peak_rss_mb"] == 8000.0


def test_all_failed_run_reads_worst():
    bad = [measure.attempt(Stub("raises"), _item(i)) for i in range(20)]
    metrics, _ = measure.summarize(bad, 50.0, 8000.0)
    wall = sum(o.seconds for o in bad)
    assert metrics["item_p50_s"] == metrics["item_tail_s"] == wall
    assert 0 < metrics["items_per_s"] < 1 / wall
    assert metrics["peak_rss_mb"] == 8000.0
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_fault_outside_the_library_propagates():
    class Broken(Stub):
        def call(self, item):
            raise KeyError("benchmark bug")

    try:
        measure.attempt(Broken("ok"), _item(0))
    except KeyError:
        return
    raise AssertionError("a benchmark fault was counted as a failed item")


def _run(capsys, *args) -> tuple[dict, dict]:
    assert run.main(list(args)) == 0
    diag, result = capsys.readouterr().out.splitlines()[-2:]
    return json.loads(diag), json.loads(result)


def test_output_digest_repeats(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    first = _run(capsys, "--workload", "corpus", "--seed", "3", "--seconds", "0")
    second = _run(capsys, "--workload", "corpus", "--seed", "3", "--seconds", "0")
    assert first[0]["digest_items"] == workloads.Corpus.block
    assert first[0]["output_digest"] == second[0]["output_digest"]
    assert first[1]["attempted"] == second[1]["attempted"] == workloads.Corpus.block


def test_traced_counts_repeat(capsys):
    args = ("--workload", "corpus", "--seed", "5", "--seconds", "0", "--trace", "1")
    d1, r1 = _run(capsys, *args)
    d2, r2 = _run(capsys, *args)
    counts = [m for m in r1["metrics"] if m.rsplit(".", 1)[1] in spans.COUNTS]
    assert counts
    assert {m: r1["metrics"][m] for m in counts} == {m: r2["metrics"][m] for m in counts}
    assert r1["metrics"]["syzygy.exponent_profile.calls"]["value"] == workloads.Corpus.block
    assert "trace.overhead_share" in r1["metrics"]
    assert d1["absent"] == d2["absent"] == []


def test_tracer_restores_bindings_and_marks_absent(monkeypatch):
    from freecurve import report, syzygy
    original = syzygy.exponent_profile
    monkeypatch.setitem(spans.LAYERS, "bourbaki.no_such_function", ("calls",))
    tracer = spans.Tracer()
    with tracer.installed():
        assert report.exponent_profile is not original
        assert syzygy.exponent_profile is report.exponent_profile
    assert report.exponent_profile is syzygy.exponent_profile is original
    assert tracer.absent == {"bourbaki.no_such_function"}
    assert tracer.layer_metrics()["bourbaki.no_such_function.calls"] == 0


def test_benchmark_json_matches_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
