"""The benchmark's workloads: seeded inputs, one item's library calls, and
the checks on its results.

An item runs the public calls the CLI makes for it, and builds every object
from plain data (a corpus builder, the text of a ``.lines`` file), so no
item reuses work that an earlier item did on the same input.  ``check``
compares an item's results with values that do not come from them and
returns the problems it found; an empty list means the item verified.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "freecurve" / "__init__.py").is_file():
    raise ImportError(f"the freecurve sources are not in {_SRC}; "
                      "run the benchmark from a checkout of the repository")
sys.path.insert(0, str(_SRC))

from freecurve import __version__, arrangement, corpus, parsing, report  # noqa: E402


@dataclass(frozen=True)
class Item:
    label: str
    data: object      # plain input data; the item builds its objects from it
    seed: int         # seed of the rng the library receives


def _lines_text(A) -> str:
    """The arrangement as a ``.lines`` file, the input ``freecurve`` reads."""
    return "".join(" ".join(str(c) for c in line.rational_coeffs()) + "\n"
                   for line in A.lines)


def _failed_verdicts(rep) -> list[str]:
    return [f"verdict {v.name}" for v in rep.verdicts if v.applicable and not v.ok]


class Corpus:
    """The builtin corpus, entry by entry as ``freecurve verify --corpus
    builtin`` runs it, in a seeded order that changes from pass to pass."""

    name = "corpus"
    block = len(corpus.CORPUS)   # items in a traced block and in the digest
    passes = 16                  # passes in the pool; a run cycles through it

    def make_items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for _ in range(self.passes):
            order = list(corpus.CORPUS)
            rng.shuffle(order)
            items += [Item(e.name, e, rng.getrandbits(32)) for e in order]
        return items

    def call(self, item: Item):
        entry = item.data
        rng = random.Random(item.seed)
        A = entry.arrangement()
        if A is not None:
            rep = report.analyze(A.defining_polynomial(), arrangement=A, rng=rng)
        else:
            ci = parsing.parse_curve(entry.text, rng=rng)
            rep = report.analyze(ci.poly, e=ci.components, arrangement=ci.lines,
                                 mu_mode=entry.mu_mode, rng=rng)
        text = report.dumps_canonical(
            report.report_to_dict(rep, entry.name, seed=item.seed))
        return [text], rep

    def check(self, item: Item, rep) -> list[str]:
        expected = item.data.expected
        got = {"exponents": rep.profile.exponents,
               "classification": rep.profile.classification, "tau": rep.tau}
        return ([k for k, v in got.items() if v != expected[k]]
                + _failed_verdicts(rep))


def _general_position(A) -> bool:
    """No three lines of A pass through one point."""
    for a, b, c in itertools.combinations([line.coeffs for line in A.lines], 3):
        if (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) == 0:
            return False
    return True


class Generic:
    """Seeded random 6-line arrangements in general position, as ``freecurve
    arrangement`` runs a ``.lines`` file.

    Arrangements with a triple point are dropped: they have one syzygy
    generator fewer and take about a quarter of the time, and mixing the two
    kinds puts the median between two modes.
    """

    name = "generic"
    lines = 6
    block = 4
    pool = 64

    def make_items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        while len(items) < self.pool:
            A = arrangement.random_arrangement(rng, self.lines)
            if _general_position(A):
                items.append(Item(f"generic-{len(items)}", _lines_text(A),
                                  rng.getrandbits(32)))
        return items

    def call(self, item: Item):
        A = parsing.parse_lines_file(item.data)
        rep = report.analyze(A.defining_polynomial(), arrangement=A,
                             rng=random.Random(item.seed))
        text = report.dumps_canonical(
            report.report_to_dict(rep, item.label, seed=item.seed))
        return [text], rep

    def check(self, item: Item, rep) -> list[str]:
        return _failed_verdicts(rep)


class Free:
    """Seeded random free arrangements of 7, 8 or 9 lines and a seeded line
    j: ``freecurve delete`` of line j and, when the deletion is free,
    ``freecurve add`` of it back, as the ``--free`` campaign does."""

    name = "free"
    degrees = (7, 8, 9)
    block = 3
    pool = 128

    def make_items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for i in range(self.pool):
            # every three consecutive items use each degree once, so a run's
            # mix of sizes does not depend on the seed
            if i % len(self.degrees) == 0:
                order = rng.sample(self.degrees, len(self.degrees))
            d = order[i % len(self.degrees)]
            A = arrangement.random_free_arrangement(rng, d)
            items.append(Item(f"free-{i}", (_lines_text(A), rng.randrange(d)), 0))
        return items

    def call(self, item: Item):
        text, j = item.data
        A = parsing.parse_lines_file(text)
        rec = arrangement.deletion_classify(A, j)
        texts = [report.dumps_canonical({
            "version": __version__, "input": item.label, "command": "delete",
            "line": j, "r": rec.r, "case": rec.case,
            "parent_exponents": rec.parent_exponents,
            "deleted_exponents": rec.deleted_profile.exponents,
            "deleted_classification": rec.deleted_profile.classification,
            "deleted_free": rec.deleted_free,
            "freeness_iff_ok": rec.freeness_iff_ok,
        })]
        back = None
        if rec.deleted_free:
            back = arrangement.addition_classify(A.delete(j), A.lines[j])
            texts.append(report.dumps_canonical({
                "version": __version__, "input": item.label, "command": "add",
                "line": [str(c) for c in A.lines[j].rational_coeffs()],
                "r": back.r, "case": back.case,
                "base_exponents": back.base_exponents,
                "extended_exponents": back.extended_profile.exponents,
                "extended_classification": back.extended_profile.classification,
                "extended_free": back.extended_free,
                "freeness_iff_ok": back.freeness_iff_ok,
            }))
        return texts, (A, rec, back)

    def check(self, item: Item, facts) -> list[str]:
        A, rec, back = facts
        problems = []
        d1, d2 = rec.parent_exponents
        if d1 + d2 != A.d - 1:
            problems.append("free exponents do not sum to d - 1")
        if (A.d - 1) ** 2 - d1 * d2 != arrangement.combinatorial_tau_mu(A):
            problems.append("tau")
        if not rec.freeness_iff_ok:
            problems.append("deletion iff")
        if back is not None:
            if not back.freeness_iff_ok:
                problems.append("addition iff")
            if back.extended_profile.exponents != rec.parent_exponents:
                problems.append("round trip")
        return problems


WORKLOADS = {w.name: w for w in (Corpus(), Generic(), Free())}
