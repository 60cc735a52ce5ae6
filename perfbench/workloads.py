"""The benchmark's workloads.

Each workload is a closed loop with one caller: a round is a fixed, seeded
list of calls, each call starts after the previous one returns, and the
same round is repeated for the whole run.  The constructor makes the inputs
from the seed; ``run_round`` times each call and checks its output, and
returns a ``Round`` with the latencies and the checks attempted and failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

EXPECTED_CHECKS = Path(__file__).resolve().parent / "verify_w6_checks.json"


class Round:
    """What one round produced: call latencies, checks attempted and failed, a digest."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) of each call
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.kinds: list[str] = []  # what each call was, for the summary

    def timed(self, kind: str, fn, *args):
        """Time one call; only calls made in here are traced."""
        if self.tracer is not None:
            self.tracer.request = len(self.latencies)
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            end = perf_counter()
            if self.tracer is not None:
                self.tracer.request = None
        self.latencies.append(end - start)
        self.spans.append((start, end))
        self.kinds.append(kind)
        return out

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_cli(program, argv: list[str]) -> tuple[int, str]:
    """``lyndonbar <argv>`` in this process: exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = program.layers["cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


class VerifyW6:
    """``lyndonbar verify --suite all --max-weight 6 --seed S`` from empty caches.

    That is ``run_suites(["all"], max_weight=6, seed)`` behind the CLI, with
    JSON output; one call a round.  Many lift targets share each model here,
    so the exact solves dominate.
    """

    name = "verify-w6"
    why = "the user's end-to-end job, verify --suite all --max-weight 6, cold; the lift solves dominate, so solver work shows here first"

    def __init__(self, program, seed: int) -> None:
        self.argv = ["verify", "--suite", "all", "--max-weight", "6", "--seed", str(seed), "--format", "json"]
        self.expected = json.loads(EXPECTED_CHECKS.read_text())

    def run_round(self, program, tracer=None) -> Round:
        r = Round(tracer)
        program.clear_caches()
        rc, text = r.timed("verify", run_cli, program, self.argv)
        try:
            records = json.loads(text)
        except ValueError:
            records = []
        r.check(rc == 0)
        for i, want in enumerate(self.expected):
            r.check(i < len(records) and records[i].get("check") == want and records[i].get("status") != "fail")
        for _ in records[len(self.expected):]:
            r.check(False)
        r.digest.update(text.encode())
        return r


class BarW7:
    """Bar elements over ``model_x(7)``: project, differentiate, take the cobracket.

    Each element has ``TERMS`` terms drawn from the degree-0 slice of weight
    7 (bar words of single degree-1 generators).  The tensor lengths of the
    drawn terms follow the slice's own length distribution exactly in every
    round, so the seed picks words, not how many long ones there are.  Each
    round starts from empty caches and processes the same ``ELEMENTS``.
    """

    name = "bar-w7"
    why = "bar and dgcore alone at weight-7 scale (Hain projector, d_B, delta_Q over 4568 words); no solve, so solver changes predict no change"
    WEIGHT = 7
    ELEMENTS = 160
    TERMS = 3
    SLICE_WORDS = 4568

    def __init__(self, program, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.model = program.layers["dgcore"].model_x(self.WEIGHT)
        by_len: dict[int, list] = {}
        for word in self._degree_zero_slice():
            by_len.setdefault(len(word), []).append(word)
        self.slice_words = sum(len(v) for v in by_len.values())
        self.sizes = {"slice_words": self.slice_words, "terms_per_element": self.TERMS}
        lengths = self._stratified(by_len, self.ELEMENTS * self.TERMS, rng)
        self.elements = []
        for i in range(self.ELEMENTS):
            element: dict = {}
            for length in lengths[i * self.TERMS : (i + 1) * self.TERMS]:
                word = rng.choice(by_len[length])
                while word in element:
                    word = rng.choice(by_len[length])
                element[word] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
            self.elements.append(element)

    def _degree_zero_slice(self) -> list[tuple]:
        by_weight: dict[int, list] = {}
        for g in self.model.generators:
            if g.degree == 1:
                by_weight.setdefault(g.weight, []).append(g.name)

        def words(total: int):
            if total == 0:
                yield ()
                return
            for weight in sorted(w for w in by_weight if w <= total):
                for rest in words(total - weight):
                    for name in by_weight[weight]:
                        yield ((name,),) + rest

        return list(words(self.WEIGHT))

    @staticmethod
    def _stratified(by_len: dict, total: int, rng: random.Random) -> list[int]:
        size = sum(len(v) for v in by_len.values())
        quota = {n: total * len(v) / size for n, v in by_len.items()}
        counts = {n: int(q) for n, q in quota.items()}
        for n in sorted(quota, key=lambda n: (counts[n] - quota[n], n))[: total - sum(counts.values())]:
            counts[n] += 1
        lengths = [n for n in sorted(counts) for _ in range(counts[n])]
        rng.shuffle(lengths)
        return lengths

    def _process(self, bar, element):
        projected = bar.hain_projector(element, self.model)
        d = bar.bar_differential(element, self.model)
        return projected, d, bar.delta_Q(projected, self.model)

    def run_round(self, program, tracer=None) -> Round:
        r = Round(tracer)
        bar = program.layers["bar"]
        r.check(self.slice_words == self.SLICE_WORDS)
        program.clear_caches()
        for element in self.elements:
            projected, d, dq = r.timed("element", self._process, bar, element)
            swapped = bar.tensor_swap(dq, self.model)
            r.check(
                bar.bar_differential(d, self.model) == {}
                and all(swapped.get(k) == -v for k, v in dq.items())
                and len(swapped) == len(dq)
            )
            for part in (projected, d, dq):
                r.digest.update(repr(sorted(part.items())).encode())
        return r


WORKLOADS = {w.name: w for w in (VerifyW6, BarW7)}
