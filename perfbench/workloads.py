"""The four benchmark workloads: seeded inputs, timed passes, output checks.

A workload draws its inputs from the seed once and writes them as the text
files a user would pass to ``polyshift``.  A run then makes passes over the
same items: ``run_pass`` drives the public entry points and returns the wall
time, one latency per item and what the program produced.  ``check`` runs
after the timed region; it verifies the first pass against answers the
benchmark computes itself and requires every later pass to reproduce the
first, so it also catches a traced pass that differs from an untraced one.

Every pass carries a ``SpeedProbe``: between items it times a fixed
pure-Python loop, and the pass reports how much slower than the reference
speed the machine ran, so that its times can be scaled to that speed.

Only ``polyshift`` names are used, looked up on the package at call time, so
a tracer that replaces module attributes sees every call made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import polyshift as ps
import polyshift.cli  # noqa: F401  (binds ps.cli)

# result fields compared between passes of a campaign; rows may gain other
# fields (counters) without breaking the comparison
FUZZ_FIELDS = ("index", "seed", "pd", "matroidal", "hs_polymatroidal", "max_pd", "flags")


@dataclass
class PassResult:
    """One timed pass: wall seconds, per-item latency and per-item output.

    ``wall_s`` leaves out the probe's own loops; ``slowdown`` is the probe's
    mean loop time over ``REFERENCE_LOOP_S``.
    """

    wall_s: float
    latencies_ms: list[float]
    outputs: Any
    slowdown: float


# the probe's loop at reference speed: about its mean on one vCPU of a
# shared 2-core 2.1 GHz Xeon VM with the other vCPU idle
REFERENCE_LOOP_S = 0.0018


def _reference_loop() -> int:
    """A fixed pure-Python loop that allocates no arrays, so its time depends
    on the machine and not on what the workload left in memory (a numpy
    loop that allocated ran 0.6x to 1.2x as long depending on the workload)."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Measures the machine's speed between the items of a pass.

    On a shared host the same pass can run half again as long minutes
    later, as the load that other tenants put on the host changes.
    After each item the probe runs the reference loop once per ``EVERY_S``
    of wall time since it last ran, about 4% of the pass, so it samples the
    speed evenly over the pass.  Wall time divided by ``slowdown()`` is the
    time the pass would take at the reference speed.
    """

    EVERY_S = 0.05

    def __init__(self):
        self.loops = 0
        self.spent_s = 0.0
        self.last = perf_counter()

    def after_item(self) -> float:
        """Run the due loops; return the time they ended."""
        return self._run(int((perf_counter() - self.last) / self.EVERY_S))

    def _run(self, loops: int) -> float:
        start = perf_counter()
        if not loops:
            return start
        for _ in range(loops):
            _reference_loop()
        self.last = perf_counter()
        self.loops += loops
        self.spent_s += self.last - start
        return self.last

    def slowdown(self) -> float:
        if not self.loops:  # a pass shorter than EVERY_S
            self._run(1)
        return self.spent_s / self.loops / REFERENCE_LOOP_S


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CliWorkload:
    """Items are ``polyshift`` command lines over generated input files.

    The first pass keeps each report; later passes keep a digest of it, which
    ``check`` compares with the first pass.
    """

    name = ""
    ARGS: tuple[str, ...] = ()  # the subcommand, then options after --input

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.items: list[Any] = []
        self.argv: list[list[str]] = []
        self._passes = 0

    def setup(self) -> None:
        """Draw the inputs and write one file per item."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.items = self.generate()
        self.argv = []
        for k, item in enumerate(self.items):
            path = self.workdir / f"{self.name}-{k:05d}.txt"
            path.write_text(self.document(item) + "\n", encoding="utf-8")
            self.argv.append([self.ARGS[0], "--input", str(path), *self.ARGS[1:]])

    def generate(self) -> list[Any]:
        raise NotImplementedError

    def document(self, item: Any) -> str:
        return ps.format_spec(item)

    def run_pass(self, tracer=None, limit: Optional[int] = None) -> PassResult:
        """Run the first ``limit`` items (all by default) once each."""
        keep_text = self._passes == 0
        self._passes += 1
        latencies, outputs = [], []
        speed = SpeedProbe()
        start = perf_counter()
        for k, argv in enumerate(self.argv[:limit]):
            if tracer is not None:
                tracer.item = k
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = ps.cli.main(argv)
            except Exception as exc:  # an item that raises counts as failed
                rc = f"exception: {exc!r}"
            latencies.append((perf_counter() - t0) * 1000.0)
            text = out.getvalue()
            outputs.append((rc, text if keep_text else _digest(text)))
            speed.after_item()
        wall = perf_counter() - start - speed.spent_s
        return PassResult(wall, latencies, outputs, speed.slowdown())

    def check(self, passes: list[PassResult]) -> list[list[bool]]:
        """Per pass, per item: whether that execution failed."""
        first = passes[0].outputs
        good = []
        for k, (rc, text) in enumerate(first):
            ok = rc == 0
            if ok:
                try:
                    ok = self.check_report(k, json.loads(text))
                except (ValueError, KeyError, TypeError):
                    ok = False
            good.append(ok)
        digests = [_digest(text) for _, text in first]
        verdicts = [[not ok for ok in good]]
        for p in passes[1:]:
            verdicts.append(
                [
                    not (good[k] and rc == 0 and digest == digests[k])
                    for k, (rc, digest) in enumerate(p.outputs)
                ]
            )
        return verdicts

    def check_report(self, k: int, report: dict) -> bool:
        raise NotImplementedError


def _certificate(ideal):
    cert = ps.certify_lex(ideal)
    if not isinstance(cert, ps.QuotientCertificate):
        raise ValueError("no lex certificate")
    return cert


def _certificate_totals(cert) -> dict[str, int]:
    totals = {}
    for j in range(cert.projective_dimension + 1):
        t = ps.total_betti_from_certificate(cert, j)
        if t:
            totals[str(j)] = t
    return totals


class BettiVeronese(CliWorkload):
    """``polyshift betti --json`` on Veronese-type family documents.

    The population is every degree d in {4, 5} and bound multiset from
    {2, 3, 4}^5 whose ideal has 59 to 93 generators; each pass runs each one
    once.  A table's cost depends on the multiset, not the order of the
    bounds, so every seed gets the same mix of large and small lattices; the
    seed orders the bounds of each document and the documents in the pass.
    """

    name = "betti-veronese"
    ARGS = ("betti", "--json")
    GEN_RANGE = (59, 93)
    TINY_GEN_RANGE = (12, 15)

    def generate(self):
        rng = random.Random(self.seed)
        lo, hi = self.TINY_GEN_RANGE if self.tiny else self.GEN_RANGE
        degrees = (2,) if self.tiny else (4, 5)
        bound_values = (1, 2) if self.tiny else (2, 3, 4)
        specs = []
        for d in degrees:
            for multiset in itertools.combinations_with_replacement(bound_values, 5):
                bounds = list(multiset)
                rng.shuffle(bounds)
                spec = ps.VeroneseSpec(tuple(bounds), d)
                if lo <= ps.realize(spec).num_gens <= hi:
                    specs.append(spec)
        rng.shuffle(specs)
        return specs

    def check_report(self, k, report):
        return report["totals"] == _certificate_totals(
            _certificate(ps.realize(self.items[k]))
        )


def cycle_exponents(n: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the edges x_i x_{i+1} of the n-cycle."""
    out = []
    for i in range(n):
        e = [0] * n
        e[i] = e[(i + 1) % n] = 1
        out.append(tuple(e))
    return out


def _path_sphere(m: int) -> Optional[int]:
    """The independence complex of a path on m vertices is contractible when
    m = 3k + 1 and otherwise a sphere; return its dimension (Kozlov)."""
    k, r = divmod(m, 3)
    return None if r == 1 else (k - 1 if r == 0 else k)


def cycle_betti(n: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """Multigraded Betti numbers of the n-cycle's edge ideal, without the oracle.

    By Hochster's formula beta_{i,s}(I) is the reduced homology, in degree
    |s| - i - 2, of the independence complex of the subgraph induced on s.
    For a proper subset that subgraph is a disjoint union of paths, so the
    complex is a join of path complexes: contractible if one factor is, else
    a sphere whose dimension is the sum of the factors' dimensions plus one
    per join.  The whole cycle's complex is two (k-1)-spheres wedged for
    n = 3k, S^(k-1) for n = 3k + 1 and S^k for n = 3k + 2.
    """
    table = {}
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size == n:
            k, r = divmod(n, 3)
            dim, rank = (k - 1, 2) if r == 0 else (k - 1 if r == 1 else k, 1)
        else:
            start = next(v for v in range(n) if not mask >> v & 1)
            bits = "".join(
                "1" if mask >> ((start + 1 + s) % n) & 1 else "0" for s in range(n)
            )
            dims = [_path_sphere(len(run)) for run in bits.split("0") if run]
            if None in dims:
                continue
            dim, rank = sum(d + 1 for d in dims) - 1, 1
        exps = tuple(mask >> v & 1 for v in range(n))
        table[(size - dim - 2, exps)] = rank
    return table


class BettiCycles(CliWorkload):
    """``polyshift betti --json`` on edge ideals of the 10- and 11-cycle.

    Each pass runs one seeded relabelling of each cycle, written as a
    generator list in seeded order.  The expected table is the relabelling
    of ``cycle_betti``, which does not use the program's oracle.
    """

    name = "betti-cycles"
    ARGS = ("betti", "--json")
    SIZES = (10, 11)
    TINY_SIZES = (5, 6)

    def generate(self):
        rng = random.Random(self.seed)
        items = []
        for n in self.TINY_SIZES if self.tiny else self.SIZES:
            perm = list(range(n))
            rng.shuffle(perm)  # variable i+1 becomes variable perm[i]+1
            gens = [_relabel(e, perm) for e in cycle_exponents(n)]
            rng.shuffle(gens)
            items.append((n, tuple(perm), tuple(gens)))
        return items

    def document(self, item):
        n, _, gens = item
        return "[" + ", ".join(str(ps.Monomial(e)) for e in gens) + f"] n={n}"

    def check_report(self, k, report):
        n, perm, _ = self.items[k]
        expected = {
            (i, str(ps.Monomial(_relabel(a, perm)))): r
            for (i, a), r in cycle_betti(n).items()
        }
        got = {(e["i"], e["multidegree"]): e["rank"] for e in report["entries"]}
        return got == expected


def _relabel(exps: tuple[int, ...], perm) -> tuple[int, ...]:
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[perm[i]] = e
    return tuple(out)


class HsRoutes(CliWorkload):
    """``polyshift hs --route all --json`` on a stream of small family
    documents drawn by ``random_polymatroidal`` under the fuzz budget.

    The check recomputes every shift ideal from the benchmark's own lex
    certificate and requires the oracle route to equal it, the reported pd
    to be the last index with a nonzero certificate Betti total, and the
    report's ``agreement`` to be true.
    """

    name = "hs-routes"
    ARGS = ("hs", "--route", "all", "--json")
    DOCS = 1600
    TINY_DOCS = 12

    def generate(self):
        rng = random.Random(self.seed)
        budget = ps.CampaignConfig(self.seed, 1).budget  # the fuzz default
        count = self.TINY_DOCS if self.tiny else self.DOCS
        return [
            ps.random_polymatroidal(rng.getrandbits(63), budget)[0] for _ in range(count)
        ]


    def check_report(self, k, report):
        cert = _certificate(ps.realize(self.items[k]))
        totals = _certificate_totals(cert)
        pd = max(int(j) for j in totals)
        expected = {
            str(j): [str(g) for g in ps.homological_shift(cert, j).gens]
            for j in range(pd + 2)
        }
        return (
            report["agreement"] is True
            and report["pd"] == pd
            and report["routes"]["oracle"]["shifts"] == expected
        )


class Fuzz:
    """``run_campaign(CampaignConfig(seed, N))`` with the default budget.

    The JSON-lines sink stamps each row as it arrives, which gives the time
    per instance.  The check requires the instance count, no disagreements,
    and the same result fields, instance by instance, in every pass.
    """

    name = "fuzz"
    INSTANCES = 4000
    TINY_INSTANCES = 25

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.count = self.TINY_INSTANCES if tiny else self.INSTANCES
        self.items = list(range(self.count))

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sink_path = self.workdir / "campaign.jsonl"

    def generate(self):
        return self.items

    def run_pass(self, tracer=None, limit: Optional[int] = None) -> PassResult:
        """Run the campaign, or its first ``limit`` instances, once."""
        count = limit or self.count
        speed = SpeedProbe()
        begins: list[float] = []  # when each instance began
        stamps: list[float] = []  # when its row reached the sink
        error: Optional[str] = None
        with open(self.sink_path, "w", encoding="utf-8") as handle:

            def sink(line: str) -> None:
                handle.write(line + "\n")
                stamps.append(perf_counter())
                begins.append(speed.after_item())
                if tracer is not None:
                    tracer.item = len(stamps)

            if tracer is not None:
                tracer.item = 0
            begins.append(perf_counter())
            try:
                ps.fuzzlab.run_campaign(
                    ps.fuzzlab.CampaignConfig(self.seed, count), sink
                )
            except Exception as exc:  # counted as a failed pass in check
                error = repr(exc)
            wall = perf_counter() - begins[0] - speed.spent_s
        latencies = [(b - a) * 1000.0 for a, b in zip(begins, stamps)]
        rows = []
        with open(self.sink_path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                rows.append(
                    (
                        json.dumps([row.get(f) for f in FUZZ_FIELDS], sort_keys=True),
                        bool(row.get("disagreements")),
                    )
                )
        return PassResult(wall, latencies, (error, rows, count), speed.slowdown())

    def check(self, passes: list[PassResult]) -> list[list[bool]]:
        """An instance fails in every pass when its result fields differ
        between passes, and in one pass on an error or a disagreement."""
        consistent = []
        for k in range(self.count):
            seen = {
                rows[k][0] if k < len(rows) else None
                for _, rows, count in (p.outputs for p in passes)
                if k < count
            }
            only = seen.pop() if len(seen) == 1 else None
            consistent.append(only is not None and json.loads(only)[0] == k)
        verdicts = []
        for p in passes:
            error, rows, count = p.outputs
            verdicts.append(
                [error is not None or not consistent[k] or rows[k][1] for k in range(count)]
            )
        return verdicts

    def digest(self, p: PassResult) -> str:
        return _digest("\n".join(fields for fields, _ in p.outputs[1]))


WORKLOADS = {
    w.name: w for w in (Fuzz, BettiVeronese, BettiCycles, HsRoutes)
}


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    workload = WORKLOADS[name](seed, workdir, tiny)
    workload.setup()
    return workload
