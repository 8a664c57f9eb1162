"""Workload definitions and seeded input generators for the benchmark.

Each workload is a query text plus an edge stream made from ``--seed``.
The runner writes both as files, so the program under test receives only
stream text, the way ``streamgraph run`` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from streamgraph.model import EdgeEvent, window_interval
from streamgraph.streams import generate_synthetic

CLOSURE = "Answer(x, y) <- a+(x, y)"
CHAIN_CLOSURE = (
    "D(x, y) <- a(x, m1), b(m1, m2), c(m2, y)\n"
    "Answer(x, y) <- D+(x, y) as DP\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    query: str
    window: int
    slide: int
    vertices: int
    records: int
    labels: tuple[str, ...]
    delete_share: float = 0.0
    # per-layer metrics that must be non-zero, or the workload missed its point
    must_move: tuple[str, ...] = ()

    def query_text(self) -> str:
        return f"WINDOW {self.window} SLIDE {self.slide}\n{self.query}\n"

    def events(self, seed: int) -> list[EdgeEvent]:
        if self.delete_share == 0.0:
            return generate_synthetic(
                self.vertices, self.records, labels=self.labels,
                rate=1.0, cyclicity=0.3, seed=seed,
            )
        return churn_stream(
            self.vertices, self.records, self.labels, self.window,
            self.slide, self.delete_share, seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The demos/benchmark.py configuration: window/slide = 100, so
        # every watermark walks far more state than the slide added.
        Workload("closure-purge", CLOSURE, 10_000, 100, 20_000, 100_000,
                 ("a", "b", "c", "d")),
        # window/slide = 2: purging is proportional to input, and the
        # time goes to path insertion and coalesce republishing.
        Workload("closure-insert", CLOSURE, 100, 50, 200, 60_000, ("a",)),
        # Join under closure with 35% in-window deletions: exercises
        # spanning-tree repair and retractions through every stage.
        Workload("chain-churn", CHAIN_CLOSURE, 300, 50, 40, 60_000,
                 ("a", "b", "c"), delete_share=0.35,
                 must_move=("pathop.in_neg", "operators.pattern.out_pos")),
    )
}


def churn_stream(
    vertices: int,
    records: int,
    labels: tuple[str, ...],
    size: int,
    slide: int,
    delete_share: float,
    seed: int,
) -> list[EdgeEvent]:
    """One record per time unit; each is, with probability
    ``delete_share``, a deletion of a uniformly chosen insertion that is
    still inside its window, otherwise the next ``generate_synthetic``
    edge.

    A deletion line names only (src, trg, label), and ``read_edge_stream``
    resolves it to the most recent live insertion of that key, so ``ref``
    is resolved the same way here.  That insertion is no older than the
    chosen one and therefore also still inside its window.
    """
    edges = iter(generate_synthetic(vertices, records, labels=labels,
                                    rate=1.0, cyclicity=0.3, seed=seed))
    rng = random.Random(f"churn-{seed}")
    out: list[EdgeEvent] = []
    stacks: dict[tuple[str, str, str], list[int]] = {}
    order: list[int] = []  # insertion uids by arrival; ends grow with ts
    dead: set[int] = set()
    first = 0  # order[:first] is expired or deleted
    for ts in range(records):
        while first < len(order) and (
            order[first] in dead
            or window_interval(out[order[first]].ts, size, slide).end <= ts
        ):
            first += 1
        if first < len(order) and rng.random() < delete_share:
            while True:
                chosen = out[order[rng.randrange(first, len(order))]]
                if chosen.uid not in dead:
                    break
            key = (chosen.src, chosen.trg, chosen.label)
            ref = stacks[key].pop()
            dead.add(ref)
            out.append(EdgeEvent(*key, ts, -1, len(out), ref))
        else:
            e = next(edges)
            uid = len(out)
            out.append(EdgeEvent(e.src, e.trg, e.label, ts, 1, uid))
            stacks.setdefault((e.src, e.trg, e.label), []).append(uid)
            order.append(uid)
    return out
