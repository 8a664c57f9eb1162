"""Plan rewrites for a chain query under a recursive closure.

The canonical plan materializes the three-step chain D and navigates
D+.  Rewrites push the navigation down to the base labels, absorbing
one, two, or all three scans into the automaton.  All four plans give
the same coalesced results; their operator trees (and costs) differ.
"""

from streamgraph.algebra import enumerate_plans, render_plan
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import compile_plan, run_stream
from streamgraph.streams import generate_synthetic

QUERY = """
WINDOW 10 SLIDE 5
D(x, y) <- a(x, m1), b(m1, m2), c(m2, y)
Answer(x, y) <- D+(x, y) as DP
"""

REWRITES = [
    "path[(a.b.c)+ -> DP](wscan[a size=10 slide=5], wscan[b size=10 slide=5],"
    " wscan[c size=10 slide=5])",
    "path[(a.$tmp1)+ -> DP](wscan[a size=10 slide=5],"
    " pattern[trg1=src2 -> (src1, trg2) $tmp1](wscan[b size=10 slide=5],"
    " wscan[c size=10 slide=5]))",
    "path[($tmp1.c)+ -> DP](pattern[trg1=src2 -> (src1, trg2) $tmp1]("
    "wscan[a size=10 slide=5], wscan[b size=10 slide=5]),"
    " wscan[c size=10 slide=5])",
]


def main():
    canonical = to_plan(parse_query(QUERY))
    print("canonical:", render_plan(canonical))
    family = {render_plan(p): p for p in enumerate_plans(canonical, 3)}
    print(f"{len(family)} plans within 3 rewrites\n")
    missing = [s for s in REWRITES if s not in family]
    if missing:
        raise SystemExit(f"rewrites not in the enumerated family: {missing}")

    events = generate_synthetic(10, 120, rate=2.0, cyclicity=0.4, seed=7)
    for name, plan in [("canonical", canonical)] + [
        (f"rewrite {i}", family[s]) for i, s in enumerate(REWRITES, 1)
    ]:
        pipe = compile_plan(plan)
        run_stream(pipe, events)
        net = sorted((t.src, t.trg, t.ts, t.exp) for t in pipe.sink.results())
        print(f"{name}: {len(pipe.sink.log)} emissions, net {net}")


if __name__ == "__main__":
    main()
