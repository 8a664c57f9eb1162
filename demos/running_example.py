"""Walk-through of the social-notification example.

Two users should be notified about a post when they like something by
an author they (transitively) follow.  The query keeps a 24-instant
sliding window over the interaction stream; results carry the witness
edges that produced them.
"""

from streamgraph.algebra import format_plan
from streamgraph.model import EdgeEvent
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import compile_plan, net_results, run_stream
from streamgraph.streams import format_result

QUERY = """
WINDOW 24 SLIDE 1
RL(u1, u2) <- likes(u1, m1), post(u2, m1), follows+(u1, u2) as FP
Answer(u, m) <- RL+(u, u2) as RLP, post(u2, m)
"""

STREAM = [
    ("u", "b", "likes", 7),
    ("u", "c", "likes", 7),
    ("v", "b", "post", 10),
    ("y", "m1", "likes", 13),
    ("u", "m1", "post", 14),
    ("y", "u", "follows", 28),
    ("u", "v", "follows", 29),
    ("v", "c", "post", 30),
]


def main():
    query = parse_query(QUERY)
    plan = to_plan(query)
    print("plan:")
    print(format_plan(plan))

    pipe = compile_plan(plan)
    taps = {name: pipe.tap(name) for name in ("FP", "RL", "RLP")}
    events = [EdgeEvent(s, d, l, ts, 1, i) for i, (s, d, l, ts) in enumerate(STREAM)]
    metrics = run_stream(pipe, events)

    # a tapped relation below the root is not coalesced: a key may be
    # live under several origins at once, each with its own witness
    for name, buf in taps.items():
        print(f"\n{name} (net, one line per origin):")
        for t in sorted(net_results(buf), key=lambda t: (t.ts, t.key)):
            print(" ", format_result(t))

    print("\nAnswer (full signed log):")
    for t in pipe.sink.log:
        print(" ", format_result(t))

    print(f"\n{metrics.events_in} events in, {metrics.emissions} results out, "
          f"{metrics.slides} window slides")


if __name__ == "__main__":
    main()
