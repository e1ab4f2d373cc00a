"""Build a heterogeneous scene graph and show its rigid-motion invariance.

The model never sees scene-frame coordinates. Every node gets a local pose,
and every edge carries only relative features (relative heading, bearing,
distance, time gap) measured in the source node's frame. Shifting or rotating
the whole scene therefore changes nothing the network consumes.
"""

import numpy as np

from goalgraph.graph import build_graph
from goalgraph.synthgen import STYLE_A, gen_scene


def main():
    scene = gen_scene(STYLE_A, (7, 0), "demo")
    g = build_graph(scene, K=6)

    print(f"scene: {len(scene.agents)} agents, {len(scene.lanes)} lanes, "
          f"{len(scene.points)} point segments")
    print("\nnode counts:")
    counts = {"agent": g.n_agent_nodes, "lane": len(g.lane_pose),
              "point": len(g.point_pose), "query": g.n_queries,
              "nrb": len(g.nrb_pose)}
    for nt, n in counts.items():
        print(f"  {nt:6s} {n}")

    # The K mode queries of an agent share its pose, so a query-side edge
    # set keeps one feature row per distinct (agent, candidate) pair and
    # `row` points each edge at its row.
    print("\nedge types (source -> destination): edges, distinct feature rows")
    for et, es in sorted(g.edges.items()):
        print(f"  {et:10s} {es.count:6d} edges {len(es.feat):6d} rows")

    # Apply a large rigid motion to everything: lanes, tracks, boundaries.
    rng = np.random.default_rng(3)
    dx, dy = rng.uniform(-80, 80, size=2)
    dth = rng.uniform(-np.pi, np.pi)
    moved = scene.transformed(dx, dy, dth)
    g2 = build_graph(moved, K=6)

    worst = 0.0
    for et, es in g.edges.items():
        es2 = g2.edges[et]
        assert np.array_equal(es.src, es2.src) and np.array_equal(es.dst, es2.dst)
        if es.count:
            worst = max(worst, float(np.abs(es.feat[es.row] - es2.feat[es2.row]).max()))
    print(f"\nrigid motion dx={dx:.1f} m, dy={dy:.1f} m, dtheta={dth:.2f} rad")
    print(f"max edge-feature change across all edge types: {worst:.3e}")
    print("identical edge lists, features unchanged to float precision")


if __name__ == "__main__":
    main()
