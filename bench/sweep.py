#!/usr/bin/env python3
"""Scaling sweep of the kreinosc lab, run on demand and never gated.

    python3 bench/sweep.py      # a few minutes

Two curves, each point one CLI request run untraced (for its wall time)
and then traced (for the per-layer counts and self times):

* ``sector --preset P --depth d`` for every preset, d = 4 .. 12: node
  count against ``states_proportional`` calls, which grow as N^2 while
  every image is compared with every known node;
* ``dark --depth 3 --degree k``, k = 3 .. 5, on one pruned pair (vacuum
  against half-zbar) and one evaluated pair (vacuum against vacuum): word
  images built against pairs evaluated.
"""

from __future__ import annotations

import sys

import run
from tracer import Tracer, children_of


def _point(cli, argv):
    plain = run.call(cli, argv)
    if plain.rc != 0:
        raise SystemExit("sweep: %s failed: %s" % (" ".join(argv), plain.err.strip()))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.call(cli, argv)
    finally:
        tracer.uninstall()
    if traced.digest != plain.digest:
        raise SystemExit("sweep: traced output of %s differs" % " ".join(argv))
    return plain.latency, tracer


MAX_DEPTH = 12
MAX_DEGREE = 5


def sector_curve(cli) -> None:
    print("sector closure: preset, depth, nodes, wall_s, proportional calls, hit_ratio, "
          "generate self_s, proportional self_s, eigencheck self_s")
    for preset in ("vacuum", "half-zbar", "half-z"):
        for depth in range(4, MAX_DEPTH + 1):
            wall, tr = _point(cli, ("sector", "--preset", preset, "--depth", str(depth)))
            calls = tr.calls["algebra2d.proportional"]
            hits = tr.counts["algebra2d.proportional.hit"]
            print("  %-9s %2d %5d %9.4f %8d %7.4f %9.4f %9.4f %9.4f" % (
                preset, depth, tr.counts["sectors.generate.nodes"], wall, calls,
                hits / calls if calls else 0.0, tr.self_s["sectors.generate"],
                tr.self_s["algebra2d.proportional"], tr.self_s["algebra2d.eigencheck"]))


def dark_curve(cli) -> None:
    print("dark scan at depth 3: pair, degree, wall_s, images built, pairs evaluated, "
          "pruned_share, apply self_s, renorm_inner calls, gamma calls")
    for a, b in (("vacuum", "half-zbar"), ("vacuum", "vacuum")):
        for degree in range(3, MAX_DEGREE + 1):
            wall, tr = _point(cli, ("dark", "--a", a, "--b", b, "--depth", "3",
                                    "--degree", str(degree)))
            under = children_of(tr, "sectors.dark")
            grid = tr.counts["sectors.dark.grid"]
            evaluated = under["algebra2d.renorm_inner"]
            print("  %-18s %d %9.4f %7d %7d %7.4f %9.4f %7d %7d" % (
                "%s/%s" % (a, b), degree, wall, under["algebra2d.apply"], evaluated,
                1 - evaluated / grid, tr.self_s["algebra2d.apply"],
                tr.calls["algebra2d.renorm_inner"], tr.calls["scalars.gamma"]))


def main() -> int:
    cli = run.import_lab()
    sector_curve(cli)
    dark_curve(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
