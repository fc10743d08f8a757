"""Per-call timing of two commits in one interpreter.

    python3 tools/call_pairs.py --parent HEAD~1 --change HEAD

Exports both commits' committed files (git archive, as tools/bench_pairs.py
does) into a temporary directory and imports each tree's src/gmem under its
own package name, gmem_parent and gmem_change; gmem uses only relative
imports, so the two copies do not share a module.

On STATES point_stream-like states from seed SEED (raw_states: stretches
in [0.7, 1.6], one state in eight with its principal stretches within
1e-9 relative of each other, a fresh lattice angle per state), each side
builds its own SurfTensor2 and make_frame records. The calls of CALLS
(every public membrane call, invariants_C, invariants_log_exact and
spectral) are then timed as a loop over the states, the two sides
alternately: ROUNDS rounds, parent first in even rounds and change first
in odd ones. Within a round each call's loop (time_loop) runs REPEAT times
per side, the sides taking turns, and each side keeps its minimum, in
microseconds per state (the loop's own per-state cost, tens of
nanoseconds, included). tools/call_split.py times its "call" rows from the
same states, table and loop.

Prints per call the median over rounds on each side, the relative change
(the median over rounds of the round's change/parent ratio, less 1) and
the number of rounds in which the change was faster. The change and the
win count read the same per-round pairs, so a drift of the host between
rounds cannot give them opposite signs, as a ratio of the two separate
medians could. A row is marked "*" when its win count passes a two-sided
sign test at 1% over the ROUNDS rounds (sign_threshold: 24 or more, or 7
or fewer, of 31). Only marked rows back a per-call claim. The medians move by up to +-5%
between processes for the same two commits (energy_metric read -4.7% in
one run and +4.9% in the next on a shared 2-core host), and on unchanged
code the win counts ranged from 7/31 to 22/31.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import exit_on_sigterm, export, git  # noqa: E402

STATES = 256
SEED = 0
ROUNDS = 31
REPEAT = 5
NEAR_ISOTROPIC_EVERY = 8
# the public calls both per-call tools time, each on the first n of
# (C, frame, GGA)
CALLS = {**{f"{kind}_{model}": 3 for model in ("metric", "log")
            for kind in ("energy", "stress", "tangent", "stress_tangent")},
         "tangent_metric_oplus": 3, "invariants_C": 2,
         "invariants_log_exact": 2, "spectral": 1}


def load(tree: Path, name: str):
    """Import tree/src/gmem as the package `name`."""
    pkg = tree / "src" / "gmem"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def principal_triple(e1, e2, phi):
    """(c11, c22, c12) of the symmetric 2x2 with eigenvalue e1 along the
    angle phi and e2 across it, as Python floats; the tools' own copy, so
    a change under test cannot move the states it is checked on."""
    c, s = math.cos(phi), math.sin(phi)
    return (float(e1 * c * c + e2 * s * s), float(e1 * s * s + e2 * c * c),
            float((e1 - e2) * s * c))


def raw_states(seed: int, n: int = STATES, lo: float = 0.7, hi: float = 1.6):
    """(C triple, lattice angle) of n states as plain floats; stretches in
    [lo, hi]."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lam1, lam2 = rng.uniform(lo, hi, size=2)
        if i % NEAR_ISOTROPIC_EVERY == 0:
            lam2 = lam1 * (1.0 + rng.uniform(-1e-9, 1e-9))
        phi = rng.uniform(0.0, math.pi)
        out.append((principal_triple(lam1 * lam1, lam2 * lam2, phi),
                    float(rng.uniform(0.0, 2.0 * math.pi))))
    return out


def records(pkg, states) -> list:
    """(C, frame) per raw state, built with pkg's own SurfTensor2 and
    make_frame."""
    return [(pkg.SurfTensor2(*t), pkg.make_frame(th)) for t, th in states]


def side_jobs(pkg, recs) -> dict:
    """{call: (fn, argument tuples)}: pkg's CALLS on its records recs."""
    args = [(c, f, pkg.GGA) for c, f in recs]
    return {call: (getattr(pkg, call), [a[:n] for a in args])
            for call, n in CALLS.items()}


def time_loop(fn, args) -> float:
    """µs per argument tuple of one loop calling fn on each."""
    def loop():
        for a in args:
            fn(*a)
    return 1e6 * timeit.timeit(loop, number=1) / len(args)


def sign_threshold(n: int) -> int:
    """Fewest wins out of n rounds that a two-sided sign test at 1% tells
    from chance: the least k with 2 P(X >= k) <= 0.01 for X binomial(n,
    1/2), in exact integers. n - k or fewer wins pass the same test."""
    tail = 0  # sum of comb(n, j) over j >= k
    for k in range(n, -1, -1):
        tail += math.comb(n, k)
        if 200 * tail > 2 ** n:
            break
    return k + 1


def row(sides: dict) -> tuple:
    """(parent median, change median, relative change, wins) of one call's
    {side: [µs per round]}: the relative change is the median over rounds
    of change/parent, less 1, and wins count the rounds with change <
    parent."""
    pairs = list(zip(sides["parent"], sides["change"]))
    return (statistics.median(sides["parent"]),
            statistics.median(sides["change"]),
            statistics.median(c / p for p, c in pairs) - 1.0,
            sum(c < p for p, c in pairs))


def rounds(jobs: dict) -> dict:
    """{call: {side: [µs per state, one per round]}}."""
    out = {call: {"parent": [], "change": []} for call in jobs["parent"]}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for call, sides in out.items():
            best = dict.fromkeys(order, math.inf)
            for _ in range(REPEAT):
                for side in order:
                    best[side] = min(best[side],
                                     time_loop(*jobs[side][call]))
            for side in order:
                sides[side].append(best[side])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit")
    args = ap.parse_args()
    exit_on_sigterm()
    states = raw_states(SEED)
    jobs = {}
    with tempfile.TemporaryDirectory(prefix="gmem-calls-") as tmp:
        for side in ("parent", "change"):
            tree = Path(tmp) / side
            sha = export(getattr(args, side), tree)
            print(f"{side}: {sha} (src tree {git('rev-parse', f'{sha}:src')})")
            pkg = load(tree, f"gmem_{side}")
            jobs[side] = side_jobs(pkg, records(pkg, states))
        times = rounds(jobs)
    k = sign_threshold(ROUNDS)
    print(f"{STATES} states, {ROUNDS} alternating rounds, minimum of "
          f"{REPEAT} loops per round; medians over rounds, GGA; change is "
          f"the median per-round change/parent ratio; * marks wins >= {k} "
          f"or <= {ROUNDS - k} (two-sided sign test, 1%), the only rows "
          f"that back a per-call claim")
    print(f"{'call':24}{'parent us':>11}{'change us':>11}{'change':>9}"
          f"{'wins':>8}")
    for call, sides in times.items():
        p, c, change, wins = row(sides)
        mark = " *" if wins >= k or wins <= ROUNDS - k else ""
        print(f"{call:24}{p:11.3f}{c:11.3f}{100.0 * change:+8.1f}%"
              f"{wins:>5d}/{ROUNDS}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
