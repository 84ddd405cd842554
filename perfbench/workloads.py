"""The benchmark's four workloads: seeded inputs, jobs and their checks.

Each workload has three parts:

* ``spec(rng)``: the inputs as plain data, drawn from the seed.  It uses no
  sftkit code, so the run can compute expectations before any pass starts.
* ``expect(spec)``: what the outputs must satisfy, from ``oracles`` alone.
* ``jobs(spec, workdir, sk)``: writes the input files and returns the jobs.
  ``sk`` holds the imported sftkit modules.  A job runs through
  ``sftkit.cli.main(argv)`` when a CLI command exists for it, and otherwise
  through the public function a script would call.

The seed draws symbol names, tile grids, tournaments and column
constraints.  It never draws a problem size, so every seed costs about the
same; see README.md for the make-up of each input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import string
from math import log2

import oracles

WORKLOADS = ("hardsquare", "order2-decide", "wang-compile", "entropy-1d-realize")


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Job:
    """One timed call.  ``run()`` returns the call's result; ``check(result)``
    raises when the output is wrong; ``out`` is the output file, if any."""

    def __init__(self, name, run, check, out=None):
        self.name = name
        self.run = run
        self.check = check
        self.out = out

    def fingerprint(self, result):
        """Digest of what the job produced, compared across passes."""
        if self.out is not None:
            with open(self.out, "rb") as fh:
                data = fh.read()
            return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "rc": result}
        return {"sha256": hashlib.sha256(repr(result).encode()).hexdigest()}


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_job(sk, name, argv, check, out):
    argv = list(argv) + ["--out", out]

    def run():
        return sk.cli.main(argv)

    def checked(rc):
        require(rc == 0, f"exit code {rc}")
        check(_read(out))

    return Job(name, run, checked, out)


def _binary_names(rng):
    """Seeded names for the 0 and 1 roles, kept in that alphabet order so
    canonical orders (and so the work done) do not depend on the seed."""
    zero, one = rng.sample(string.ascii_lowercase, 2)
    return zero, one


def _sft(alphabet, forbidden):
    return {"alphabet": list(alphabet), "forbidden": [list(w) for w in forbidden]}


def _edges_forbidden(alphabet, edges):
    edges = {tuple(e) for e in edges}
    return [(a, b) for a in alphabet for b in alphabet if (a, b) not in edges]


# ---------------------------------------------------------------------------
# hardsquare: golden-mean rows x golden-mean columns

HS_SQUARES = (13,)
HS_BOUND = 11


def spec_hardsquare(rng):
    zero, one = _binary_names(rng)
    return {"alphabet": [zero, one], "one": one, "forbidden": [[one, one]]}


def expect_hardsquare(spec):
    f, one = spec["forbidden"], spec["one"]
    top = max(max(HS_SQUARES), HS_BOUND)
    counts = {n: oracles.count_binary(f, f, one, n, n) for n in range(1, top + 1)}
    strips = {h: oracles.strip_log2_per_row(f, f, one, h) for h in range(1, HS_BOUND + 1)}
    return {"counts": {str(n): str(c) for n, c in counts.items()}, "strips": {str(h): v for h, v in strips.items()}}


def jobs_hardsquare(spec, workdir, expect, sk):
    sft = _write(workdir, "golden.json", _sft(spec["alphabet"], spec["forbidden"]))
    jobs = []
    for n in HS_SQUARES:

        def check(out, n=n):
            require(int(out["count"]) == int(expect["counts"][str(n)]), f"N({n},{n}) differs from the bitmask oracle")

        argv = ["solve", "count", "--h", sft, "--v", sft, "--width", str(n), "--height", str(n)]
        jobs.append(_cli_job(sk, f"count-{n}x{n}", argv, check, os.path.join(workdir, f"count{n}.json")))

    def check_2d(out):
        require(len(out["samples"]) == HS_BOUND and len(out["strip_upper"]) == HS_BOUND, "wrong number of bounds")
        for n, v in out["samples"]:
            want = log2(int(expect["counts"][str(n)])) / (n * n)
            require(v >= oracles.HARD_SQUARE_LOG2_KAPPA, f"square sample {n} below log2 kappa")
            require(abs(v - want) <= 1e-12, f"square sample {n} differs from the oracle count")
        for h, v in out["strip_upper"]:
            require(v >= oracles.HARD_SQUARE_LOG2_KAPPA, f"strip bound {h} below log2 kappa")
            require(abs(v - expect["strips"][str(h)]) <= 1e-9, f"strip bound {h} differs from numpy")

    argv = ["entropy", "2d", "--h", sft, "--v", sft, "--bound", str(HS_BOUND)]
    jobs.append(_cli_job(sk, f"entropy2d-{HS_BOUND}", argv, check_2d, os.path.join(workdir, "e2d.json")))
    return jobs


# ---------------------------------------------------------------------------
# order2-decide: no-111 rows x golden columns, and decisions on k-cycles

O2_SHAPES = ((12, 6), (6, 7))  # (width, height): wide and tall
O2_DECIDE = ((8, "nonempty"), (8, "empty"), (9, "nonempty"), (9, "empty"))


def _cycle_instance(rng, k, verdict):
    """Rows: the k-cycle shift.  Columns: an order-2 SFT built so the
    verdict is known.

    Rows are rotations of q0 q1 .. q(k-1); write d for the phase step
    between two stacked rows.  Three stacked rows with steps (d1, d2) put
    the column word (x, x+d1, x+d1+d2) under every x, so forbidding one such
    word for a step pair bans that pair everywhere.  The allowed step pairs
    are a random set with d1 < d2 (an acyclic step graph: empty), plus the
    pair (d0, d0) for a nonempty instance (constant step d0 tiles the plane).
    """
    syms = [f"q{i}" for i in range(k)]
    allowed = {(d1, d2) for d1 in range(k) for d2 in range(d1 + 1, k) if rng.random() < 0.5}
    if verdict == "nonempty":
        d0 = rng.randrange(k)
        allowed.add((d0, d0))
    v_forbidden = []
    for d1 in range(k):
        for d2 in range(k):
            if (d1, d2) not in allowed:
                x = rng.randrange(k)
                v_forbidden.append([syms[x], syms[(x + d1) % k], syms[(x + d1 + d2) % k]])
    edges = [(syms[i], syms[(i + 1) % k]) for i in range(k)]
    return {
        "k": k,
        "verdict": verdict,
        "alphabet": syms,
        "h_forbidden": [list(w) for w in _edges_forbidden(syms, edges)],
        "v_forbidden": v_forbidden,
    }


def spec_order2_decide(rng):
    zero, one = _binary_names(rng)
    return {
        "alphabet": [zero, one],
        "one": one,
        "h_forbidden": [[one, one, one]],
        "v_forbidden": [[one, one]],
        "decide": [_cycle_instance(rng, k, verdict) for k, verdict in O2_DECIDE],
    }


def expect_order2_decide(spec):
    hf, vf, one = spec["h_forbidden"], spec["v_forbidden"], spec["one"]
    counts = {f"{w}x{h}": str(oracles.count_binary(hf, vf, one, w, h)) for w, h in O2_SHAPES}
    tori = []
    for inst in spec["decide"]:
        if inst["verdict"] == "empty":
            found = oracles.small_torus(inst["alphabet"], inst["h_forbidden"], inst["v_forbidden"], inst["k"], 3)
            tori.append(found is not None)
        else:
            tori.append(None)
    return {"counts": counts, "small_torus": tori}


def jobs_order2_decide(spec, workdir, expect, sk):
    hpath = _write(workdir, "no111.json", _sft(spec["alphabet"], spec["h_forbidden"]))
    vpath = _write(workdir, "golden.json", _sft(spec["alphabet"], spec["v_forbidden"]))
    jobs = []
    for w, h in O2_SHAPES:

        def check(out, key=f"{w}x{h}"):
            require(int(out["count"]) == int(expect["counts"][key]), f"N({key}) differs from the bitmask oracle")

        argv = ["solve", "count", "--h", hpath, "--v", vpath, "--width", str(w), "--height", str(h)]
        jobs.append(_cli_job(sk, f"count-{w}x{h}", argv, check, os.path.join(workdir, f"count{w}x{h}.json")))
    for i, inst in enumerate(spec["decide"]):
        hp = _write(workdir, f"cycle{i}.json", _sft(inst["alphabet"], inst["h_forbidden"]))
        vp = _write(workdir, f"cols{i}.json", _sft(inst["alphabet"], inst["v_forbidden"]))

        def check(out, inst=inst, torus=expect["small_torus"][i]):
            require(out["status"] == inst["verdict"], f"verdict {out['status']}, built {inst['verdict']}")
            if inst["verdict"] == "empty":
                require(not torus, "empty verdict but the replayer found a small torus")
            else:
                pat = out["witness"]["pattern"]
                require(
                    oracles.torus_ok(pat["cells"], pat["width"], pat["height"], inst["h_forbidden"], inst["v_forbidden"]),
                    "witness torus does not replay",
                )

        argv = ["solve", "decide", "--h", hp, "--v", vp]
        name = f"decide-k{inst['k']}-{inst['verdict']}"
        jobs.append(_cli_job(sk, name, argv, check, os.path.join(workdir, f"decide{i}.json")))
    return jobs


# ---------------------------------------------------------------------------
# wang-compile: the slice compiler on coding3 and on random tournaments

CODING3 = {"alphabet": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "b"], ["c", "c"]]}
WANG_GRIDS = ((2, 24, 16), (3, 20, 12))  # (tiles N, grid width a, grid height b)
TOURNAMENT_SIZES = (10, 10)  # at 11-12 symbols find_cycle_pair time depends on the draw
ROOT_K = (1,)
ROOT_TILES = 2  # the root check runs on the coding3 / free2 compilation


def _strongly_connected(verts, edges):
    succ = {v: [] for v in verts}
    pred = {v: [] for v in verts}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)

    def reach(adj):
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    return reach(succ) and reach(pred)


def random_tournament(rng, n):
    """Random strongly connected tournament on n >= 4 vertices.  It has no
    loop and no two-way edge, and it holds cycles of length 3 and 4, so its
    graph fails the decidability condition."""
    verts = [f"t{i}" for i in range(n)]
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                edges.append((verts[i], verts[j]) if rng.random() < 0.5 else (verts[j], verts[i]))
        if _strongly_connected(verts, edges):
            return {"alphabet": verts, "edges": [list(e) for e in edges]}


def spec_wang_compile(rng):
    grids = []
    for n_tiles, a, b in WANG_GRIDS:
        grids.append({"N": n_tiles, "tiles": [[rng.randint(1, n_tiles) for _ in range(b)] for _ in range(a)]})
    return {"grids": grids, "tournaments": [random_tournament(rng, n) for n in TOURNAMENT_SIZES]}


def expect_wang_compile(spec):
    # the free N-tile set has N^(a*b) patterns on an a x b grid; the root
    # check needs the k x k count and the (k+2) x (k+2) padded one
    n = ROOT_TILES
    return {"wang_count": {str(k): [n ** (k * k), n ** ((k + 2) * (k + 2))] for k in ROOT_K}}


def _free_tiles(n):
    return {"tiles": [{"e": "h", "w": "h", "n": "v", "s": "v", "name": f"t{k}"} for k in range(1, n + 1)]}


def _check_presentation(out, graph, sk):
    pres = oracles.Presentation(out)
    require(pres.right_resolving, "presentation is not right-resolving")
    require(pres.essential(), "presentation has a state off every bi-infinite path")
    require(len(out["states"]) == len(out["decode_annotations"]), "annotation count")
    edges = {tuple(e) for e in graph["edges"]}
    c1, c2 = out["pair"]["c1"], out["pair"]["c2"]
    for cyc in (c1, c2):
        require(all((cyc[i], cyc[(i + 1) % len(cyc)]) in edges for i in range(len(cyc))), "pair cycle is not a cycle")
    require(len(c1) >= 3, "|C1| < 3")
    h = sk.core.sft_from_edges(graph["alphabet"], graph["edges"])
    g = sk.core.build_rauzy(h).graph
    cyc1 = sk.cycles.Cycle(g, tuple((s,) for s in c1))
    cyc2 = sk.cycles.Cycle(g, tuple((s,) for s in c2))
    require(sk.cycles.verify_pair_admissible(g, cyc1, cyc2), "pair is not admissible")


def jobs_wang_compile(spec, workdir, expect, sk):
    hpath = _write(workdir, "coding3.json", _sft(CODING3["alphabet"], _edges_forbidden(CODING3["alphabet"], CODING3["edges"])))
    edges = {tuple(e) for e in CODING3["edges"]}
    tile_paths = {n: _write(workdir, f"free{n}.json", _free_tiles(n)) for n in (2, 3)}
    jobs = []
    for grid in spec["grids"]:
        n_tiles = grid["N"]
        wpath = tile_paths[n_tiles]
        cout = os.path.join(workdir, f"compiled{n_tiles}.json")
        argv = ["compile", "wang", "--h", hpath, "--w", wpath]
        jobs.append(_cli_job(sk, f"compile-coding3-free{n_tiles}", argv, lambda out: _check_presentation(out, CODING3, sk), cout))

        gpath = _write(workdir, f"grid{n_tiles}.json", {"tiles": grid["tiles"]})
        epath = os.path.join(workdir, f"encoded{n_tiles}.json")

        def check_encode(out, cout=cout):
            width, height, cells = out["width"], out["height"], out["cells"]
            for j in range(height):
                row = cells[j * width : (j + 1) * width]
                require(all((row[i], row[i + 1]) in edges for i in range(width - 1)), f"encoded row {j} is not a path of H")
            pres = oracles.Presentation(_read(cout))
            for i in range(width):
                require(pres.walks(cells[i::width]), f"encoded column {i} does not walk the presentation")

        argv = ["encode", "--h", hpath, "--w", wpath, "--input", gpath]
        jobs.append(_cli_job(sk, f"encode-free{n_tiles}", argv, check_encode, epath))

        def check_decode(out, tiles=grid["tiles"]):
            require(out["tiles"] == tiles, "decoding the encoded grid does not return the grid")

        argv = ["decode", "--h", hpath, "--w", wpath, "--input", epath]
        jobs.append(_cli_job(sk, f"decode-free{n_tiles}", argv, check_decode, os.path.join(workdir, f"decoded{n_tiles}.json")))

    for i, tour in enumerate(spec["tournaments"]):
        tpath = _write(workdir, f"tournament{i}.json", _sft(tour["alphabet"], _edges_forbidden(tour["alphabet"], tour["edges"])))
        argv = ["compile", "wang", "--h", tpath, "--w", tile_paths[2]]
        name = f"compile-tournament{i}-n{len(tour['alphabet'])}-free2"
        jobs.append(
            _cli_job(sk, name, argv, lambda out, tour=tour: _check_presentation(out, tour, sk), os.path.join(workdir, f"ctour{i}.json"))
        )

    def run_root():
        core, entropy = sk.core, sk.entropy
        h = core.sft_from_edges(CODING3["alphabet"], CODING3["edges"])
        pair, _ = sk.cycles.find_cycle_pair(core.build_rauzy(h))
        pres, cert = sk.compiler.compile_wang(h, core.free_tile_set(ROOT_TILES), pair)
        x_count = lambda w, hh: sk.solve.count_rectangles(h, pres, w, hh)
        y_count = lambda a, b: ROOT_TILES ** (a * b)
        return entropy.root_entropy_check(cert, x_count, y_count, len(CODING3["alphabet"]), list(ROOT_K))

    def check_root(rep):
        require(rep["ok"], "root inequalities fail")
        m_n = rep["mn"]
        for row in rep["rows"]:
            k = row["k"]
            ny, ny_pad = expect["wang_count"][str(k)]
            require(row["ny"] == ny, "Wang count differs")
            require(row["nx"] > 0 and row["nx"] <= m_n * ny_pad, "upper root inequality fails")

    jobs.append(Job("root-check-coding3-free2", run_root, check_root))
    return jobs


# ---------------------------------------------------------------------------
# entropy-1d-realize: Perron iteration, realization and state-split counts

RLL = ((1, 3), (2, 7), (3, 12), (20, 21), (40, 41), (60, 61), (80, 81))
REALIZE_KS = (2, 3)
STATESPLIT_N = (1, 2, 3, 4)


def spec_entropy(rng):
    zero, one = _binary_names(rng)
    a, b = _binary_names(rng)
    return {
        "alphabet": [zero, one],
        "rll": [{"d": d, "k": k, "forbidden": [list(w) for w in oracles.rll_forbidden(d, k, zero, one)]} for d, k in RLL],
        "golden": [[one, one]],
        # state-split rows: the 2-cycle a -> b -> a; two column SFTs
        "ss_alphabet": [a, b],
        "ss_h": [[a, a], [b, b]],
        "ss_v": [[[b, b]], [[a, b, a]]],
    }


def expect_entropy(spec):
    caps = [oracles.rll_capacity(r["d"], r["k"]) for r in spec["rll"]]
    ss_counts = {}
    b = spec["ss_alphabet"][1]
    for i, vf in enumerate(spec["ss_v"]):
        for n in STATESPLIT_N:
            for m in (1, 2):
                ss_counts[f"{i}/{n}/{m}"] = str(oracles.count_binary(spec["ss_h"], vf, b, 2 * m, n))
    return {"capacity": caps, "statesplit": ss_counts}


def jobs_entropy(spec, workdir, expect, sk):
    jobs = []
    for r, cap in zip(spec["rll"], expect["capacity"]):
        path = _write(workdir, f"rll{r['d']}_{r['k']}.json", _sft(spec["alphabet"], r["forbidden"]))

        def check(out, cap=cap, r=r):
            require(abs(out["log2"] - cap) <= 1e-8, f"RLL({r['d']},{r['k']}) entropy {out['log2']} vs capacity {cap}")

        argv = ["entropy", "1d", "--input", path]
        jobs.append(_cli_job(sk, f"entropy1d-rll{r['d']}-{r['k']}", argv, check, os.path.join(workdir, f"e1d{r['d']}.json")))

    # the golden-mean plan of demo 06: marker words from two return paths
    golden = sk.core.Sft1D.from_json(_sft(spec["alphabet"], spec["golden"]))
    u, w1, w2, _ = sk.entropy.entropy_words(golden, k=1)
    plan = {"H": _sft(spec["alphabet"], spec["golden"]), "payload": _free_tiles(2), "u": list(u), "w1": list(w1),
            "w2": list(w2), "q": 1, "r": 2, "R": 1, "ks": list(REALIZE_KS)}
    ppath = _write(workdir, "plan.json", plan)

    def check_realize(out):
        require([row["k"] for row in out["sandwich"]] == list(REALIZE_KS), "sandwich rows")
        for row in out["sandwich"]:
            require(int(row["lower"]) <= int(row["count"]) <= int(row["upper"]), f"sandwich fails at k={row['k']}")

    jobs.append(_cli_job(sk, "realize-golden", ["entropy", "realize", "--input", ppath], check_realize, os.path.join(workdir, "realize.json")))

    hpath = _write(workdir, "ss.json", _sft(spec["ss_alphabet"], spec["ss_h"]))
    for i, vf in enumerate(spec["ss_v"]):
        vpath = _write(workdir, f"ssv{i}.json", _sft(spec["ss_alphabet"], vf))
        for n in STATESPLIT_N:

            def check(out, i=i, n=n):
                require(out["p"] == 2, "class count")
                for row in out["identity"]:
                    require(row["lhs"] == row["rhs"], f"state-split identity fails at m={row['m']}")
                    require(row["lhs"] == expect["statesplit"][f"{i}/{n}/{row['m']}"], "N(2m, n) differs from the oracle")

            argv = ["entropy", "statesplit", "--h", hpath, "--v", vpath, "--bound", str(n)]
            jobs.append(_cli_job(sk, f"statesplit-v{i}-n{n}", argv, check, os.path.join(workdir, f"ss{i}_{n}.json")))
    return jobs


SPEC = {
    "hardsquare": spec_hardsquare,
    "order2-decide": spec_order2_decide,
    "wang-compile": spec_wang_compile,
    "entropy-1d-realize": spec_entropy,
}
EXPECT = {
    "hardsquare": expect_hardsquare,
    "order2-decide": expect_order2_decide,
    "wang-compile": expect_wang_compile,
    "entropy-1d-realize": expect_entropy,
}
JOBS = {
    "hardsquare": jobs_hardsquare,
    "order2-decide": jobs_order2_decide,
    "wang-compile": jobs_wang_compile,
    "entropy-1d-realize": jobs_entropy,
}


def make_spec(workload, seed):
    rng = random.Random(f"{workload}/{seed}")
    return SPEC[workload](rng)
