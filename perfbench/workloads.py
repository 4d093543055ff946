"""The three workloads: inputs built from the seed, timed operations, checks.

Building a workload is the set-up that ``setup_s`` times, so this module
imports only the standard library at load time; the reference checks
(numpy, scipy) are imported on first use, after set-up.

Each workload exposes ``ops``, a list of callables that each run one
operation and return its output, and ``check(i, output)``, which checks the
output of ``ops[i]`` against the reference computations and adds it to the
quality totals.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile

TRIAL_CAP = 20  # max_trials of every construction


def _reference():
    import reference

    return reference


def _witness(result_dict: dict) -> tuple[str, list[int]]:
    w = result_dict["witness"]
    return ("set", w["set"]) if "set" in w else ("values", w["values"])


def _gnp_min_degree(md, n: int, mean_degree: float, min_degree: int, rnd: random.Random):
    """A seeded gnp graph; graph seeds are drawn from rnd until the minimum
    degree admits every construction the workload runs on it."""
    while True:
        g = md.graph.gnp(n, mean_degree / (n - 1), rnd.randrange(2**31))
        if g.min_degree >= min_degree:
            return g


def _vectors(n: int, rnd: random.Random, caps, demands):
    return (
        tuple(rnd.choice(caps) for _ in range(n)),
        tuple(rnd.choice(demands) for _ in range(n)),
    )


class _Instance:
    """One (graph, spec, construction seed); ``label`` names the spec."""

    def __init__(self, md, graph, label: str, seed: int, vectors=None):
        self.graph = graph
        self.label = label
        self.seed = seed
        self.caps, self.demands = vectors if vectors else (None, None)
        spec = md.DominationSpec
        head, _, arg = label.partition(":")
        if head == "classical":
            self.spec = spec.classical()
        elif head == "param":
            self.spec = spec.parametric(*(int(x) for x in arg.split(",")))
        elif head == "rs":
            self.spec = spec.rs(self.caps, self.demands)
        elif head == "totalrs":
            self.spec = spec.total_rs(self.caps, self.demands)
        else:
            make = {
                "kdom": spec.k_dominating,
                "ktuple": spec.k_tuple,
                "totalk": spec.total_k,
                "bracek": spec.brace_k,
            }[head]
            self.spec = make(int(arg))

    def rule(self):
        return _reference().rule_for(self.label, self.graph.n, self.caps, self.demands)


def _construct(md, g, spec, seed: int):
    """The construction a spec selects, as ``multidom construct`` picks it."""
    v = spec.variant
    if v == "rs":
        return md.construct_rs(g, spec.r, spec.s, seed, TRIAL_CAP)
    if v == "total_rs":
        return md.construct_total_rs(g, spec.r, spec.s, seed, TRIAL_CAP)
    if v == "brace_k":
        vec = (spec.k,) * g.n
        return md.construct_rs(g, vec, vec, seed, TRIAL_CAP)
    k, l = spec.requirements()
    return md.construct_parametric(g, k, l, seed, TRIAL_CAP)


def _verify(md, g, spec, witness):
    if spec.is_set_variant:
        return md.verify_set(g, spec, witness)
    return md.verify_function(g, spec, witness)


class _Workload:
    def __init__(self):
        self.weight_total = 0
        self.bound_total = 0.0
        self.output_bytes_per_round = 0
        self._edge_graphs: dict[int, object] = {}

    def close(self) -> None:
        pass

    def edge_graph(self, g):
        """Reference copy of g, built from its raw edge list once."""
        ref = _reference()
        key = id(g)
        if key not in self._edge_graphs:
            eg = ref.EdgeGraph(g.n, g.edges())
            ref.require(eg.m == g.m, "Graph.m differs from its edge list")
            ref.require(eg.summary()["min_degree"] == g.min_degree, "wrong min_degree")
            ref.require(eg.summary()["max_degree"] == g.max_degree, "wrong max_degree")
            self._edge_graphs[key] = eg
        return self._edge_graphs[key]

    def check_construction(self, inst, result, verdict=None) -> int:
        """Witness, weight, trial count and target flag of one construction."""
        ref = _reference()
        eg = self.edge_graph(inst.graph)
        _, witness = _witness(result.to_dict())
        w = ref.witness_weight(eg, inst.rule(), witness)
        ref.require(w == result.weight, f"{inst.label}: reported weight {result.weight} != {w}")
        ref.require(1 <= result.trials <= TRIAL_CAP, f"{inst.label}: {result.trials} trials")
        met = result.weight <= math.ceil(result.target)
        ref.require(result.met_target == met, f"{inst.label}: met_target disagrees with weight")
        ref.require(met or result.trials == TRIAL_CAP, f"{inst.label}: stopped before the cap")
        if verdict is not None:
            ref.require(
                verdict.valid and verdict.weight == w and not verdict.deficiencies,
                f"{inst.label}: verify disagrees with the reference check",
            )
        return w

    def add_quality(self, weight: int, bound: float | None) -> None:
        if bound is not None:
            self.weight_total += weight
            self.bound_total += bound


class ConstructLarge(_Workload):
    """bounds_for_spec, construct_*, verify_* on graphs of thousands of vertices."""

    # On gnp graphs the minimum degree varies with the seed and the bounds
    # follow it; these specs meet their target in the first trial whatever
    # it is. kdom and ktuple run on the 4-regular graph, where they miss the
    # target in every trial, so full-cap runs are timed.
    GNP_SPECS = ("classical", "totalk:2", "param:1,3", "param:2,4", "bracek:2", "rs", "totalrs")
    REGULAR_SPECS = ("kdom:2", "ktuple:3", "param:1,3", "bracek:3")

    def __init__(self, md, seed: int, quick: bool):
        super().__init__()
        self.md = md
        rnd = random.Random(seed)
        scale = 10 if quick else 1
        self.regular = md.graph.random_regular(2000 // scale, 4, rnd.randrange(2**31))
        # min degree 3 admits param:2,4 and totalrs with caps >= 2
        graphs = [
            (_gnp_min_degree(md, 3000 // scale, 20, 3, rnd), self.GNP_SPECS),
            (_gnp_min_degree(md, 2000 // scale, 20, 3, rnd), self.GNP_SPECS),
            (self.regular, self.REGULAR_SPECS),
        ]
        self.instances = []
        for g, labels in graphs:
            vectors = _vectors(g.n, rnd, caps=(2, 3), demands=(1, 2, 3))
            for label in labels:
                self.instances.append(
                    _Instance(md, g, label, rnd.randrange(2**31), vectors)
                )
        self.ops = [self._op(inst) for inst in self.instances]

    def _op(self, inst):
        md = self.md

        def op():
            g, spec = inst.graph, inst.spec
            reports = md.bounds_for_spec(spec, g.min_degree, g.n)
            result = _construct(md, g, spec, inst.seed)
            return reports, result, _verify(md, g, spec, result.witness)

        return op

    def check(self, i: int, output) -> None:
        ref = _reference()
        inst = self.instances[i]
        reports, result, verdict = output
        if inst.graph is self.regular:
            degrees = self.edge_graph(inst.graph).degrees
            ref.require(bool((degrees == 4).all()), "random_regular graph is not 4-regular")
        w = self.check_construction(inst, result, verdict)
        self.add_quality(w, ref.min_applicable_bound([r.to_dict() for r in reports]))


class ExactSmall(_Workload):
    """Exact search, then the bounds and the construction, on tiny graphs."""

    SET_SPECS = ("classical", "kdom:2", "ktuple:2", "totalk:2", "param:1,3")
    FUNCTION_SPECS = ("bracek:2", "rs", "totalrs")

    def __init__(self, md, seed: int, quick: bool):
        super().__init__()
        self.md = md
        rnd = random.Random(seed)
        # Exact search time varies several-fold between graphs of one size,
        # so a round holds many small graphs rather than a few large ones;
        # otherwise the round time follows the seed.
        set_ns = (10, 11) if quick else (12, 13, 14) * 40
        function_ns = (7, 8) if quick else (9, 10, 11) * 15
        pairs = []  # (graph, labels)
        for n in set_ns:
            pairs.append((_gnp_min_degree(md, n, 0.3 * (n - 1), 2, rnd), self.SET_SPECS))
        for n in function_ns:
            pairs.append((_gnp_min_degree(md, n, 0.4 * (n - 1), 2, rnd), self.FUNCTION_SPECS))
        pairs += [
            (md.graph.cycle(12), self.SET_SPECS),
            (md.graph.cycle(10), self.FUNCTION_SPECS),
            (md.graph.petersen(), self.SET_SPECS + self.FUNCTION_SPECS),
            # the two instances benchmarks/bench_kernels.py times
            (md.graph.gnp(16, 0.35, 3), ("ktuple:2",)),
            (md.graph.gnp(13, 0.3, 5), ("bracek:2",)),
        ]
        self.instances = []
        for g, labels in pairs:
            vectors = _vectors(g.n, rnd, caps=(2, 3), demands=(1, 2))
            for label in labels:
                self.instances.append(_Instance(md, g, label, rnd.randrange(2**31), vectors))
        self.ops = [self._op(inst) for inst in self.instances]

    def _op(self, inst):
        md = self.md

        def op():
            g, spec = inst.graph, inst.spec
            if spec.is_set_variant:
                exact = md.exact_set_number(g, spec, limit_n=g.n)
            else:
                exact = md.exact_function_number(g, spec, limit_n=g.n)
            reports = md.bounds_for_spec(spec, g.min_degree, g.n)
            return exact, reports, _construct(md, g, spec, inst.seed)

        return op

    def check(self, i: int, output) -> None:
        ref = _reference()
        inst = self.instances[i]
        exact, reports, result = output
        eg = self.edge_graph(inst.graph)
        rule = inst.rule()
        _, witness = _witness(exact.to_dict())
        ref.require(ref.witness_weight(eg, rule, witness) == exact.value,
                    f"{inst.label}: exact witness weight differs from its value")
        best = ref.optimum(eg, rule)
        ref.require(exact.value == best, f"{inst.label}: exact value {exact.value} != optimum {best}")
        w = self.check_construction(inst, result)
        ref.require(exact.value <= w, f"{inst.label}: construction beats the optimum")
        bounds = [r.to_dict() for r in reports]
        for b in bounds:
            if b["applicable"] and b["absolute"] is not None:
                ref.require(exact.value <= b["absolute"] + 1e-9,
                            f"{inst.label}: optimum exceeds bound {b['name']}")
        self.add_quality(w, ref.min_applicable_bound(bounds))


class CliPipeline(_Workload):
    """The README pipeline through multidom.cli.main, files in a work dir."""

    SPEC = "bracek:2"
    GRAPHS_PER_ROUND = 2
    OUTPUTS = ("g.edges", "g.dimacs", "bounds.json", "construct.json", "verify.json", "compare.csv")

    def __init__(self, md, seed: int, quick: bool, out_dir: str):
        super().__init__()
        self.md = md
        rnd = random.Random(seed)
        n = 300 if quick else 3000
        os.makedirs(out_dir, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        # (n, p, graph seed, construction seed) per pass
        self.passes = [
            (n, 20 / (n - 1), rnd.randrange(2**31), rnd.randrange(2**31))
            for _ in range(self.GRAPHS_PER_ROUND)
        ]
        self.ops = [self._op(j) for j in range(len(self.passes))]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _op(self, j: int):
        md = self.md
        n, p, gseed, cseed = self.passes[j]
        path = {name: os.path.join(self.workdir, f"{j}-{name}") for name in self.OUTPUTS + ("w.json",)}
        family = ["--family", "gnp", "--n", str(n), "--p", repr(p), "--seed", str(gseed)]
        steps = [
            ["gen", *family, "--out", path["g.edges"]],
            ["gen", *family, "--format", "dimacs", "--out", path["g.dimacs"]],
            ["bounds", "--graph", path["g.edges"], "--spec", self.SPEC, "--no-timestamp",
             "--out", path["bounds.json"]],
            ["construct", "--graph", path["g.dimacs"], "--spec", self.SPEC, "--seed", str(cseed),
             "--trials", "1", "--no-timestamp", "--out", path["construct.json"]],
            ["verify", "--graph", path["g.edges"], "--spec", self.SPEC, "--witness", path["w.json"],
             "--no-timestamp", "--out", path["verify.json"]],
            ["compare", "5", "1000", "1", "--format", "csv", "--out", path["compare.csv"]],
        ]

        def op():
            codes = []
            for argv in steps:
                if argv[0] == "verify":  # the README's witness extraction step
                    with open(path["construct.json"], encoding="utf-8") as fh:
                        witness = json.load(fh)["witness"]
                    with open(path["w.json"], "w", encoding="utf-8") as fh:
                        json.dump(witness, fh)
                codes.append(md.cli.main(argv))
            files = {}
            for name in self.OUTPUTS:
                with open(path[name], "rb") as fh:
                    files[name] = fh.read()
            return {"codes": codes, "files": files}

        return op

    def check(self, j: int, output) -> None:
        ref = _reference()
        n, p, gseed, _ = self.passes[j]
        ref.require(output["codes"] == [0] * 6, f"CLI exit codes {output['codes']}")
        files = {k: v.decode("utf-8") for k, v in output["files"].items()}
        eg = ref.parse_edge_list(files["g.edges"])
        ref.require(ref.parse_dimacs(files["g.dimacs"]).keys.tolist() == eg.keys.tolist(),
                    "edge-list and DIMACS files hold different graphs")
        generated = self.md.graph.gnp(n, p, gseed)
        ref.require(eg.n == generated.n and eg.keys.tolist() == ref.EdgeGraph(
            generated.n, generated.edges()).keys.tolist(), "graph files differ from the generated graph")
        summary = eg.summary()
        bounds = json.loads(files["bounds.json"])
        construct = json.loads(files["construct.json"])
        verify = json.loads(files["verify.json"])
        for name, doc in (("bounds", bounds), ("construct", construct), ("verify", verify)):
            ref.require(doc["graph"] == summary, f"{name}: graph summary {doc['graph']} != {summary}")
            ref.require(doc["spec"] == self.SPEC and "generated_at" not in doc, f"{name}: header")
        kind, witness = _witness(construct)
        w = ref.witness_weight(eg, ref.rule_for(self.SPEC, eg.n), witness)
        ref.require(kind == "values" and w == construct["weight"], "construct: witness weight")
        ref.require(construct["trials"] == 1, "construct: more than one trial")
        ref.require(construct["met_target"] == (w <= math.ceil(construct["target"])),
                    "construct: met_target disagrees with weight")
        ref.require(verify["valid"] and verify["weight"] == w and verify["deficiencies"] == [],
                    "verify disagrees with the reference check")
        self._check_compare(files["compare.csv"])
        self.add_quality(w, ref.min_applicable_bound(bounds["bounds"]))
        self.output_bytes_per_round += sum(len(b) for b in output["files"].values())

    @staticmethod
    def _check_compare(text: str) -> None:
        """compare 5 1000 1: rows k = 1..floor(1001/3); the c3 and tuned
        columns equal the threshold coefficient (c/(delta+1) +
        e^(-k(c+1/c-2)/2)) k at c = 3 and c = tuned_c; 'best' names the
        smallest of the rv, c3 and tuned coefficients."""
        ref = _reference()
        lines = text.splitlines()
        ref.require(lines[0] == "k,rv,c3,tuned_c,tuned_value,best", "compare: header")
        rows = [line.split(",") for line in lines[1:]]
        ref.require([int(r[0]) for r in rows] == list(range(1, 1001 // 3 + 1)), "compare: k column")

        def coeff(k: int, c: float) -> float:
            return (c / 1001 + math.exp(-0.5 * k * (c + 1 / c - 2))) * k

        for k, rv, c3, tuned_c, tuned, best in rows:
            for value, c in ((c3, 3.0), (tuned, tuned_c)):
                if value:
                    ref.require(math.isclose(float(value), coeff(int(k), float(c)), rel_tol=1e-9),
                                f"compare: threshold coefficient at k={k}")
            options = {name: float(v) for name, v in (("rv", rv), ("c3", c3), ("tuned", tuned)) if v}
            ref.require(best == (min(options, key=options.get) if options else ""),
                        f"compare: best at k={k}")


WORKLOADS = ("construct-large", "exact-small", "cli-pipeline")


def build(name: str, md, seed: int, quick: bool, out_dir: str) -> _Workload:
    if name == "construct-large":
        return ConstructLarge(md, seed, quick)
    if name == "exact-small":
        return ExactSmall(md, seed, quick)
    if name == "cli-pipeline":
        return CliPipeline(md, seed, quick, out_dir)
    raise ValueError(f"unknown workload {name!r}")
