"""The benchmark's workloads: seeded inputs, set-up, operations and checks.

Each workload has three parts:

* `generate(rng, workdir)` writes the seeded inputs: class-spec files and
  plain learner, stream and query specs.  Only these reach the program.
* `build(cl, specs, workdir)` turns the specs into program objects (class
  text goes through `load_class`) and returns the fixed operation list.
  Together with the imports this is the timed set-up.
* `check(cl, specs, ops, results)` compares every result of one round with
  the reference oracle, or with a property the method must have.

`cl` is a namespace holding the crosslimit modules, looked up at call time
so that the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    spec: dict
    context: dict | None = None


def _literal(modulus: int, residues, plus=(), minus=()) -> str:
    def braced(xs):
        xs = sorted(set(xs))
        return "{ " + ", ".join(map(str, xs)) + " }" if xs else "{ }"
    text = f"mod {modulus} {braced(residues)}"
    if plus:
        text += f" + {braced(plus)}"
    if minus:
        text += f" - {braced(minus)}"
    return text


def _write_class(workdir: str, name: str, supports: list[str]) -> str:
    path = os.path.join(workdir, name)
    doc = {"hypotheses": [{"id": f"h{i + 1}", "support": s} for i, s in enumerate(supports)],
           "uus": False}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _random_supports(rng, count: int, max_modulus: int, below: int) -> list[str]:
    """`count` distinct supports, each neither empty nor all of X."""
    supports: list[str] = []
    tables: list[tuple] = []
    while len(supports) < count:
        m = rng.randint(1, max_modulus)
        residues = {r for r in range(m) if rng.random() < 0.5}
        plus = {rng.randrange(below) for _ in range(rng.randint(0, 3))}
        minus = {rng.randrange(below) for _ in range(rng.randint(0, 3))} - plus
        text = _literal(m, residues, plus, minus)
        lit = oracle.Lit(text)
        table = tuple(lit.contains(x) for x in range(oracle.horizon([lit]) + 60))
        if any(table) and not all(table) and table not in tables:
            supports.append(text)
            tables.append(table)
    return supports


def _coprime_supports(rng, moduli, below: int) -> list[str]:
    """One support per modulus, each with half its residues.

    The residue counts set the size of every lcm lift, so they are the same
    for every seed; the seed picks which residues and the exceptions.
    """
    supports = []
    for m in moduli:
        residues = set(rng.sample(range(m), m // 2))
        plus = {rng.randrange(below) for _ in range(2)}
        minus = {rng.randrange(below) for _ in range(2)} - plus
        supports.append(_literal(m, residues, plus, minus))
    return supports


def _lits(supports: list[str]) -> dict:
    return {f"h{i + 1}": oracle.Lit(s) for i, s in enumerate(supports)}


def _pinned_lits(span: int, core, anchors) -> dict:
    """Pinned-core members from their definition, not from the program."""
    return {
        f"h{i + 1}": oracle.Lit(_literal(span, set(range(span)) - {i}, core, anchors))
        for i in range(span)
    }


def _edges(edge_set) -> list[tuple[int, int]]:
    return [(p.lo, p.hi) for p in edge_set.edges] if edge_set is not None else []


# ----------------------------------------------------------------------
# dimension-search: one operation is one closure_dimension call
# ----------------------------------------------------------------------

# (span, |core|, |anchors|): |core|*|anchors| < PINNED_MAX, so the search can
# never stop early and always spends its whole budget.  The pinned-core calls
# are more than half of the list, so the median and the tail operation are
# fixed-work searches and do not hang on how hard a seeded random class is.
PINNED = ([(7, 1, 1), (8, 2, 1), (7, 1, 2), (8, 1, 3),
           (7, 3, 1), (8, 1, 1), (7, 2, 1), (8, 1, 2)] * 3)[:22]
PINNED_MAX, PINNED_HORIZON, PINNED_BUDGET = 4, 16, 200
LADDERS, LADDER_MAX, LADDER_HORIZON = 4, 6, 24
RANDOM_SIZES = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 3, 4, 5, 3, 4, 5)
RANDOM_MAX, RANDOM_HORIZON = 3, 14
# the bounded search the cell analysis is checked against
AGREE_MAX, AGREE_HORIZON = 2, 12


def dimension_generate(rng, workdir: str) -> list[dict]:
    specs = []
    # The cost of a fixed-budget search still depends on where the core and
    # anchors lie (up to 2x), so the pinned-core slots are the same for every
    # seed and the median and tail operation do not move with it.
    slots = random.Random("pinned-core slots")
    for span, ncore, nanchors in PINNED:
        picks = slots.sample(range(PINNED_HORIZON), ncore + nanchors)
        specs.append({"kind": "pinned", "span": span, "core": sorted(picks[:ncore]),
                      "anchors": sorted(picks[ncore:])})
    for _ in range(LADDERS):
        specs.append({"kind": "ladder", "truncation": rng.randint(6, 12)})
    for i, size in enumerate(RANDOM_SIZES):
        supports = _random_supports(rng, size, 6, 12)
        specs.append({"kind": "random", "supports": supports,
                      "path": _write_class(workdir, f"dim{i}.json", supports)})
    return specs


def dimension_build(cl, specs, workdir) -> list[Op]:
    ops = []
    for spec in specs:
        if spec["kind"] == "pinned":
            cls = cl.classes.pinned_core_class(spec["span"], spec["core"], spec["anchors"])
            args = (PINNED_MAX, PINNED_HORIZON, PINNED_BUDGET)
        elif spec["kind"] == "ladder":
            cls = cl.classes.punctured_class(spec["truncation"])
            args = (LADDER_MAX, LADDER_HORIZON)
        else:
            cls = cl.classes.load_class(spec["path"])
            args = (RANDOM_MAX, RANDOM_HORIZON)
        ops.append(Op(spec["kind"], lambda cls=cls, args=args:
                      cl.closure.closure_dimension(cls, *args), spec))
    return ops


def _padded(cl, cls):
    """The class with duplicate members appended until the cell analysis no
    longer applies: duplicates change no version space and no closure, so
    `closure_dimension` answers the same question by the bounded search."""
    members = list(cls.members)
    i = 0
    while len(members) <= cl.crossing.PATTERN_BOUND:
        h = cls.members[i % len(cls.members)]
        members.append(cl.classes.Hypothesis(f"{h.id}-copy{i}", h.support))
        i += 1
    return cl.classes.HypothesisClass(tuple(members))


def dimension_check(cl, specs, ops, results) -> list[str]:
    problems = []
    for n, (spec, report) in enumerate(zip(specs, results)):
        label = f"dimension-search op {n} ({spec['kind']})"
        limit = None
        if spec["kind"] == "pinned":
            members = _pinned_lits(spec["span"], spec["core"], spec["anchors"])
            problems += oracle.check_pinned_bound(
                report.dimension, len(spec["core"]), len(spec["anchors"]), label)
            if report.outcome != "at-least" or not any("exhausted" in x for x in report.notes):
                problems.append(f"{label}: expected an exhausted bounded search, got {report}")
        elif spec["kind"] == "ladder":
            members, limit = oracle.punctured_members(
                oracle.Lit("mod 2 { 0 }"), _edges(report.witness))
            if (report.outcome, report.dimension) != ("at-least", LADDER_MAX):
                problems.append(f"{label}: ladder gave {report}, not at-least({LADDER_MAX})")
        else:
            members = _lits(spec["supports"])
            cls = cl.classes.load_class(spec["path"])
            bounded = cl.closure.closure_dimension(
                _padded(cl, cls), AGREE_MAX, AGREE_HORIZON, 10 ** 9)
            # the bounded search with an unlimited budget is exhaustive: it
            # never passes the exact count and finds every small witness
            exact = AGREE_MAX if report.dimension is None else min(report.dimension, AGREE_MAX)
            witness = _edges(report.witness)
            reachable = len(witness) <= AGREE_MAX and all(
                x < AGREE_HORIZON for e in witness for x in e)
            if bounded.dimension > exact or (reachable and bounded.dimension < len(witness)):
                problems.append(
                    f"{label}: cell analysis {report} and bounded search {bounded} disagree")
        if report.witness is not None:
            problems += oracle.check_witness_hollow(
                members, _edges(report.witness), label, limit)
    return problems


# ----------------------------------------------------------------------
# long-runs: one operation is one run() of a learner on a stream
# ----------------------------------------------------------------------

# learner -> the N of each tier; every tier runs at N and at 2N
TIERS = {
    "absence-count": (100, 200, 800),
    "text-simulation": (25, 50, 200),
    "eligibility": (50, 100, 200),
    "closure-gen": (25, 50, 200),
    "safe-core-gen": (25, 50, 200),
    "eventual-core-gen": (25, 50, 200),
    "identify-then-generate": (25, 50, 200),
}
# stream of each tier; "repeat" replays a fixed list, so the edge set stops
# changing, while "canonical" adds a new edge at every step
STREAMS = {
    "text-simulation": ("canonical", "sampled", "canonical"),
    "eligibility": ("sampled", "sampled", "sampled"),
    "closure-gen": ("repeat", "sampled", "canonical"),
    "safe-core-gen": ("repeat", "sampled", "canonical"),
    "eventual-core-gen": ("sampled", "canonical", "canonical"),
    "identify-then-generate": ("sampled", "canonical", "canonical"),
}


# The seed places residues, exceptions, holes and stream samples; the moduli,
# sizes and target members that set the cost of a run are fixed, so run
# times do not move with the seed.
OVERLAP_MODULUS, SHARED_MODULUS, PINNED_SPAN = 3, 5, 4


def _overlap_supports(rng) -> list[str]:
    """Three supports whose incomparable pairs are all overlapping covers."""
    m = OVERLAP_MODULUS
    residues = list(range(m))
    rng.shuffle(residues)
    # one residue against two: the density of each member sets how far
    # nth_member walks, so it is the same for every seed
    first, second = set(residues[:1]), set(residues[1:])
    in_second = [x for x in range(20) if x % m in second]
    in_first = [x for x in range(20) if x % m in first]
    a, c = rng.sample(in_second, 2)
    b = rng.choice(in_first)
    return [_literal(m, first, {a}), _literal(m, second, {b}), _literal(1, {0}, (), {c})]


def _shared_core_supports(rng) -> list[str]:
    """Three distinct supports that all hold one infinite residue class."""
    m = SHARED_MODULUS
    core = rng.randrange(m)
    others = rng.sample([r for r in range(m) if r != core], 3)
    supports = []
    for other in others:
        plus = {rng.randrange(24)}
        minus = {x for x in (rng.randrange(24),) if x % m == other} - plus
        supports.append(_literal(m, {core, other}, plus, minus))
    return supports


def long_generate(rng, workdir: str) -> list[dict]:
    overlap = _overlap_supports(rng)
    shared = _shared_core_supports(rng)
    span = PINNED_SPAN
    picks = rng.sample(range(3 * span), 3)
    core, anchors = picks[:2], picks[2:]
    pinned = [_literal(span, set(range(span)) - {i}, core, anchors) for i in range(span)]
    classes = {
        "overlap": {"supports": overlap, "path": _write_class(workdir, "overlap.json", overlap)},
        "shared": {"supports": shared, "path": _write_class(workdir, "shared.json", shared)},
        "pinned": {"supports": pinned, "path": _write_class(workdir, "pinned.json", pinned),
                   "dimension": len(core) * len(anchors)},
    }
    specs = []
    for learner, tiers in TIERS.items():
        for tier, n in enumerate(tiers):
            spec = {"learner": learner, "tier": tier, "classes": classes,
                    "stream": STREAMS.get(learner, ("canonical",) * 3)[tier],
                    "stream_seed": rng.randrange(10 ** 6)}
            if learner == "absence-count":
                hole = rng.randint(2, 30)
                others = [x for x in range(40) if x != hole]
                spec["hole"] = hole
                spec["injections"] = [
                    [t, *sorted(rng.sample(others, 2))]
                    for t in sorted(rng.sample(range(3, 31), 3))]
            elif learner == "eventual-core-gen":
                spec["truncation"] = rng.randint(6, 12)
                spec["target"] = rng.randrange(spec["truncation"] + 1)
            else:
                name = {"closure-gen": "pinned", "safe-core-gen": "shared"}.get(learner, "overlap")
                spec["class"] = name
                spec["target"] = tier % len(classes[name]["supports"])
            for steps in (n, 2 * n):
                specs.append(dict(spec, steps=steps))
    return specs


def _stream(cl, spec, target):
    s = cl.streams
    kind = spec["stream"]
    if spec["learner"] == "text-simulation":
        if kind == "sampled":
            return s.sampled_text(target, spec["stream_seed"])
        return s.canonical_text(target)
    if kind == "sampled":
        return s.sampled_contrastive(target, spec["stream_seed"])
    if kind == "repeat":
        script = list(s.sampled_contrastive(target, spec["stream_seed"]).prefix(12).items)
        return s.scripted_contrastive(target, script, tail="repeat")
    return s.canonical_contrastive(target)


def long_build(cl, specs, workdir) -> list[Op]:
    loaded = {}
    learners = {}
    ops = []
    for spec in specs:
        name = spec["learner"]
        if name == "absence-count":
            family = cl.classes.CoSingletonClass()
            target = family.member(spec["hole"])
            inner = cl.streams.canonical_contrastive(target)
            injections = [(t, cl.streams.Pair.of(lo, hi)) for t, lo, hi in spec["injections"]]
            stream = cl.streams.corrupt(inner, injections)
            learner = cl.learners.AbsenceCountIdentifier(family)
            window = 20
        else:
            window = 5
            if name == "eventual-core-gen":
                cls = cl.classes.punctured_class(spec["truncation"])
                base = cls.by_id("h_inf").support
                learner = cl.learners.EventualCoreGenerator(lambda m, b=base: b.nth_member(m - 1))
            else:
                key = spec["class"]
                if key not in loaded:
                    loaded[key] = cl.classes.load_class(spec["classes"][key]["path"])
                cls = loaded[key]
                learner = learners.get((name, key))
                if learner is None:
                    learner = _learner(cl, name, cls)
                    learners[(name, key)] = learner
            target = cls.members[spec["target"]]
            stream = _stream(cl, spec, target)
        ops.append(Op(f"{name}@{spec['steps']}", lambda l=learner, s=stream, n=spec["steps"],
                      w=window, t=target: cl.learners.run(l, s, n, w, target=t), spec,
                      {"learner": learner, "stream": stream}))
    return ops


def _learner(cl, name, cls):
    L = cl.learners
    if name in ("text-simulation", "eligibility", "identify-then-generate"):
        eligibility = L.EligibilityIdentifier(cls, L.compute_telltales(cls))
        if name == "text-simulation":
            return L.TextFromContrastiveIdentifier(eligibility)
        if name == "identify-then-generate":
            return L.IdentifyThenGenerate(eligibility)
        return eligibility
    if name == "closure-gen":
        report = cl.closure.closure_dimension(cls)
        if report.outcome != "exact":
            raise ValueError(f"closure generator needs an exact dimension, got {report}")
        return L.ClosureGenerator(cls, report.dimension)
    return L.SafeCoreGenerator(cls)


def _target_lit(spec):
    if spec["learner"] == "eventual-core-gen":
        base = oracle.Lit("mod 2 { 0 }")
        m = spec["target"]
        return base if m == 0 else oracle.Punctured(base, 2 * (m - 1))
    return oracle.Lit(spec["classes"][spec["class"]]["supports"][spec["target"]])


def long_check(cl, specs, ops, results) -> list[str]:
    problems = []
    for n, (spec, op, record) in enumerate(zip(specs, ops, results)):
        label = f"long-runs op {n} ({op.label})"
        if spec["learner"] == "absence-count":
            problems += oracle.check_identifier(
                record.final_output(), record.converged_at, f"h{spec['hole']}", label)
        elif spec["learner"] in ("text-simulation", "eligibility"):
            problems += oracle.check_identifier(
                record.final_output(), record.converged_at, f"h{spec['target'] + 1}", label)
        else:
            stream = op.context["stream"]
            items = [stream.item(t) for t in range(1, record.steps + 1)]
            items = [(p.lo, p.hi) for p in items]
            problems += oracle.check_generator(
                record.outputs, items, record.converged_at, _target_lit(spec), label)
        if spec["learner"] == "closure-gen":
            expected = spec["classes"]["pinned"]["dimension"]
            learner = op.context["learner"]
            if learner.dimension != expected:
                problems.append(f"{label}: dimension {learner.dimension}, analytic {expected}")
    return problems


# ----------------------------------------------------------------------
# verdicts: one operation is one in-process `crosslimit` command
# ----------------------------------------------------------------------

SMALL_CLASSES = (2, 3, 3, 4, 4, 5, 5, 3, 4, 2)
# pairwise-coprime moduli: the four-way intersection lifts to their product
COPRIME = [(7, 11, 13, 16), (9, 11, 13, 16), (7, 9, 11, 13), (5, 11, 13, 16), (9, 11, 13, 17)]
ZOO = {
    "disjoint": ("no", "yes", "no", "yes"),
    "punctured:8": ("no", "no", "yes", "yes"),
    "augmented:8": ("no", "yes", "yes", "yes"),
    "overlap-cover": ("yes", "yes", "yes", "yes"),
    "six-cell": None,  # the paper states ctr_gen = no
}


def verdict_generate(rng, workdir: str) -> list[dict]:
    specs = []
    groups = [_random_supports(rng, k, 6, 20) for k in SMALL_CLASSES]
    groups += [_coprime_supports(rng, moduli, 20) for moduli in COPRIME]
    for i, supports in enumerate(groups):
        path = _write_class(workdir, f"verdict{i}.json", supports)
        pair = sorted(rng.sample(range(len(supports)), 2))
        pair_arg = f"h{pair[0] + 1},h{pair[1] + 1}"
        base = {"supports": supports, "pair": pair}
        specs.append(dict(base, command="classify", argv=["classify", "--class", path]))
        specs.append(dict(base, command="eliminable",
                          argv=["eliminable", "--class", path, "--pair", pair_arg]))
        specs.append(dict(base, command="defect",
                          argv=["defect", "--class", path, "--pair", pair_arg, "--verify"]))
    for witness in ZOO:
        specs.append({"command": "zoo", "witness": witness,
                      "argv": ["classify", "--witness", witness]})
    return specs


def _cli(cl, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cl.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"crosslimit {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def verdict_build(cl, specs, workdir) -> list[Op]:
    return [Op(spec["command"], lambda argv=spec["argv"]: _cli(cl, argv), spec)
            for spec in specs]


def _corner(doc) -> tuple:
    return tuple(doc[k]["status"] for k in ("ctr_id", "txt_id", "ctr_gen", "txt_gen"))


def verdict_check(cl, specs, ops, results) -> list[str]:
    problems = []
    for n, (spec, text) in enumerate(zip(specs, results)):
        label = f"verdicts op {n} ({' '.join(spec['argv'][:1] + spec['argv'][3:])})"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            problems.append(f"{label}: output is not JSON")
            continue
        if spec["command"] == "zoo":
            expected = ZOO[spec["witness"]]
            if expected is None:
                if doc["ctr_gen"]["status"] != "no":
                    problems.append(f"{label}: six-cell ctr_gen is {doc['ctr_gen']['status']}")
            else:
                problems += oracle.check_corner(_corner(doc), expected, label)
            continue
        members = _lits(spec["supports"])
        if spec["command"] == "classify":
            problems += oracle.check_diamond(_corner(doc), members, label)
            if doc["txt_id"]["status"] == "yes":
                problems += oracle.check_telltales(members, doc["txt_id"]["witness"], label)
            witness = doc["ctr_gen"].get("witness") or {}
            if "shared_stream" in witness:
                cls = cl.classes.load_class(spec["argv"][2])
                family = [cls.by_id(hid) for hid in witness["family"]]
                stream = cl.crossing.shared_presentation_family(family)
                pairs = [(p.lo, p.hi) for p in stream.prefix(40).items]
                problems += oracle.check_shared_stream(
                    {hid: members[hid] for hid in witness["family"]}, pairs, label)
            continue
        h, g = (members[f"h{i + 1}"] for i in spec["pair"])
        payload = doc["payload"]
        if spec["command"] == "eliminable":
            problems += oracle.check_eliminable(
                h, g, payload["eliminable"], payload["witness"], label)
        else:
            problems += oracle.check_defect(h, g, payload["kappa"], payload["defect_set"], label)
            if not doc["ok"]:
                problems.append(f"{label}: forced-violation verification failed")
    return problems


WORKLOADS = {
    "dimension-search": (dimension_generate, dimension_build, dimension_check),
    "long-runs": (long_generate, long_build, long_check),
    "verdicts": (verdict_generate, verdict_build, verdict_check),
}
