"""Command-line front-end: geometry queries, runs, classification, verify.

Classes come from a JSON class-spec file (--class) or a named witness
builder (--witness name[:params]), the co-singleton slice when neither is
given; parametric families missing parameters fall back to the global
--truncation / --budget flags.  Outputs are JSON by
default; --format switches to a text summary, and --trace adds a per-step
CSV for identify/generate runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classes import HypothesisClass, WITNESS_BUILDERS, build_witness, load_class
from .closure import closure_dimension
from .crossing import REGIONS, PatternCells, eliminable
from .crossing import shared_presentation_family, shared_presentation_pair
from .harness import Bounds, classify, emit_report, reproduce, Report, Check
from .learners import (
    AbsenceCountIdentifier,
    ClosureGenerator,
    EligibilityIdentifier,
    EventualCoreGenerator,
    GoldInformantIdentifier,
    IdentifyThenGenerate,
    Learner,
    RunRecord,
    SafeCoreGenerator,
    TextFromContrastiveIdentifier,
    compute_telltales,
    run,
)
from .robust import BlockTextIdentifier, defect, verify_forced_violations
from .space import MAX_MODULUS
from .streams import (
    CONTRASTIVE,
    INFORMANT,
    TEXT,
    Pair,
    canonical_contrastive,
    canonical_informant,
    canonical_text,
    corrupt,
    format_prefix,
    parse_injection,
    sampled_contrastive,
    sampled_text,
)

KIND_ALIASES = {"ctr": CONTRASTIVE, "contrastive": CONTRASTIVE, "text": TEXT,
                "txt": TEXT, "inf": INFORMANT, "informant": INFORMANT}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv-trace":  # only `--trace` runs print CSV; reports print JSON
        args.format = "json"
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _count(text: str) -> int:  # the argparse type of counts and bounds
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="crosslimit",
        description="contrastive identification and generation in the limit",
    )
    parser.add_argument("--horizon", type=_count, default=64,
                        help="witness/validation horizon (default 64)")
    parser.add_argument("--truncation", type=_count, default=8,
                        help="default truncation for parametric witness families")
    parser.add_argument("--budget", type=_count, default=1,
                        help="default corruption budget where one is needed")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled streams")
    parser.add_argument("--format", choices=["json", "text-summary", "csv-trace"],
                        default="json", help="output format for reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        # accept the global flags after the subcommand too, without
        # clobbering values given before it
        p.add_argument("--horizon", type=_count, default=argparse.SUPPRESS)
        p.add_argument("--truncation", type=_count, default=argparse.SUPPRESS)
        p.add_argument("--budget", type=_count, default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--format", choices=["json", "text-summary", "csv-trace"],
                       default=argparse.SUPPRESS)
        return p

    p = add("regions", cmd_regions, "four-region partition for a hypothesis pair")
    _class_args(p)
    p.add_argument("--pair", required=True, help="two hypothesis ids, comma separated")

    p = add("eliminable", cmd_eliminable, "eliminability verdict with regime and witness")
    _class_args(p)
    p.add_argument("--pair", required=True)

    p = add("shared", cmd_shared, "shared contrastive presentation for a family")
    _class_args(p)
    p.add_argument("--family", required=True, help="hypothesis ids, comma separated")
    p.add_argument("--take", type=_count, default=12, help="pairs to print when one exists")

    p = add("dimension", cmd_dimension, "closure dimension search")
    _class_args(p)
    p.add_argument("--max-size", type=_count, default=8)
    p.add_argument("--vertex-horizon", type=_count, default=None,
                   help="vertex bound for the edge search (defaults to --horizon)")

    p = add("stream", cmd_stream, "print a presentation prefix, one item per line")
    _class_args(p, required=False)
    p.add_argument("--target", required=True, help="hypothesis id or index (past the list: a hole)")
    p.add_argument("--kind", default="ctr", choices=sorted(KIND_ALIASES))
    p.add_argument("--take", type=_count, default=20)
    p.add_argument("--sampled", dest="sampled", action="store_true",
                   help="seeded pseudorandom valid stream instead of the canonical one")
    p.add_argument("--corrupt", action="append", default=[],
                   help="injection index:item, e.g. 3:{0,4}; repeatable")

    p = add("identify", cmd_identify, "run an identifier and report the record")
    _run_args(p)

    p = add("generate", cmd_generate, "run a generator and report the record")
    _run_args(p)

    p = add("defect", cmd_defect, "defect set, defect number, optimal stream")
    _class_args(p)
    p.add_argument("--pair", required=True)
    p.add_argument("--verify", action="store_true",
                   help="check the forced-violation bound on trial streams")

    p = add("corrupt-id", cmd_corrupt_id, "absence-count run on a corrupted star")
    p.add_argument("--witness", default="co-singleton")
    p.add_argument("--target", type=int, required=True, help="the hidden hole")
    p.add_argument("--steps", type=_count, default=200)
    p.add_argument("--window", type=_count, default=20)

    p = add("classify", cmd_classify, "diamond-hierarchy verdicts with witnesses")
    _class_args(p)

    p = add("reproduce", cmd_reproduce, "re-run a stored worked example and diff")
    p.add_argument("example", choices=["fig1", "ex61", "exD2", "diamond"])

    add("verify", cmd_verify, "run the acceptance suite; exit 0 iff all pass")
    return parser


def _class_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--class", dest="class_path", help="JSON class-spec file")
    group.add_argument("--witness", help=f"one of {sorted(WITNESS_BUILDERS)} (name[:params])")


def _run_args(p: argparse.ArgumentParser) -> None:
    _class_args(p, required=False)
    p.add_argument("--learner", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--stream", default="canonical",
                   help="canonical | sampled[:seed] | shared")
    p.add_argument("--steps", type=_count, default=60)
    p.add_argument("--window", type=_count, default=5)
    p.add_argument("--corrupt", action="append", default=[],
                   help="injection index:item; repeatable")
    p.add_argument("--trace", action="store_true", help="emit a per-step CSV trace")


def _load(args) -> HypothesisClass:
    """The class named by --class or --witness; the co-singleton slice when neither is given."""
    if getattr(args, "class_path", None):
        return load_class(args.class_path)
    witness = getattr(args, "witness", None) or "co-singleton"
    if ":" not in witness:
        name = witness
        _, arity = WITNESS_BUILDERS.get(name, (None, 0))
        if arity == 1:
            witness = f"{name}:{args.truncation}"
        elif arity == 2:
            witness = f"{name}:{args.budget},{args.truncation}"
    return build_witness(witness)


def _pair(args, cls: HypothesisClass):
    ids = [part.strip() for part in args.pair.split(",")]
    if len(ids) != 2:
        raise ValueError(f"--pair needs two ids, got {args.pair!r}")
    return cls.by_id(ids[0]), cls.by_id(ids[1])


def _emit(args, title: str, payload: dict, checks: tuple = ()) -> int:
    sys.stdout.write(emit_report(Report(title, checks, payload), args.format))
    return 0


def cmd_regions(args) -> int:
    cls = _load(args)
    h, g = _pair(args, cls)
    cells = PatternCells.of((h, g))
    payload = {name: cells.cell(alpha).literal() for name, alpha in REGIONS.items()}
    return _emit(args, f"regions({h.id},{g.id})", payload)


def cmd_eliminable(args) -> int:
    cls = _load(args)
    h, g = _pair(args, cls)
    verdict = eliminable(h, g)
    payload = {
        "first": h.id,
        "second": g.id,
        "eliminable": verdict.eliminable,
        "regime": verdict.regime,
        "witness": verdict.witness,
        "supports": {h.id: h.support.literal(), g.id: g.support.literal()},
    }
    return _emit(args, f"eliminable({h.id},{g.id})", payload)


def cmd_shared(args) -> int:
    cls = _load(args)
    family = [cls.by_id(part.strip()) for part in args.family.split(",")]
    stream = (
        shared_presentation_pair(family[0], family[1])
        if len(family) == 2
        else shared_presentation_family(family)
    )
    payload: dict = {"family": [h.id for h in family], "exists": stream is not None}
    if stream is not None:
        payload["stream"] = stream.provenance
        payload["prefix"] = [str(p) for p in stream.prefix(args.take).items]
    return _emit(args, "shared presentation", payload)


def cmd_dimension(args) -> int:
    cls = _load(args)
    vertex_horizon = args.vertex_horizon if args.vertex_horizon is not None else args.horizon
    report = closure_dimension(cls, args.max_size, vertex_horizon)
    payload = {
        "outcome": report.outcome,
        "dimension": report.dimension,
        "witness": str(report.witness) if report.witness is not None else None,
        "search_bounds": list(report.search_bounds),
        "notes": list(report.notes),
        "infinite_description": report.infinite_description,
    }
    return _emit(args, f"dimension({cls.describe()})", payload)


def _resolve_target(args, cls: HypothesisClass):
    """The member with id --target, else the member at that index; past the
    member list, the family's member that leaves out that hole."""
    try:
        return cls.by_id(args.target)
    except KeyError:
        if not args.target.isdigit():
            raise
        index = int(args.target)
        target = cls.members[index] if index < len(cls.members) else cls.family.member(index)
        if target is None:
            raise
        return target


def cmd_stream(args) -> int:
    cls = _load(args)
    target = _resolve_target(args, cls)
    spec = "sampled" if args.sampled else "canonical"
    stream = _build_run_stream(args, cls, target, KIND_ALIASES[args.kind], spec)
    sys.stdout.write(format_prefix(stream.prefix(args.take)))
    return 0


LEARNER_CHOICES = (
    "eligibility", "absence-count", "gold-informant", "synthetic-text", "block-text",
    "closure-gen", "safe-core-gen", "eventual-core-gen", "identify-then-generate",
)


def _build_learner(name: str, cls: HypothesisClass, args) -> Learner:
    if name == "absence-count":
        return AbsenceCountIdentifier(cls.family)
    if name == "eligibility":
        return EligibilityIdentifier(cls, compute_telltales(cls))
    if name == "gold-informant":
        return GoldInformantIdentifier(cls)
    if name == "synthetic-text":
        return TextFromContrastiveIdentifier(
            EligibilityIdentifier(cls, compute_telltales(cls))
        )
    if name == "block-text":
        return BlockTextIdentifier(cls)
    if name == "closure-gen":
        report = closure_dimension(cls)
        if report.outcome != "exact":
            raise ValueError(f"closure generator needs an exact dimension, got {report}")
        return ClosureGenerator(cls, report.dimension)
    if name == "safe-core-gen":
        return SafeCoreGenerator(cls)
    if name == "eventual-core-gen":
        base = cls.family.eventual_core(cls)
        if base is None:
            raise ValueError("no obvious eventual core: global intersection is finite")
        return EventualCoreGenerator(lambda m: base.nth_member(m - 1))
    if name == "identify-then-generate":
        return IdentifyThenGenerate(_build_learner(cls.family.identifier, cls, args))
    raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_CHOICES}")


def _build_run_stream(args, cls, target, kind: str, spec: str):
    """The stream `spec` names (shared | sampled[:seed] | canonical) of `kind`,
    then the --corrupt injections."""
    if spec == "shared":
        stream = shared_presentation_family(list(cls.members))
        if stream is None:
            raise ValueError("class admits no shared presentation")
    elif spec.startswith("sampled"):
        _, _, seed = spec.partition(":")
        seed_val = int(seed) if seed else args.seed
        _check_horizon(args)
        if kind == CONTRASTIVE:
            stream = sampled_contrastive(target, seed_val, args.horizon)
        elif kind == TEXT:
            stream = sampled_text(target, seed_val, args.horizon)
        else:
            raise ValueError(f"no sampled {kind} stream; use the canonical one")
    elif spec == "canonical":
        if kind == CONTRASTIVE:
            stream = canonical_contrastive(target)
        elif kind == TEXT:
            stream = canonical_text(target)
        else:
            stream = canonical_informant(target)
    else:
        raise ValueError(f"unknown stream spec {spec!r}")
    if args.corrupt:
        stream = corrupt(stream, [parse_injection(item, kind) for item in args.corrupt])
    return stream


def _check_horizon(args) -> None:
    """Sampled streams and the defect check list every natural below the horizon."""
    if args.horizon > MAX_MODULUS:
        raise ValueError(f"--horizon {args.horizon} is above MAX_MODULUS = {MAX_MODULUS}; "
                         f"sampled streams list every natural below it")


def _record_payload(record: RunRecord) -> dict:
    return {
        "learner": record.learner,
        "stream": record.stream,
        "steps": record.steps,
        "stability_window": record.stability_window,
        "target": record.target,
        "converged_at": record.converged_at,
        "final_output": record.final_output(),
        "outputs": list(record.outputs),
        "flags": [list(f) for f in record.flags],
    }


def _cmd_run(args, role: str) -> int:
    cls = _load(args)
    learner = _build_learner(args.learner, cls, args)
    if learner.role != role:
        a = {"identifier": "an identifier", "generator": "a generator"}
        raise ValueError(f"{args.learner} is {a[learner.role]}, not {a[role]}")
    target = _resolve_target(args, cls)
    stream = _build_run_stream(args, cls, target, learner.kind, args.stream)
    record = run(
        learner, stream, steps=args.steps, stability_window=args.window,
        target=target, collect_trace=args.trace,
    )
    if args.trace:
        report = Report(f"{role} run", (), {"record": _record_payload(record)})
        sys.stdout.write(emit_report(report, "csv-trace", trace_rows=record.trace_rows))
        return 0
    return _emit(args, f"{role} run", _record_payload(record))


def cmd_identify(args) -> int:
    return _cmd_run(args, "identifier")


def cmd_generate(args) -> int:
    return _cmd_run(args, "generator")


def cmd_defect(args) -> int:
    if args.verify:
        _check_horizon(args)
    cls = _load(args)
    h, g = _pair(args, cls)
    report = defect(h, g)
    payload = {
        "first": h.id,
        "second": g.id,
        "defect_set": report.defect_set.literal(),
        "kappa": str(report.kappa),
        "min_violation_stream": (
            report.min_violation_stream.provenance if report.min_violation_stream else None
        ),
    }
    checks: tuple = ()
    if args.verify:
        trials = [canonical_contrastive(h), sampled_contrastive(h, args.seed, args.horizon)]
        ok = verify_forced_violations(report, h, g, trials, horizon=args.horizon)
        checks = (Check("forced-violation bound", True, ok),)
    code = _emit(args, f"defect({h.id}->{g.id})", payload, checks)
    if checks and not all(c.ok for c in checks):
        return 1
    return code


def cmd_corrupt_id(args) -> int:
    learner = AbsenceCountIdentifier(_load(args).family)  # the co-singleton family only
    target = learner.family.member(args.target)
    avoid = {args.target}
    injections = []
    value = 0
    for i in range(args.budget):
        lo = value
        while lo in avoid:
            lo += 1
        hi = lo + 1
        while hi in avoid:
            hi += 1
        injections.append((5 + 6 * i, Pair.of(lo, hi)))
        value += 2
    stream = corrupt(canonical_contrastive(target), injections)
    record = run(learner, stream, steps=args.steps, stability_window=args.window, target=target)
    payload = _record_payload(record)
    payload["injections"] = [f"{t}:{item}" for t, item in injections]
    return _emit(args, "corrupted identification", payload)


def cmd_classify(args) -> int:
    cls = _load(args)
    bounds = Bounds(horizon=args.horizon)
    verdict = classify(cls, bounds)
    if args.format == "json":
        sys.stdout.write(json.dumps(verdict.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"class: {verdict.class_description}"]
        for name in ("ctr_id", "txt_id", "ctr_gen", "txt_gen"):
            v = getattr(verdict, name)
            mech = f" ({v.mechanism})" if v.mechanism else ""
            lines.append(f"  {name}: {v.status}{mech}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.example)
    sys.stdout.write(emit_report(report, args.format))
    if not report.ok:
        for line in report.diff_lines():
            print(f"diff: {line}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(echo=print)
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
