"""Command-line pipeline tying the computational modules together.

Subcommands: enumerate (building classification), torsion (differential
and torsion order of a count table), cobracket (loop operations and the
sporadic count), index (index calculus evaluations), rigidity
(branched-cover verdicts).  Documents are canonical JSON with "p/q"
rationals; identical inputs give byte-identical outputs.  Exit codes:
0 success, 2 input validation, 3 mathematical consistency failure,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .algebra import (AlgebraElement, CurveCountTable, Generator,
                      GeneratorSet, Truncation, check_square_zero,
                      torsion_order)
from .cobracket import (ClassRegistry, StringTopology, cobracket_coefficients,
                        sporadic_count_from_coefficients)
from .covers import (BranchProfile, double_point_budget,
                     enumerate_branch_profiles, super_rigidity_verdict,
                     total_branching)
from .enumerator import classification_document
from .errors import ConsistencyError, InternalError, ValidationError
from .indexcalc import (PunctureProfile, automatic_transversality,
                        gluing_base_dim, kernel_bound, normal_index,
                        obstruction_rank, regularity_transfer)
from .jsonio import (SCHEMA_VERSION, canonical_dumps, digest, read_document,
                     str_to_fraction, write_document)
from .model import ModelConfig, paper_model
from .words import SurfaceGroup, format_letters, parse_letters

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3
EXIT_INTERNAL = 4


def _rational(name: str, value) -> Fraction:
    """Parse a "p/q" rational input, naming ``name`` when it is bad."""
    if not isinstance(value, bool):
        try:
            return str_to_fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError("%s needs a rational, got %r" % (name, value))


def _integer(name: str, value) -> int:
    """Parse an integer input, naming ``name`` when it is bad."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError("%s needs an integer, got %r" % (name, value))


def _comma_ints(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "comma-separated integers expected, got %r" % (text,))


def _load_model(path: Optional[str]) -> ModelConfig:
    if path is None:
        return paper_model()
    raw = read_document(path)
    if not isinstance(raw, dict):
        raise ValidationError("model configuration must be an object")
    # a field's default fixes its type; bool is an int subclass in
    # Python, so int and bool fields compare types exactly
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    kwargs = {}
    for key, value in raw.items():
        kind = kinds.get(key)
        if kind is Fraction:
            value = _rational("model field %s" % key, value)
        elif kind in (int, bool) and type(value) is not kind:
            raise ValidationError("model field %s needs %s, got %r"
                                  % (key, kind.__name__, value))
        kwargs[key] = value
    try:
        return ModelConfig(**kwargs)
    except TypeError as exc:
        raise ValidationError("bad model configuration field: %s" % exc)


def _emit(doc: Dict, out_path: Optional[str]):
    text = canonical_dumps(doc)
    if out_path:
        write_document(out_path, doc)
    sys.stdout.write(text)


def _args_doc(args) -> Dict:
    skip = {"func", "out", "timing", "command"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _manifest(command: str, source, extra: Dict) -> Dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": "sft-lab %s" % __version__,
        "command": command,
        "input_digest": digest(source),
    }
    doc.update(extra)
    return doc


# -- enumerate ---------------------------------------------------------------


def cmd_enumerate(args) -> int:
    cfg = _load_model(args.config)
    doc = classification_document(cfg, args.genus, args.ends,
                                  convention=args.convention)
    model = asdict(cfg)
    result = _manifest("enumerate", model, {
        "model_conventions": model,
        "classification": doc,
    })
    _emit(result, args.out)
    return EXIT_OK


# -- torsion -----------------------------------------------------------------


def _objects(raw: Dict, key: str, required: Sequence[str]) -> List[Dict]:
    """The list ``raw[key]`` of objects, each with the ``required`` keys."""
    items = raw[key]
    if not isinstance(items, list) or not all(isinstance(x, dict)
                                              for x in items):
        raise ValidationError("%r must be a list of objects" % (key,))
    for item in items:
        for name in required:
            if name not in item:
                raise ValidationError("missing field %r in %r"
                                      % (name, item))
    return items


def _strings(name: str, value) -> Tuple[str, ...]:
    """Parse a list of strings input, naming ``name`` when it is bad."""
    if not isinstance(value, list) or not all(isinstance(x, str)
                                              for x in value):
        raise ValidationError("%s needs a list of strings, got %r"
                              % (name, value))
    return tuple(value)


def load_count_table(raw: Dict) -> CurveCountTable:
    """Build the count table of a ``sft-lab torsion`` input document.

    Each entry of ``generators`` is one algebra generator:

    * ``id`` (required): the name count rows refer to;
    * ``cz`` (integer, default 1): its Conley-Zehnder index, whose
      parity grades the generator;
    * ``parity`` (0 or 1): overrides the parity of ``cz``;
    * ``cover`` (integer >= 1, default 1): its covering multiplicity;
    * ``action`` (positive rational "p/q", default "1");
    * ``good`` (default true): bad orbits do not generate, so false is
      rejected.

    Each entry of ``counts`` has ``genus``, ``positive`` and optional
    ``negative`` id lists and a rational ``value``.
    """
    if not isinstance(raw, dict) or "generators" not in raw \
            or "counts" not in raw:
        raise ValidationError(
            "count table documents need 'generators' and 'counts'")
    gens = []
    for spec in _objects(raw, "generators", ("id",)):
        if spec.get("good", True) is not True:
            raise ValidationError("only good orbits generate; field 'good' "
                                  "of %s must be true" % (spec["id"],))
        cz = _integer("field 'cz'", spec.get("cz", 1))
        gens.append(Generator(
            str(spec["id"]),
            _integer("field 'parity'", spec.get("parity", cz % 2)),
            _integer("field 'cover'", spec.get("cover", 1)),
            _rational("field 'action'", spec.get("action", "1"))))
    entries = {}
    for row in _objects(raw, "counts", ("genus", "positive", "value")):
        key = (_integer("field 'genus'", row["genus"]),
               _strings("field 'positive'", row["positive"]),
               _strings("field 'negative'", row.get("negative", [])))
        value = _rational("field 'value'", row["value"])
        entries[key] = entries.get(key, Fraction(0)) + value
    return CurveCountTable(GeneratorSet(gens), entries)


def cmd_torsion(args) -> int:
    raw = read_document(args.counts)
    counts = load_count_table(raw)
    trunc = Truncation(hbar_max=args.trunc_hbar, length_max=args.trunc_len,
                       action_cap=_rational("--action-cap",
                                            args.action_cap))
    square_ok = None        # null in the document: no check ran
    if not args.skip_square_check:
        square_ok, witness = check_square_zero(counts, trunc)
        if not square_ok:
            doc = _manifest("torsion", raw, {
                "square_zero": False,
                "witness": _monomial_doc(witness),
            })
            _emit(doc, args.out)
            return EXIT_CONSISTENCY
    result = torsion_order(counts, trunc,
                           require_square_zero=False)
    payload = {
        "square_zero": square_ok,
        "parity_odd": counts.is_parity_odd(),
        "truncation": {"hbar_max": trunc.hbar_max,
                       "length_max": trunc.length_max,
                       "action_cap": trunc.action_cap},
        "torsion_order": result.label,
    }
    if result.order is not None:
        payload["certificate"] = _element_doc(result.certificate)
        payload["statement"] = "AT <= %d, certificate attached" % result.order
    else:
        payload["statement"] = "unknown"
    doc = _manifest("torsion", raw, payload)
    _emit(doc, args.out)
    return EXIT_OK


def _monomial_doc(m) -> Dict:
    return {"hbar": m[0], "word": [{"generator": g, "power": e}
                                   for g, e in m[1]]}


def _element_doc(x: AlgebraElement) -> List[Dict]:
    out = []
    for m in sorted(x.terms):
        out.append(dict(_monomial_doc(m), coefficient=x.terms[m]))
    return out


# -- cobracket ---------------------------------------------------------------


def _load_registry(group: SurfaceGroup, path: Optional[str]
                   ) -> ClassRegistry:
    registry = ClassRegistry(group)
    if path and os.path.exists(path):
        raw = read_document(path)
        if not isinstance(raw, dict):
            raise ValidationError("registry %s must be an object" % (path,))
        for spelled in _strings("registry field 'classes'",
                                raw.get("classes", [])):
            registry.label(parse_letters(spelled, group.genus))
    return registry


def _save_registry(registry: ClassRegistry, path: Optional[str]):
    if not path:
        return
    known = registry.known()
    doc = {"schema": SCHEMA_VERSION,
           "classes": [format_letters(known[k]) for k in sorted(known)]}
    write_document(path, doc)


def cmd_cobracket(args) -> int:
    group = SurfaceGroup(args.genus)
    topology = StringTopology(group)
    word = parse_letters(args.word, args.genus)
    cls = group.canonical_class(word)
    registry = _load_registry(group, args.registry)
    coeffs = cobracket_coefficients(topology, registry, cls)
    direct = topology.sporadic_count_direct(cls)
    via_coeffs = sporadic_count_from_coefficients(topology, registry, cls)
    if direct != via_coeffs:
        raise InternalError("sporadic count paths disagree")
    tensor = [{"first": format_letters(x), "second": format_letters(y),
               "coefficient": v}
              for (x, y), v in sorted(topology.cobracket(cls).terms.items())]
    payload = {
        "class": format_letters(cls),
        "self_intersections": topology.self_intersection_number(cls),
        "cobracket": tensor,
        "coefficients": [{"j": j, "k": k, "value": v}
                         for (j, k), v in sorted(coeffs.items())],
        "sporadic_count": direct,
        "power_convention": "a proper power v^m is resolved on its full "
                            "spelling and meets m^2 times the crossings "
                            "of its root",
    }
    doc = _manifest("cobracket", {"genus": args.genus, "word": args.word},
                    payload)
    _save_registry(registry, args.registry)
    _emit(doc, args.out)
    return EXIT_OK


# -- index -------------------------------------------------------------------


def cmd_index(args) -> int:
    payload: Dict[str, object] = {}
    if args.kernel_bound:
        c, gamma = args.kernel_bound
        payload["kernel_bound"] = {"c": c, "gamma_even": gamma,
                                   "value": kernel_bound(c, gamma)}
    if args.normal_index:
        vals = args.normal_index
        profile = PunctureProfile(genus=vals[0], pos=tuple(vals[1:4]),
                                  neg=tuple(vals[4:7]))
        payload["normal_index"] = {"genus": profile.genus,
                                   "positive": list(profile.pos),
                                   "negative": list(profile.neg),
                                   "value": normal_index(profile)}
        payload["automatic_transversality"] = automatic_transversality(
            profile, normal_index(profile))
        payload["regularity_transfer"] = regularity_transfer(profile, True)
    if args.obstruction_rank:
        leaf_rank, ind_n, dim_ker = args.obstruction_rank
        payload["obstruction_rank"] = obstruction_rank(leaf_rank, ind_n,
                                                       dim_ker)
    if args.gluing_dim:
        virt, rank = args.gluing_dim
        payload["gluing_base_dim"] = gluing_base_dim(virt, rank)
    if not payload:
        raise ValidationError("no index operation requested")
    doc = _manifest("index", _args_doc(args), payload)
    _emit(doc, args.out)
    return EXIT_OK


# -- rigidity ----------------------------------------------------------------


def _profile_doc(bp: BranchProfile) -> Dict:
    verdict = super_rigidity_verdict(bp)
    return {
        "degree": bp.degree,
        "interior_vanishing": bp.interior_vanishing,
        "multiplicities": list(bp.puncture_multiplicities),
        "base_punctures": bp.base_punctures,
        "base_euler": bp.base_euler,
        "total_branching": total_branching(bp),
        "budget": double_point_budget(bp),
        "verdict": verdict.verdict,
        "note": verdict.note,
    }


def cmd_rigidity(args) -> int:
    if args.sweep:
        rows = []
        for degree in range(1, args.max_degree + 1):
            for bp in enumerate_branch_profiles(
                    degree, args.base_euler, args.base_punctures,
                    args.max_interior):
                branching = total_branching(bp)
                if branching > args.max_branching:
                    continue
                rows.append(_profile_doc(bp))
        payload = {"sweep": rows,
                   "forced": sum(1 for r in rows
                                 if r["verdict"] == "injective_forced")}
    else:
        if args.multiplicities is None:
            raise ValidationError("single profiles need --multiplicities")
        mults = tuple(args.multiplicities)
        bp = BranchProfile(degree=args.degree,
                           interior_vanishing=args.interior,
                           puncture_multiplicities=mults,
                           base_punctures=args.base_punctures,
                           base_euler=args.base_euler)
        payload = {"profile": _profile_doc(bp)}
    doc = _manifest("rigidity", _args_doc(args), payload)
    _emit(doc, args.out)
    return EXIT_OK


# -- driver ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sft-lab",
        description="workbench for building classification, torsion, loop "
                    "operations, index calculus and cover arithmetic")
    parser.add_argument("--timing", action="store_true",
                        help="report wall time on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="classify building configurations")
    p.add_argument("--config", help="model configuration JSON")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--ends", type=int, required=True)
    p.add_argument("--convention", default="twins-identified",
                   choices=["twins-identified", "twins-distinct"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("torsion", help="torsion order of a count table")
    p.add_argument("--counts", required=True, help="count table JSON")
    p.add_argument("--trunc-hbar", type=int, default=3)
    p.add_argument("--trunc-len", type=int, default=4)
    p.add_argument("--action-cap", default="100")
    p.add_argument("--skip-square-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("cobracket", help="loop operations on a class")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--word", required=True)
    p.add_argument("--registry", help="label registry JSON, read and updated")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cobracket)

    p = sub.add_parser("index", help="index calculus evaluations")
    p.add_argument("--kernel-bound", nargs=2, type=int, metavar=("C", "G"))
    p.add_argument("--normal-index", nargs=7, type=int,
                   metavar=("GENUS", "P0", "P1", "P2", "N0", "N1", "N2"))
    p.add_argument("--obstruction-rank", nargs=3, type=int,
                   metavar=("LEAF_RANK", "NORMAL_INDEX", "DIM_KER"))
    p.add_argument("--gluing-dim", nargs=2, type=int,
                   metavar=("VIRT", "RANK"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("rigidity", help="branched cover verdicts")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--max-branching", type=int, default=6)
    p.add_argument("--max-interior", type=int, default=6)
    p.add_argument("--interior", type=int, default=0)
    p.add_argument("--multiplicities", type=_comma_ints,
                   help="comma-separated puncture multiplicities")
    p.add_argument("--base-punctures", type=int, default=2)
    p.add_argument("--base-euler", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rigidity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return EXIT_VALIDATION
    except InternalError as exc:
        sys.stderr.write("internal invariant breach: %s\n" % exc)
        return EXIT_INTERNAL
    except ConsistencyError as exc:
        sys.stderr.write("consistency failure: %s\n" % exc)
        return EXIT_CONSISTENCY
    if args.timing:
        sys.stderr.write("elapsed: %.3fs\n" % (time.monotonic() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())
