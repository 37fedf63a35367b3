"""Command-line front end over EAF files.

Subcommands: ``verify``, ``analyze``, ``decompose``, ``states``, ``smear``,
``gen``, ``props``.  Output is deterministic line-oriented text (or JSON
with ``--json``); every rational prints reduced as ``p/q``.

Exit codes are stable: 0 when the command succeeds (file valid, state
found, certificate produced on request, laws hold), 1 when the checked
property fails (axioms violated, no state in ``--find`` mode, a law
fails, smearing impossible), 2 on usage errors or unreadable input.
``verify`` is the one command that treats an axiom-violating file as its
subject matter rather than as bad input, so it reports and exits 1; the
other commands require a valid algebra and exit 2 when given anything
else.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import (
    FIXTURE_FILES,
    boolean_algebra,
    direct_product,
    horizontal_sum,
    mv_chain,
    bundled_fixture,
)
from .core import EffectAlgebra, build_effect_algebra
from .decompose import atomic_decomposition, basic_decomposition
from .eaf import parse_eaf, parse_state, serialize_eaf, serialize_state
from .errors import (
    AxiomViolation,
    DuplicateSum,
    EffectAlgebraError,
    InvalidState,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    UnknownName,
)
from .laws import run_law_suite
from .linear import InfeasibilityCertificate
from .order import classify, derive_order
from .states import State, find_state, smear_state, state_row_labels
from .structure import extract_sharp, structure_profile


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise _InputError(f"{path}: not an ASCII text file")


def _load_algebra(path: str) -> EffectAlgebra:
    text = _read_text(path)
    try:
        return build_effect_algebra(parse_eaf(text))
    except (ParseError, AxiomViolation, DuplicateSum, UnknownName) as exc:
        raise _InputError(f"{path}: {exc}")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    try:
        doc = parse_eaf(text)
    except ParseError as exc:
        raise _InputError(f"{args.file}: {exc}")
    try:
        build_effect_algebra(doc)
    except (AxiomViolation, DuplicateSum, UnknownName) as exc:
        if isinstance(exc, AxiomViolation):
            violations = [
                {
                    "axiom": v.axiom,
                    "witnesses": [doc.names[w] for w in v.witnesses],
                    "detail": v.detail,
                }
                for v in exc.report.violations
            ]
            totals = dict(exc.report.totals)
        else:
            violations = [
                {"axiom": "closure", "witnesses": [], "detail": str(exc)}
            ]
            totals = {"closure": 1}
        if args.json:
            _emit_json(
                {"valid": False, "violations": violations, "totals": totals}
            )
        else:
            lines = ["invalid"]
            for v in violations:
                names = ", ".join(v["witnesses"])
                lines.append(f"violation {v['axiom']} [{names}] {v['detail']}")
            for axiom, total in totals.items():
                listed = sum(1 for v in violations if v["axiom"] == axiom)
                if total > listed:
                    lines.append(f"more {axiom} {total - listed}")
            _emit("\n".join(lines) + "\n")
        return 1
    if args.json:
        _emit_json({"valid": True, "violations": []})
    else:
        _emit("valid\n")
    return 0


def _nonlattice_witness(E: EffectAlgebra) -> Optional[tuple[int, int, str]]:
    os = derive_order(E)
    for x in range(E.size):
        for y in range(x + 1, E.size):
            if os.meet[x][y] is None:
                return (x, y, "meet")
            if os.join[x][y] is None:
                return (x, y, "join")
    return None


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_analyze(args: argparse.Namespace) -> int:
    E = _load_algebra(args.file)
    cls = classify(E)
    prof = structure_profile(E)
    witness = None if cls.is_lattice else _nonlattice_witness(E)

    def in_order(xs) -> list[str]:
        return [E.names[x] for x in sorted(xs)]

    if args.json:
        payload = {
            "elements": E.size,
            "names": list(E.names),
            "zero": E.names[E.zero],
            "one": E.names[E.one],
            "lattice": cls.is_lattice,
            "mv": cls.is_mv,
            "orthomodular_image": cls.is_orthomodular_image,
            "atomic": prof.atomic,
            "archimedean": prof.archimedean,
            "sharply_dominating": prof.sharply_dominating,
            "s_dominating": prof.s_dominating,
            "atoms": in_order(prof.atoms),
            "sharp": in_order(prof.sharp),
            "meager": in_order(prof.meager),
            "ord": {E.names[x]: prof.isotropic[x] for x in range(E.size)},
            "non_lattice_witness": (
                None
                if witness is None
                else {
                    "x": E.names[witness[0]],
                    "y": E.names[witness[1]],
                    "missing": witness[2],
                }
            ),
        }
        _emit_json(payload)
        return 0
    lines = [
        f"elements {E.size}",
        f"zero {E.names[E.zero]}",
        f"one {E.names[E.one]}",
        f"lattice {_yn(cls.is_lattice)}",
    ]
    if witness is not None:
        x, y, kind = witness
        lines.append(f"non-lattice-witness {E.names[x]} {E.names[y]} {kind}")
    lines += [
        f"mv {_yn(cls.is_mv)}",
        f"orthomodular-image {_yn(cls.is_orthomodular_image)}",
        f"atomic {_yn(prof.atomic)}",
        f"archimedean {_yn(prof.archimedean)}",
        f"sharply-dominating {_yn(prof.sharply_dominating)}",
        f"s-dominating {_yn(prof.s_dominating)}",
        "atoms " + " ".join(in_order(prof.atoms)),
        "sharp " + " ".join(in_order(prof.sharp)),
        "meager " + " ".join(in_order(prof.meager)),
    ]
    for x in range(E.size):
        lines.append(f"ord {E.names[x]} {prof.isotropic[x]}")
    _emit("\n".join(lines) + "\n")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    E = _load_algebra(args.file)
    try:
        x = E.index(args.element)
    except UnknownName as exc:
        raise _InputError(f"{args.file}: {exc}")
    try:
        basic = basic_decomposition(E, x)
    except PreconditionFailed:
        basic = None
    if basic is not None:
        if args.json:
            _emit_json(
                {
                    "element": args.element,
                    "kind": "basic",
                    "sharp": E.names[basic.sharp_part],
                    "parts": [
                        {"atom": E.names[p.atom], "multiplicity": p.multiplicity}
                        for p in basic.meager_parts
                    ],
                }
            )
            return 0
        lines = [
            f"element {args.element}",
            "kind basic",
            f"sharp {E.names[basic.sharp_part]}",
        ]
        for p in basic.meager_parts:
            lines.append(f"part {E.names[p.atom]} {p.multiplicity}")
        _emit("\n".join(lines) + "\n")
        return 0
    atomic = atomic_decomposition(E, x)
    if args.json:
        _emit_json(
            {
                "element": args.element,
                "kind": "atomic",
                "unique": atomic.unique_guaranteed,
                "parts": [
                    {"atom": E.names[p.atom], "multiplicity": p.multiplicity}
                    for p in atomic.parts
                ],
            }
        )
        return 0
    lines = [
        f"element {args.element}",
        "kind atomic",
        f"unique {_yn(atomic.unique_guaranteed)}",
    ]
    for p in atomic.parts:
        lines.append(f"part {E.names[p.atom]} {p.multiplicity}")
    _emit("\n".join(lines) + "\n")
    return 0


def _certificate_payload(
    E: EffectAlgebra, cert: InfeasibilityCertificate
) -> dict:
    labels = state_row_labels(E)
    rows = [
        {"index": i, "label": labels[i], "multiplier": _frac(y)}
        for i, y in enumerate(cert.row_multipliers)
        if y != 0
    ]
    upper = {
        E.names[j]: _frac(w)
        for j, w in enumerate(cert.upper_multipliers)
        if w != 0
    }
    lower = {
        E.names[j]: _frac(z)
        for j, z in enumerate(cert.lower_multipliers)
        if z != 0
    }
    return {
        "rows": rows,
        "upper": upper,
        "lower": lower,
        "gap": _frac(cert.gap),
    }


def _print_certificate(E: EffectAlgebra, cert: InfeasibilityCertificate) -> None:
    payload = _certificate_payload(E, cert)
    lines = ["certificate"]
    for row in payload["rows"]:
        lines.append(f"row {row['index']} {row['multiplier']} {row['label']}")
    for name in sorted(payload["upper"], key=E.index):
        lines.append(f"upper {name} {payload['upper'][name]}")
    for name in sorted(payload["lower"], key=E.index):
        lines.append(f"lower {name} {payload['lower'][name]}")
    lines.append(f"gap {payload['gap']}")
    _emit("\n".join(lines) + "\n")


def _cmd_states(args: argparse.Namespace) -> int:
    E = _load_algebra(args.file)
    outcome = find_state(E)
    found = isinstance(outcome, State)
    if args.json:
        if found:
            payload = {
                "values": {
                    E.names[x]: _frac(v) for x, v in enumerate(outcome.values)
                }
            }
        else:
            payload = {"certificate": _certificate_payload(E, outcome)}
        _emit_json(payload)
    elif found:
        _emit(serialize_state(outcome))
    else:
        _print_certificate(E, outcome)
    if args.certify_none:
        return 0 if not found else 1
    return 0 if found else 1


def _cmd_smear(args: argparse.Namespace) -> int:
    E = _load_algebra(args.file)
    sub = extract_sharp(E)
    text = _read_text(args.state)
    try:
        values = parse_state(text, sub.algebra)
    except (ParseError, EffectAlgebraError) as exc:
        raise _InputError(f"{args.state}: {exc}")
    omega = State(
        sub.algebra, tuple(values[i] for i in range(sub.algebra.size))
    )
    try:
        smeared = smear_state(E, omega)
    except (PreconditionFailed, InvalidState) as exc:
        if args.json:
            _emit_json({"error": str(exc)})
        else:
            _emit(f"cannot smear: {exc}\n")
        return 1
    if args.json:
        _emit_json(
            {
                "values": {
                    E.names[x]: _frac(v) for x, v in enumerate(smeared.values)
                }
            }
        )
    else:
        _emit(serialize_state(smeared))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    params = args.params
    try:
        if kind == "mv-chain":
            if len(params) != 1:
                raise _UsageError("gen mv-chain takes exactly one number")
            E = mv_chain(_int_param(params[0]))
        elif kind == "boolean":
            if len(params) != 1:
                raise _UsageError("gen boolean takes exactly one number")
            E = boolean_algebra(_int_param(params[0]))
        elif kind == "hsum":
            if len(params) < 2:
                raise _UsageError("gen hsum takes two or more eaf files")
            E = horizontal_sum([_load_algebra(p) for p in params])
        elif kind == "product":
            if len(params) != 2:
                raise _UsageError("gen product takes exactly two eaf files")
            E = direct_product(_load_algebra(params[0]), _load_algebra(params[1]))
        elif kind == "fixture":
            if len(params) != 1:
                raise _UsageError("gen fixture takes exactly one fixture name")
            try:
                E = bundled_fixture(params[0])
            except KeyError:
                known = ", ".join(sorted(FIXTURE_FILES))
                raise _UsageError(
                    f"unknown fixture {params[0]!r} (known: {known})"
                )
        else:
            raise _UsageError(f"unknown generator kind {kind!r}")
    except (SizeLimit, EffectAlgebraError) as exc:
        raise _InputError(str(exc))
    text = serialize_eaf(E)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError(f"{args.output}: {exc.strerror or exc}")
    else:
        _emit(text)
    return 0


def _int_param(token: str) -> int:
    # int() alone would also take "1_0", "+10" and non-ASCII digits
    if not re.fullmatch(r"[0-9]+", token):
        raise _UsageError(f"expected a number, got {token!r}")
    return int(token)


def _cmd_props(args: argparse.Namespace) -> int:
    E = _load_algebra(args.file)
    selection = None
    if args.laws is not None:
        selection = [law.strip() for law in args.laws.split(",") if law.strip()]
        if not selection:
            raise _UsageError("--laws needs at least one law id")
    try:
        report = run_law_suite(
            E, selection, counterexample_mode=args.counterexample_mode
        )
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None
    if args.json:
        _emit_json(
            {
                "results": [
                    {
                        "law": r.law,
                        "status": r.status,
                        "witnesses": [
                            [E.names[x] for x in w] for w in r.witnesses
                        ],
                        "reason": r.reason,
                    }
                    for r in report.results
                ]
            }
        )
    else:
        lines = []
        for r in report.results:
            line = f"{r.law} {r.status}"
            if r.status == "fail" and r.witnesses:
                groups = ";".join(
                    ",".join(E.names[x] for x in w) for w in r.witnesses
                )
                line += f" {groups}"
            elif r.status == "skipped" and r.reason:
                line += f" {r.reason}"
            lines.append(line)
        _emit("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="effalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate an EAF file against the axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("analyze", help="print structural invariants")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decompose", help="decompose one element by name")
    p.add_argument("file")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("states", help="find a state or certify none exist")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--find", action="store_true", default=True)
    mode.add_argument("--certify-none", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_states)

    p = sub.add_parser("smear", help="extend a sharp-part state to the algebra")
    p.add_argument("file")
    p.add_argument("--state", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_smear)

    p = sub.add_parser("gen", help="generate an EAF document")
    p.add_argument(
        "kind", choices=["mv-chain", "boolean", "hsum", "product", "fixture"]
    )
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("props", help="run the law suite")
    p.add_argument("file")
    p.add_argument("--counterexample-mode", action="store_true")
    p.add_argument("--laws")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_props)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
