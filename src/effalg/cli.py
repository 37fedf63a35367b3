"""Command-line front end over EAF files.

Subcommands: ``verify``, ``analyze``, ``decompose``, ``states``, ``smear``,
``gen``, ``props``.  Output is deterministic line-oriented text; every
rational prints reduced as ``p/q``.  Every command but ``gen`` reads an
EAF file, its first argument, and takes ``--json``; each is declared
once, ``--json`` after each command's own options, so that its help
lists it last.  ``--json`` prints the same facts as one JSON object,
with the same exit code.  Its top-level keys:

- ``verify``: ``valid``, ``violations`` and ``totals`` (``{}`` when valid);
  a pair declared with two results is an ``Ei`` violation and a sum
  contradicting a zero row a ``closure`` one, each pair listed once;
- ``analyze``: ``elements``, ``names``, ``zero``, ``one``, the flags
  ``lattice``, ``mv``, ``orthomodular_image``, ``atomic``,
  ``archimedean``, ``sharply_dominating`` and ``s_dominating``, then
  ``atoms``, ``sharp``, ``meager``, ``ord`` and ``non_lattice_witness``;
- ``decompose``: ``element``, ``kind``, then ``sharp`` (basic) or
  ``unique`` (atomic), and ``parts``;
- ``states``: ``values`` or ``certificate``;
- ``smear``: ``values`` or ``error``;
- ``props``: ``results``.

Each command returns its exit code, its JSON payload and its text lines,
the lines built from the payload's values; ``main`` prints one of the two.
Only ``core``, ``eaf`` and ``errors`` load with this module; each command
imports the rest of what it runs when it runs, so ``verify`` never loads
the law suite or the solver.

Exit codes are stable: 0 when the command succeeds (file valid, state
found, certificate produced on request, laws hold), 1 when the checked
property fails (axioms violated, no state in ``--find`` mode, a law
fails, smearing impossible), 2 on usage errors or unreadable input, both
raised as one refusal that ``main`` prints as ``error: REASON``.
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
from operator import itemgetter
from typing import Optional, Sequence

from .core import _UNDEF, EffectAlgebra, build_effect_algebra
from .eaf import _MAX_DIGITS, parse_eaf, parse_state, serialize_eaf, serialize_state
from .errors import (
    AxiomViolation,
    EffectAlgebraError,
    InvalidState,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    UnknownName,
)


class _Refused(Exception):
    """A usage error or unreadable input: ``main`` prints it and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _Refused(message)


# what each command hands to main: exit code, JSON payload, text lines
_Result = tuple[int, Optional[dict], list[str]]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise _Refused(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise _Refused(f"{path}: not an ASCII text file")


def _load_algebra(path: str) -> EffectAlgebra:
    text = _read_text(path)
    try:
        return build_effect_algebra(parse_eaf(text))
    except (ParseError, SizeLimit, AxiomViolation) as exc:
        raise _Refused(f"{path}: {exc}")


def _cmd_verify(args: argparse.Namespace) -> _Result:
    text = _read_text(args.file)
    try:
        doc = parse_eaf(text)
    except (ParseError, SizeLimit) as exc:
        raise _Refused(f"{args.file}: {exc}")
    try:
        build_effect_algebra(doc)
    except AxiomViolation as exc:
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
        return 0, {"valid": True, "violations": [], "totals": {}}, ["valid"]
    lines = ["invalid"]
    for v in violations:
        names = ", ".join(v["witnesses"])
        lines.append(f"violation {v['axiom']} [{names}] {v['detail']}")
    for axiom, total in totals.items():
        listed = sum(1 for v in violations if v["axiom"] == axiom)
        if total > listed:
            lines.append(f"more {axiom} {total - listed}")
    payload = {"valid": False, "violations": violations, "totals": totals}
    return 1, payload, lines


def _nonlattice_witness(E: EffectAlgebra) -> Optional[dict]:
    """The first pair x < y missing a meet, else a join; ``None`` on a
    lattice.

    For x ascending, each of x's meet and join rows is searched in C from
    index x + 1; the smaller y wins, and the meet at equal y.
    """
    from .order import derive_order

    os = derive_order(E)
    bounds = (("meet", os.meet_rows), ("join", os.join_rows))
    for x in range(E.size):
        hits = [
            (y, bound)
            for bound, rows in bounds
            if (y := rows[x].find(_UNDEF, x + 1)) != -1
        ]
        if hits:
            # min keeps the first of equal keys, the meet's
            y, missing = min(hits, key=itemgetter(0))
            return {"x": E.names[x], "y": E.names[y], "missing": missing}
    return None


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_analyze(args: argparse.Namespace) -> _Result:
    from .order import classify
    from .structure import structure_profile

    E = _load_algebra(args.file)
    cls = classify(E)
    prof = structure_profile(E)
    witness = _nonlattice_witness(E)
    # printed in this order, each key with "_" turned into "-"
    flags = {
        "lattice": cls.is_lattice,
        "mv": cls.is_mv,
        "orthomodular_image": cls.is_orthomodular_image,
        "atomic": prof.atomic,
        "archimedean": prof.archimedean,
        "sharply_dominating": prof.sharply_dominating,
        "s_dominating": prof.s_dominating,
    }
    sets = {"atoms": prof.atoms, "sharp": prof.sharp, "meager": prof.meager}
    payload = {
        "elements": E.size,
        "names": list(E.names),
        "zero": E.names[E.zero],
        "one": E.names[E.one],
        **flags,
        **{key: [E.names[x] for x in sorted(xs)] for key, xs in sets.items()},
        "ord": {E.names[x]: prof.isotropic[x] for x in range(E.size)},
        "non_lattice_witness": witness,
    }
    lines = [f"{key} {payload[key]}" for key in ("elements", "zero", "one")]
    for key in flags:
        lines.append(f"{key.replace('_', '-')} {_yn(payload[key])}")
        if key == "lattice" and witness is not None:
            lines.append("non-lattice-witness {x} {y} {missing}".format(**witness))
    lines += [f"{key} {' '.join(payload[key])}" for key in sets]
    lines += [f"ord {name} {k}" for name, k in payload["ord"].items()]
    return 0, payload, lines


def _cmd_decompose(args: argparse.Namespace) -> _Result:
    from .decompose import atomic_decomposition, basic_decomposition

    E = _load_algebra(args.file)
    try:
        x = E.index(args.element)
    except UnknownName as exc:
        raise _Refused(f"{args.file}: {exc}")
    # the two kinds differ only in their head fields and their parts; the
    # text head shows the same fields, a flag as yes/no
    try:
        basic = basic_decomposition(E, x)
        head = {"kind": "basic", "sharp": E.names[basic.sharp_part]}
        text_head = head
        parts = basic.meager_parts
    except PreconditionFailed:
        atomic = atomic_decomposition(E, x)
        head = {"kind": "atomic", "unique": atomic.unique_guaranteed}
        text_head = {"kind": "atomic", "unique": _yn(atomic.unique_guaranteed)}
        parts = atomic.parts
    payload = {
        "element": args.element,
        **head,
        "parts": [
            {"atom": E.names[p.atom], "multiplicity": p.multiplicity}
            for p in parts
        ],
    }
    lines = [f"element {args.element}"]
    lines += [f"{key} {value}" for key, value in text_head.items()]
    lines += [f"part {p['atom']} {p['multiplicity']}" for p in payload["parts"]]
    return 0, payload, lines


def _values(state) -> tuple[dict, list[str]]:
    """One :class:`~effalg.states.State`'s values, as the JSON payload and
    as a state file's lines."""
    names = state.domain.names
    values = {names[x]: _frac(v) for x, v in enumerate(state.values)}
    return {"values": values}, serialize_state(state).splitlines()


def _certificate(E: EffectAlgebra, cert) -> tuple[dict, list[str]]:
    """An :class:`~effalg.linear.InfeasibilityCertificate` that ``E`` has
    no state, as the JSON payload and as lines."""
    from .states import state_row_labels

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
    gap = _frac(cert.gap)
    lines = ["certificate"]
    lines += [f"row {r['index']} {r['multiplier']} {r['label']}" for r in rows]
    lines += [f"upper {name} {w}" for name, w in upper.items()]
    lines += [f"lower {name} {z}" for name, z in lower.items()]
    lines.append(f"gap {gap}")
    payload = {"rows": rows, "upper": upper, "lower": lower, "gap": gap}
    return {"certificate": payload}, lines


def _cmd_states(args: argparse.Namespace) -> _Result:
    from .states import State, find_state

    E = _load_algebra(args.file)
    outcome = find_state(E)
    found = isinstance(outcome, State)
    if found:
        payload, lines = _values(outcome)
    else:
        payload, lines = _certificate(E, outcome)
    wanted = not found if args.certify_none else found
    return (0 if wanted else 1), payload, lines


def _cmd_smear(args: argparse.Namespace) -> _Result:
    from .states import State, smear_state
    from .structure import extract_sharp

    E = _load_algebra(args.file)
    sub = extract_sharp(E)
    text = _read_text(args.state)
    try:
        values = parse_state(text, sub.algebra)
    except EffectAlgebraError as exc:
        raise _Refused(f"{args.state}: {exc}")
    omega = State(
        sub.algebra, tuple(values[i] for i in range(sub.algebra.size))
    )
    try:
        smeared = smear_state(E, omega)
    except (PreconditionFailed, InvalidState) as exc:
        return 1, {"error": str(exc)}, [f"cannot smear: {exc}"]
    except SizeLimit as exc:
        raise _Refused(f"{args.state}: {exc}")
    payload, lines = _values(smeared)
    return 0, payload, lines


def _cmd_gen(args: argparse.Namespace) -> _Result:
    from .constructions import (
        boolean_algebra,
        bundled_fixture,
        direct_product,
        horizontal_sum,
        mv_chain,
    )

    kind = args.kind
    params = args.params
    try:
        if kind == "mv-chain":
            if len(params) != 1:
                raise _Refused("gen mv-chain takes exactly one number")
            E = mv_chain(_int_param(params[0]))
        elif kind == "boolean":
            if len(params) != 1:
                raise _Refused("gen boolean takes exactly one number")
            E = boolean_algebra(_int_param(params[0]))
        elif kind == "hsum":
            if len(params) < 2:
                raise _Refused("gen hsum takes two or more eaf files")
            E = horizontal_sum([_load_algebra(p) for p in params])
        elif kind == "product":
            if len(params) != 2:
                raise _Refused("gen product takes exactly two eaf files")
            E = direct_product(_load_algebra(params[0]), _load_algebra(params[1]))
        else:  # "fixture", the last of the parser's choices
            if len(params) != 1:
                raise _Refused("gen fixture takes exactly one fixture name")
            try:
                E = bundled_fixture(params[0])
            except KeyError as exc:
                raise _Refused(exc.args[0]) from None
    except EffectAlgebraError as exc:
        raise _Refused(str(exc))
    text = serialize_eaf(E)
    if args.output is None:
        return 0, None, text.splitlines()
    try:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refused(f"{args.output}: {exc.strerror or exc}")
    return 0, None, []


def _int_param(token: str) -> int:
    # int() alone would also take "1_0", "+10" and non-ASCII digits
    if not re.fullmatch(r"[0-9]+", token):
        raise _Refused(f"expected a number, got {token!r}")
    if len(token) > _MAX_DIGITS:
        raise _Refused(
            f"numbers are read up to {_MAX_DIGITS} digits, not {len(token)}"
        )
    return int(token)


def _cmd_props(args: argparse.Namespace) -> _Result:
    from .laws import run_law_suite

    E = _load_algebra(args.file)
    selection = None
    if args.laws is not None:
        selection = [law.strip() for law in args.laws.split(",") if law.strip()]
        if not selection:
            raise _Refused("--laws needs at least one law id")
    try:
        report = run_law_suite(
            E, selection, counterexample_mode=args.counterexample_mode
        )
    except KeyError as exc:
        raise _Refused(exc.args[0]) from None
    results = [
        {
            "law": r.law,
            "status": r.status,
            "witnesses": [[E.names[x] for x in w] for w in r.witnesses],
            "reason": r.reason,
        }
        for r in report.results
    ]
    lines = []
    for r in results:
        line = f"{r['law']} {r['status']}"
        if r["status"] == "fail" and r["witnesses"]:
            line += " " + ";".join(",".join(w) for w in r["witnesses"])
        elif r["status"] == "skipped" and r["reason"]:
            line += f" {r['reason']}"
        lines.append(line)
    return (0 if report.ok else 1), {"results": results}, lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="effalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # every command but gen reads an EAF file, its first positional argument
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("file")
    commands = {}
    for name, fn, about in (
        ("verify", _cmd_verify, "validate an EAF file against the axioms"),
        ("analyze", _cmd_analyze, "print structural invariants"),
        ("decompose", _cmd_decompose, "decompose one element by name"),
        ("states", _cmd_states, "find a state or certify none exist"),
        ("smear", _cmd_smear, "extend a sharp-part state to the algebra"),
        ("gen", _cmd_gen, "generate an EAF document"),
        ("props", _cmd_props, "run the law suite"),
    ):
        parents = [] if name == "gen" else [reads]
        commands[name] = sub.add_parser(name, parents=parents, help=about)
        commands[name].set_defaults(fn=fn)

    commands["decompose"].add_argument("element")
    mode = commands["states"].add_mutually_exclusive_group()
    mode.add_argument("--find", action="store_true", default=True)
    mode.add_argument("--certify-none", action="store_true")
    commands["smear"].add_argument("--state", required=True)
    gen = commands["gen"]
    gen.add_argument(
        "kind", choices=["mv-chain", "boolean", "hsum", "product", "fixture"]
    )
    gen.add_argument("params", nargs="*")
    gen.add_argument("-o", "--output")
    commands["props"].add_argument("--counterexample-mode", action="store_true")
    commands["props"].add_argument("--laws")

    # after each command's own options, so that its help lists --json last
    for name, p in commands.items():
        if name != "gen":
            p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, lines = args.fn(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
