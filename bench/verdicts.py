"""One verdict per input: .eaf text in, checked answer out.

Each workload runs the calls its CLI command makes, through effalg's public
API, and checks the result against an answer that does not come from
effalg: the stored known answers, the brute-force axiom labels, or the
arithmetic in :mod:`reference` on the text itself.  A wrong answer raises
:class:`WrongVerdict`.  Probes run only in the traced run, after the
verdict, to time layers that the verdict reaches only from inside effalg.
"""

from __future__ import annotations

import effalg as ea

import reference


class WrongVerdict(Exception):
    pass


def _expect(ok: bool, why: str) -> None:
    if not ok:
        raise WrongVerdict(why)


def _load(t, text):
    doc = t.call("eaf.parse_eaf", ea.parse_eaf, text)
    t.count("eaf.bytes", len(text))
    t.count("core.sums", len(doc.sums))
    return doc


def analyze(t, case, text):
    E = t.call("core.build_effect_algebra", ea.build_effect_algebra, _load(t, text))
    order = t.call("order.derive_order", ea.derive_order, E)
    cls = t.call("order.classify", ea.classify, E)
    prof = t.call("structure.structure_profile", ea.structure_profile, E)
    sharp = t.call("structure.extract_sharp", ea.extract_sharp, E)
    if order.is_lattice:
        decomps = [
            t.call("decompose.basic_decomposition", ea.basic_decomposition, E, x)
            for x in range(E.size)
        ]
    else:
        decomps = [
            t.call("decompose.atomic_decomposition", ea.atomic_decomposition, E, x)
            for x in range(E.size)
        ]
    got = {
        "size": E.size,
        "lattice": cls.is_lattice,
        "mv": cls.is_mv,
        "orthomodular_image": cls.is_orthomodular_image,
        "atomic": prof.atomic,
        "archimedean": prof.archimedean,
        "sharply_dominating": prof.sharply_dominating,
        "s_dominating": prof.s_dominating,
        "atoms": len(prof.atoms),
        "sharp": len(prof.sharp),
        "meager": len(prof.meager),
        "isotropic": sorted(prof.isotropic[x] for x in range(E.size) if x != E.zero),
    }
    wrong = sorted(k for k in case.expect if got[k] != case.expect[k])
    _expect(not wrong, f"{case.id}: wrong {', '.join(wrong)}")
    _expect(sharp.algebra.size == len(prof.sharp), f"{case.id}: sharp subalgebra size")
    table = reference.Table(text)
    for x, d in enumerate(decomps):
        if order.is_lattice:
            start, parts = d.sharp_part, d.meager_parts
        else:
            start, parts = table.zero, d.parts
        why = reference.check_readd(table, start, [(p.atom, p.multiplicity) for p in parts], x)
        _expect(not why, f"{case.id}: decomposition of {table.names[x]}: {why}")


def states(t, case, text):
    E = t.call("core.build_effect_algebra", ea.build_effect_algebra, _load(t, text))
    found = t.call("states.find_state", ea.find_state, E)
    table = reference.Table(text)
    if isinstance(found, ea.State):
        _expect(case.expect["state"], f"{case.id}: a state on a stateless table")
        why = reference.check_state(table, found.values)
    else:
        _expect(not case.expect["state"], f"{case.id}: certificate on a table with states")
        why = reference.check_certificate(
            table, found.row_multipliers, found.upper_multipliers,
            found.lower_multipliers, found.gap,
        )
    _expect(not why, f"{case.id}: {why}")
    return E


def probe_states(t, case, E):
    system = t.call("states.state_system", ea.state_system, E)
    t.count("states.rows", len(system.coeffs))
    point = t.call("linear.solve_exact", ea.solve_exact, system)
    _expect(
        isinstance(point, ea.FeasiblePoint) == case.expect["state"],
        f"{case.id}: solve_exact disagrees with find_state",
    )


def laws(t, case, text):
    E = t.call("core.build_effect_algebra", ea.build_effect_algebra, _load(t, text))
    report = t.call("laws.run_law_suite", ea.run_law_suite, E, None, case.cx)
    got = {r.law: r.status for r in report.results}
    for status in got.values():
        t.count(f"laws.{status}")
    wrong = sorted(law for law in case.expect["laws"] if got.get(law) != case.expect["laws"][law])
    _expect(not wrong and len(got) == len(case.expect["laws"]), f"{case.id}: wrong {wrong}")
    return E


def probe_laws(t, case, E):
    for law in ea.LAW_IDS:
        report = t.call(f"laws.{law}", ea.run_law_suite, E, [law], case.cx)
        _expect(report.results[0].status == case.expect["laws"][law], f"{case.id}: {law} alone")


def verify(t, case, text):
    doc = _load(t, text)
    try:
        t.call("core.build_effect_algebra", ea.build_effect_algebra, doc)
        labels = []
    except ea.AxiomViolation as exc:
        violations = exc.report.violations
        t.count("core.violations", len(violations))
        labels = sorted({v.axiom for v in violations})
    _expect(labels == case.expect["labels"], f"{case.id}: axioms {labels} != {case.expect['labels']}")


# workload -> (verdict, probe or None)
WORKLOADS = {
    "analyze-ladder": (analyze, None),
    "states-solve": (states, probe_states),
    "laws-suite": (laws, probe_laws),
    "verify-tables": (verify, None),
}
