"""Batch front end: parse instance documents, run checks, emit JSON reports.

Reports are deterministic: fixed key order (sorted), rationals as "p/q"
strings, no timing in the body (elapsed time goes to stderr).  A command
returns only its facts, with its ``checks`` or ``weights``; :func:`main`
adds ``command`` and ``label`` and decides ``passed``: every check passed
and no weight lists a failure.  Exit status is 0 exactly when the report
passed, 1 on a failing check (a CheckFailure raised while a structure is
built is named on stderr instead of in a report), 2 on input errors, and
3 when the run could not finish for want of memory.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import time
from types import SimpleNamespace

from .algebra import (AlgebraElement, CdgaPresentation, LieAlgebraData,
                      canonical_monomial, validate_cdga)
from .builders import (LiePair, LinearMapObject, OffsetMismatch, Setup,
                       lie_pair_setup, linear_map_setup, splitting_homotopy)
from .connections import (DeltaConnection, atiyah_cocycle,
                          connection_difference_element, flat_connection_exists)
from .derivations import (DerivationMorphism, DgDerivation, find_homotopy,
                          validate_dg_derivation)
from .graded import GradedBasis, exact
from .kapranov import (CheckFailure, bracket_nonskew_witness,
                       check_leibniz_infinity, check_linfty_morphism,
                       cohomology_leibniz_bracket, homotopy_iso,
                       kapranov_brackets, kapranov_morphism, require_dg)
from .modules import (DgModule, ModuleElement, ModuleMorphism,
                      apply_module_differential, dual_module, tensor_index,
                      validate_dg_module)


class DocumentError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing

def parse_rational(s) -> Scalar:
    try:
        return exact(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentError(f"bad rational {s!r}: {e}") from None


def parse_monomial(s: str, n_generators: int) -> tuple[int, tuple[int, ...]]:
    """Sign and increasing form of a dot-joined word of generator indices.

    The generators are odd, so "1.0" is -1 times the monomial (0, 1); a
    repeated generator makes the word zero, returned with sign 0.
    """
    word = []
    for part in s.split(".") if s else ():
        g = int(part)
        if not 0 <= g < n_generators:
            raise DocumentError(
                f"monomial {s!r} names generator {g}, but the algebra has "
                f"{n_generators} generators")
        word.append(g)
    return canonical_monomial(word)


def parse_algebra_element(d: dict, n_generators: int) -> AlgebraElement:
    out = AlgebraElement()
    for word, c in d.items():
        c = parse_rational(c)
        sign, mon = parse_monomial(word, n_generators)
        if sign:
            out = out + AlgebraElement.monomial(mon, sign * c)
    return out


def parse_module_element(module: DgModule, d: dict) -> ModuleElement:
    for i in d:
        if int(i) >= module.rank:
            raise DocumentError(f"module element names basis index {i}, but "
                                f"the module has rank {module.rank}")
    n = module.algebra.n_generators
    return ModuleElement(module, {int(i): parse_algebra_element(a, n)
                                  for i, a in d.items()})


def parse_index_pair(s: str) -> tuple[int, int]:
    i, j = s.split(",")
    return int(i), int(j)


def parse_index(s, bound: int, where: str, what: str) -> int:
    """int(s), which must lie in 0..bound-1; the error names ``where``."""
    i = int(s)
    if not 0 <= i < bound:
        raise DocumentError(f"at {where}: {what} {s} is out of range "
                            f"(dimension {bound})")
    return i


def parse_lie(d: dict) -> LieAlgebraData:
    brackets = {}
    for key, row in d.get("brackets", {}).items():
        brackets[parse_index_pair(key)] = {int(k): parse_rational(c)
                                           for k, c in row.items()}
    return LieAlgebraData(d["basis"], brackets)


def parse_splitting(d: dict | None, pair: LiePair, where: str) -> dict:
    """{quotient position: {sub position: coefficient}}, checked against
    the dimensions of the pair."""
    n_quot, n_sub = len(pair.quot_indices), len(pair.sub_indices)
    return {parse_index(b, n_quot, f"{where}/{b}", "quotient position"):
            {parse_index(a, n_sub, f"{where}/{b}/{a}", "subalgebra position"):
             parse_rational(c) for a, c in row.items()}
            for b, row in (d or {}).items()}


def parse_connection_values(delta: DgDerivation, bmod: DgModule,
                            d: dict | None, where: str) -> DeltaConnection:
    base = DeltaConnection(delta, bmod)
    if not d:
        return base
    values = {}
    for i, row in d.items():
        v = base.tensor.zero()
        for jk, elem in row.items():
            j, k = parse_index_pair(jk)  # omega_j (x) e_k
            for x, n in ((j, delta.target.rank), (k, bmod.rank)):
                parse_index(x, n, f"{where}/{i}/{jk}", "basis index")
            v = v + ModuleElement(base.tensor, {
                tensor_index(base.tensor, j, k):
                    parse_algebra_element(elem, bmod.algebra.n_generators)})
        values[parse_index(i, bmod.rank, f"{where}/{i}",
                           "module basis index")] = v
    return DeltaConnection(delta, bmod, values, tensor=base.tensor)


class Instance:
    """A document's :class:`Setup`, plus whatever else the document
    carries: a second splitting's set-up and a second connection."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.label = doc.get("label", "")
        self.options = doc.get("options", {})
        self.lie: LieAlgebraData | None = None
        self.second_setup: Setup | None = None
        self.second_connection: DeltaConnection | None = None
        if "lie_pair" in doc:
            self.kind = "lie_pair"
            d = doc["lie_pair"]
            self.lie = parse_lie(d)
            sub = [parse_index(a, self.lie.dim, f"lie_pair/subalgebra/{t}",
                               "basis index")
                   for t, a in enumerate(d["subalgebra"])]
            pair = LiePair(self.lie, sub, label=self.label)
            self.setup = lie_pair_setup(
                pair, parse_splitting(d.get("splitting"), pair,
                                      "lie_pair/splitting"),
                label=self.label)
            if "second_splitting" in d:
                self.second_setup = lie_pair_setup(
                    pair, parse_splitting(d["second_splitting"], pair,
                                          "lie_pair/second_splitting"),
                    label=self.label + "'")
            if "second_connection" in d:
                self.second_connection = parse_connection_values(
                    self.setup.delta, self.setup.bmod, d["second_connection"],
                    "lie_pair/second_connection")
        elif "linear_map_object" in doc:
            self.kind = "linear_map_object"
            d = doc["linear_map_object"]
            self.lie = parse_lie(d["lie"])
            n, dim_e = self.lie.dim, len(d["module_basis"])
            actions = {}
            for a, row in d["actions"].items():
                at = f"linear_map_object/actions/{a}"
                rho = actions[parse_index(a, n, at, "Lie basis index")] = {}
                for ij, c in row.items():
                    for i in parse_index_pair(ij):
                        parse_index(i, dim_e, f"{at}/{ij}", "module basis index")
                    rho[parse_index_pair(ij)] = parse_rational(c)
            at = "linear_map_object/psi"
            psi = {parse_index(i, dim_e, f"{at}/{i}", "module basis index"):
                   {parse_index(a, n, f"{at}/{i}/{a}", "Lie basis index"):
                    parse_rational(c) for a, c in row.items()}
                   for i, row in d["psi"].items()}
            self.setup = linear_map_setup(
                LinearMapObject(self.lie, d["module_basis"], actions, psi,
                                label=self.label))
        else:
            self.kind = "raw"
            d = doc["raw"]
            n_gens = len(d["generators"])
            diff = {int(i): parse_algebra_element(a, n_gens)
                    for i, a in d.get("differential", {}).items()}
            algebra = CdgaPresentation(d["generators"], diff)
            om = d["omega"]
            om_diff = {parse_index_pair(k): parse_algebra_element(a, n_gens)
                       for k, a in om.get("differential", {}).items()}
            omega = DgModule(algebra, GradedBasis(om["basis"], om["degrees"]),
                             om_diff, label="Omega")
            delta = DgDerivation(
                algebra, omega, {int(i): parse_module_element(omega, v)
                                 for i, v in d.get("delta", {}).items()})
            bmod = dual_module(omega)
            self.setup = Setup(algebra, omega, delta, bmod,
                               parse_connection_values(delta, bmod,
                                                       d.get("connection"),
                                                       "raw/connection"))
        # bench/tests read the connection straight off an Instance
        self.connection = self.setup.connection

    def max_arity(self, args) -> int:
        if args.max_arity is not None:
            return args.max_arity
        return self.options.get("max_arity", 4)


class SchemaChecker:
    """Checks JSON documents against a schema in the draft-7 subset that
    the instance schema uses.  Any other keyword or ``type``, a non-false
    ``additionalProperties`` or an unknown ``$ref`` raises ValueError on
    construction, so the schema cannot outgrow the checker unnoticed.
    Unlike draft 7, ``integer`` means a JSON integer: not 3.0, not true."""

    TYPES = {"object": dict, "array": list, "string": str, "integer": int}
    KEYWORDS = {"type", "const", "pattern", "minimum", "maximum", "minItems",
                "items", "required", "properties", "patternProperties",
                "additionalProperties", "oneOf", "$ref",
                "$schema", "title", "description", "definitions"}

    def __init__(self, schema: dict):
        self.schema = schema
        self.refs = {"#/definitions/" + name: sub for name, sub
                     in schema.get("definitions", {}).items()}
        self._check_keywords(schema)

    def _check_keywords(self, schema: dict) -> None:
        for key, want in schema.items():
            if (key not in self.KEYWORDS
                    or key == "type" and want not in self.TYPES
                    or key == "additionalProperties" and want is not False
                    or key == "$ref" and want not in self.refs):
                raise ValueError(f"unsupported schema keyword {key}: {want!r}")
            subs = {"items": [want], "oneOf": want}.get(key, ())
            if key in ("properties", "patternProperties", "definitions"):
                subs = want.values()
            for sub in subs:
                self._check_keywords(sub)

    def errors(self, doc, schema: dict | None = None,
               path: tuple = ()) -> list[tuple[tuple, str]]:
        """(path, message) pairs; a path is a tuple of keys and positions."""
        schema, out = self.schema if schema is None else schema, []
        if "$ref" in schema:  # draft 7: a $ref replaces its siblings
            schema = self.refs[schema["$ref"]]
        for key, want in schema.items():
            if key == "type" and (not isinstance(doc, self.TYPES[want])
                                  or type(doc) is bool):
                out.append((path, f"{doc!r} is not of type {want!r}"))
            elif key == "const" and (doc, type(doc)) != (want, type(want)):
                out.append((path, f"{want!r} was expected"))
            elif (key == "pattern" and isinstance(doc, str)
                  and not re.search(want, doc)):
                out.append((path, f"{doc!r} does not match {want!r}"))
            elif (key in ("minimum", "maximum") and type(doc) in (int, float)
                  and (doc < want if key == "minimum" else doc > want)):
                out.append((path, f"{doc!r} is beyond the {key} {want!r}"))
            elif key == "oneOf" and sum(
                    not self.errors(doc, sub, path) for sub in want) != 1:
                out.append((path, "valid under no or several oneOf choices"))
            elif key == "minItems" and isinstance(doc, list) and len(doc) < want:
                out.append((path, f"fewer than {want} items"))
            elif key == "items" and isinstance(doc, list):
                for i, item in enumerate(doc):
                    out += self.errors(item, want, path + (i,))
            elif key == "required" and isinstance(doc, dict):
                out.extend((path, f"{name!r} is a required property")
                           for name in want if name not in doc)
            elif key == "properties" and isinstance(doc, dict):
                for name, sub in want.items():
                    if name in doc:
                        out += self.errors(doc[name], sub, path + (name,))
            elif key == "patternProperties" and isinstance(doc, dict):
                for pattern, sub in want.items():
                    for name, value in doc.items():
                        if re.search(pattern, name):
                            out += self.errors(value, sub, path + (name,))
            elif key == "additionalProperties" and isinstance(doc, dict):
                extra = [name for name in doc
                         if name not in schema.get("properties", {})
                         and not any(re.search(p, name) for p in
                                     schema.get("patternProperties", {}))]
                if extra:
                    out.append((path, f"unexpected properties {extra}"))
        return out


with open(os.path.join(os.path.dirname(__file__), "schemas",
                       "instance.schema.json")) as _schema:
    INSTANCE_SCHEMA = SchemaChecker(json.load(_schema))


def load_document(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    errors = sorted(INSTANCE_SCHEMA.errors(doc), key=lambda e: e[0])
    if errors:
        locs = "; ".join(
            f"at {'/'.join(str(p) for p in where) or '<root>'}: {message}"
            for where, message in errors[:5])
        raise DocumentError(f"{path}: document does not match the schema: {locs}")
    return doc


# ---------------------------------------------------------------------------
# serialization

def frac_json(f: Scalar) -> str:
    return f"{f.numerator}/{f.denominator}"


def algebra_elem_json(a: AlgebraElement, names) -> dict:
    out = {}
    for mon in sorted(a.terms, key=lambda m: (len(m), m)):
        word = "^".join(names[g] for g in mon) if mon else "1"
        out[word] = frac_json(a.terms[mon])
    return out


def module_elem_json(v: ModuleElement) -> dict:
    names = v.module.algebra.generators.names
    return {v.module.basis.names[i]: algebra_elem_json(v.coeffs[i], names)
            for i in sorted(v.coeffs)}


# ---------------------------------------------------------------------------
# commands

def require_defined(inst: Instance) -> None:
    """Raise the first failure of Jacobi on the document's Lie algebra, if
    any, then of :func:`require_dg` on B and delta, as a CheckFailure."""
    failures = inst.lie.jacobi_failures() if inst.lie is not None else []
    if failures:
        raise CheckFailure(failures[0])
    require_dg(inst.setup.bmod, inst.setup.delta)


def named_check(name: str, failures: list[str]) -> dict:
    return {"name": name, "passed": not failures, "failures": list(failures)}


def cmd_validate(inst: Instance, args) -> dict:
    s, checks = inst.setup, []
    if inst.lie is not None:
        checks.append(named_check("jacobi", inst.lie.jacobi_failures()))
    d_squared = [
        named_check("cdga_d_squared", validate_cdga(s.algebra)),
        named_check("module_d_squared", validate_dg_module(s.omega)),
        named_check("dual_module_d_squared", validate_dg_module(s.bmod))]
    checks += d_squared + [named_check("derivation_compatibility",
                                       validate_dg_derivation(s.delta))]
    # [nabla, d] is a cocycle only where d^2 = 0: closedness means nothing
    # after a failed d^2 check
    stopped = next((c["name"] for c in d_squared if not c["passed"]), None)
    conn_fail = [f"not run: {stopped} failed"] if stopped else []
    try:
        if not stopped and not atiyah_cocycle(s.connection).is_closed():
            conn_fail.append("Atiyah cocycle of the canonical connection "
                             "is not closed")
    except ValueError as e:
        conn_fail.append(str(e))
    checks.append(named_check("connection", conn_fail))
    return {"checks": checks}


def cmd_atiyah(inst: Instance, args) -> dict:
    require_defined(inst)
    s = inst.setup
    at = atiyah_cocycle(s.connection)
    class_zero = at.class_is_zero()
    # flat is read from the zero connection's cocycle, class_zero from the
    # document's: agreeing, they show the class does not depend on nabla
    flat = flat_connection_exists(at)
    flat_fail = [] if (flat is not None) == class_zero else [
        "flat connection search disagrees with the class"]
    if flat is not None and not all(
            v.is_zero() for v in atiyah_cocycle(flat).operator_values):
        flat_fail.append("the flat connection found has a nonzero Atiyah "
                         "cocycle")
    checks = [named_check("cocycle_closed",
                          [] if at.is_closed() else ["[nabla, d] is not closed"]),
              named_check("flat_agrees_with_class_vanishing", flat_fail)]
    if inst.second_connection is not None:
        at2 = atiyah_cocycle(inst.second_connection)
        d_elt = connection_difference_element(
            s.connection, inst.second_connection, at.om_end)
        want = apply_module_differential(at.om_end, d_elt).scale(-1)
        ok = at.element - at2.element == want
        checks.append(named_check(
            "cocycle_difference_exact",
            [] if ok else ["cocycle difference is not -d(connection difference)"]))
        checks.append(named_check(
            "class_connection_independent",
            [] if at.same_class(at2)
            else ["classes of the two connections differ"]))
    out = {"class_zero": class_zero, "flat_connection_found": flat is not None,
           "checks": checks}
    if flat is not None:
        out["flat_connection_values"] = {
            s.bmod.basis.names[i]: module_elem_json(v)
            for i, v in sorted(flat.values.items())}
    return out


def bracket_tables_json(fam) -> dict:
    names = fam.module.basis.names
    return {str(k): [{"args": [names[i] for i in key],
                      "value": module_elem_json(val)}
                     for key, val in sorted(table.items())]
            for k, table in sorted(fam.module_tables.items())}


def cmd_brackets(inst: Instance, args) -> dict:
    require_defined(inst)
    fam = kapranov_brackets(inst.setup.connection, inst.max_arity(args))
    bmod = inst.setup.bmod
    diff = [bmod.diff_of_basis(i) for i in range(bmod.rank)]
    diff_entries = [{"arg": bmod.basis.names[i], "value": module_elem_json(dv)}
                    for i, dv in enumerate(diff) if not dv.is_zero()]
    checks = [named_check("bracket_degrees", fam.degree_failures())]
    return {
        "max_arity": inst.max_arity(args),
        "differential": diff_entries,
        "tables": bracket_tables_json(fam),
        "nonzero_arities": fam.nonzero_arities(),
        "checks": checks,
    }


def cmd_check_leibniz(inst: Instance, args) -> dict:
    n_max = inst.max_arity(args)
    require_defined(inst)
    fam = kapranov_brackets(inst.setup.connection, n_max)
    return {
        "max_arity": n_max,
        "nonzero_arities": fam.nonzero_arities(),
        "tables": bracket_tables_json(fam),
        "weights": check_leibniz_infinity(fam, n_max)["weights"],
    }


def cmd_morphism(inst: Instance, args) -> dict:
    n_max = inst.max_arity(args)
    if n_max > MORPHISM_MAX_ARITY:  # only options.max_arity can get here
        print(f"note: morphism caps the document's max_arity {n_max} at "
              f"{MORPHISM_MAX_ARITY}", file=sys.stderr)
        n_max = MORPHISM_MAX_ARITY
    require_defined(inst)
    s = inst.setup
    fam0 = kapranov_brackets(s.connection, n_max)
    dm = DerivationMorphism(s.delta, s.delta, ModuleMorphism.identity(s.omega))
    checks = []
    if inst.second_connection is not None:
        fam1 = kapranov_brackets(inst.second_connection, n_max)
        mor = kapranov_morphism(dm, fam0, fam1, max_arity=n_max)
        kind = "connection_change"
    else:
        mor = kapranov_morphism(dm, fam0, fam0, max_arity=n_max)
        kind = "identity"
        strict = mor.nonzero_arities() == [1] or mor.nonzero_arities() == []
        checks.append(named_check(
            "identity_is_strict",
            [] if strict else [f"unexpected arities {mor.nonzero_arities()}"]))
    report = check_linfty_morphism(mor, n_max)
    checks.append(named_check(
        "morphism_equation",
        [f"n={w['n']}: {f['tuple']}" for w in report["weights"]
         for f in w["failures"]]))
    return {
        "kind": kind,
        "map_arities": mor.nonzero_arities(),
        "weights": report["weights"],
        "checks": checks,
    }


def cmd_homotopy(inst: Instance, args) -> dict:
    if inst.second_setup is None:
        raise DocumentError(
            "the homotopy command needs a lie_pair document with a "
            "second_splitting section")
    require_defined(inst)
    s0, s1 = inst.setup, inst.second_setup
    try:
        h = splitting_homotopy(s0, s1)
        offset_failures = []
    except OffsetMismatch as e:
        h, offset_failures = e.homotopy, [str(e)]
    checks = [named_check("offset_matches", offset_failures)]
    found = find_homotopy(s0.delta, s1.delta)
    checks.append(named_check(
        "homotopy_search",
        [] if found is not None else ["find_homotopy returned nothing"]))
    mor, conn_prime = homotopy_iso(s0.connection, h, DeltaConnection(h, s0.bmod),
                                   max_arity=4)
    checks.append(named_check(
        "g2_vanishes", [] if 2 not in mor.nonzero_arities()
        else ["g_2 is nonzero"]))
    report = check_linfty_morphism(mor, 4)
    checks.append(named_check(
        "iso_morphism_equation",
        [f"n={w['n']}: {f['tuple']}" for w in report["weights"]
         for f in w["failures"]]))
    checks.append(named_check(
        "classes_equal", [] if atiyah_cocycle(s0.connection).same_class(
            atiyah_cocycle(s1.connection))
        else ["twisted Atiyah classes of the two splittings differ"]))
    return {
        "homotopy_values": {
            s0.algebra.generators.names[i]: module_elem_json(v)
            for i, v in sorted(h.values.items())},
        "iso_arities": mor.nonzero_arities(),
        "checks": checks,
    }


def cmd_cohomology(inst: Instance, args) -> dict:
    require_defined(inst)
    fam = kapranov_brackets(inst.setup.connection, 2)
    cb = cohomology_leibniz_bracket(fam)
    degrees = [args.degree] if args.degree is not None else cb.complex.degrees()
    betti = {str(n): cb.complex.betti(n) for n in degrees}
    reps = [{"degree": d, "representative": module_elem_json(r)}
            for d, r in cb.reps]
    table = [{"args": [a, b], "coordinates": [frac_json(c) for c in coords]}
             for (a, b), coords in sorted(cb.table.items()) if any(coords)]
    witness = bracket_nonskew_witness(fam)
    leib = cb.leibniz_failures()
    checks = [named_check(
        "class_leibniz_identity",
        [f"representatives {t}" for t in leib])]
    return {
        "betti": betti,
        "class_representatives": reps,
        "class_bracket_table": table,
        "class_bracket_skew": cb.is_skew(),
        "cochain_nonskew_witness": (
            [fam.module.basis.names[witness[0]],
             fam.module.basis.names[witness[1]]] if witness else None),
        "checks": checks,
    }


COMMANDS = {
    "validate": cmd_validate,
    "atiyah": cmd_atiyah,
    "brackets": cmd_brackets,
    "check-leibniz": cmd_check_leibniz,
    "morphism": cmd_morphism,
    "homotopy": cmd_homotopy,
    "cohomology": cmd_cohomology,
}


MAX_ARITY = 6  # the schema's cap on options.max_arity
MORPHISM_MAX_ARITY = 4  # morphism builds and checks its tower to arity 4


def integer(low: int | None = None, high: int | None = None):
    """Parser of an option value: an int in [low, high], either end open
    when None."""
    def parse(s: str) -> int:
        try:
            value = int(s)
        except ValueError:
            raise ValueError(f"invalid int value: {s!r}") from None
        if (low is not None and value < low
                or high is not None and value > high):
            limit = (f"between {low} and {high}" if high is not None
                     else f"at least {low}")
            raise ValueError(f"{value}: must be {limit}")
        return value
    return parse


OPTIONS = {  # option: (metavar, value parser, help)
    "--input": ("FILE", str, "instance document (JSON), required"),
    "--max-arity": ("N", integer(1, MAX_ARITY),
                    "highest bracket arity / identity weight: "
                    f"brackets and check-leibniz 1..{MAX_ARITY}, "
                    f"morphism 1..{MORPHISM_MAX_ARITY}"),
    "--degree": ("D", integer(),
                 "cohomology: restrict the output to one degree"),
    "--output": ("FILE", str, "write the report here instead of stdout"),
    "--threads": ("N", integer(1),
                  "accepted for compatibility; checks run in one thread"),
}
COMMAND_OPTIONS = {  # option: {command that reads it: highest value or None}
    "--max-arity": {"brackets": MAX_ARITY, "check-leibniz": MAX_ARITY,
                    "morphism": MORPHISM_MAX_ARITY},
    "--degree": {"cohomology": None},
}
USAGE = (f"usage: kapranov {{{','.join(COMMANDS)}}} --input FILE"
         + "".join(f" [{opt} {meta}]" for opt, (meta, _, _) in OPTIONS.items()
                   if opt != "--input"))
HELP = "\n".join(
    [USAGE, "", "Build and verify the higher bracket towers of a "
     "finite-dimensional instance.", "", "options:"]
    + [f"  {opt + ' ' + meta:<16} {text}"
       for opt, (meta, _, text) in OPTIONS.items()]
    + [f"  {'-h, --help':<16} show this message and exit"])


def usage_error(argument: str, message: str):
    print(f"{USAGE}\nkapranov: error: argument {argument}: {message}",
          file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, then options in any order as ``--opt value`` or
    ``--opt=value``, the last value winning; an option not given is None.
    ``-h``/``--help`` prints the help and exits 0, a usage error exits 2;
    an option of COMMAND_OPTIONS that the command does not read, or a
    value above that command's bound, is a usage error."""
    if "-h" in argv or "--help" in argv:
        print(HELP)
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        usage_error("COMMAND", f"invalid choice: {argv[0]!r} (choose from "
                    f"{', '.join(COMMANDS)})" if argv else "required")
    args = dict.fromkeys(OPTIONS)
    rest = iter(argv[1:])
    for arg in rest:
        opt, eq, value = arg.partition("=")
        if opt not in OPTIONS:
            usage_error(opt, "unrecognized argument")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                usage_error(opt, "expected one argument")
        try:
            args[opt] = OPTIONS[opt][1](value)
        except ValueError as e:
            usage_error(opt, str(e))
    if args["--input"] is None:
        usage_error("--input", "required")
    for opt, readers in COMMAND_OPTIONS.items():
        value = args[opt]
        if value is None:
            continue
        if argv[0] not in readers:
            usage_error(opt, f"not accepted by {argv[0]}")
        high = readers[argv[0]]
        if high is not None and value > high:
            usage_error(opt, f"{value}: must be at most {high} for {argv[0]}")
    return SimpleNamespace(command=argv[0], **{
        opt[2:].replace("-", "_"): value for opt, value in args.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    start = time.monotonic()
    try:
        inst = Instance(load_document(args.input))
        facts = COMMANDS[args.command](inst, args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {args.input}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {args.input}: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # could not finish: neither a failed check nor bad input
        facts = None
    if facts is None:
        # printed only here, once the handler has dropped the traceback and
        # with it the frames that held what the command had built
        print(f"error: {args.input}: out of memory", file=sys.stderr)
        return 3
    passed = (all(c["passed"] for c in facts.get("checks", ()))
              and not any(w["failures"] for w in facts.get("weights", ())))
    report = {"command": args.command, "label": inst.label, **facts,
              "passed": passed}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as f:
                f.write(text)
        except OSError as e:
            print(f"error: cannot write {args.output}: {e.strerror or e}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0 if passed else 1


def run() -> None:
    """Entry point of the ``kapranov`` script and of ``python -m
    kapranov.cli``: exit with the status of :func:`main`, freezing the
    heap first on every way out.  Shutdown's full collections skip frozen
    objects, and no object here needs a finalizer at exit; ``atexit``
    handlers and the stdio flush still run.  :func:`main` never touches
    ``gc``, so callers that run it in their own process are unaffected.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
