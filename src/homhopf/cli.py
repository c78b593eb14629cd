"""Batch interface: parse structure definitions from JSON, run the
construction/verification pipelines, and emit deterministic reports.

Commands: verify-hopf, build-uea, matched-pair-check, doublecross,
bicross, semidualize, hom-lie-hopf.  Exit status: 0 when every requested
check passed, 1 when violations or run-time errors were reported, 2 for
unreadable or schema-invalid input.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import HomHopfError, InverseMismatch, NotInvertible, SchemaError
from .foundation import LinComb, LinearOperator
from .hom_core import HomHopfData, check_hom_hopf
from .hom_lie import HomLieData, LieActionData, MatchedPairLie, check_hom_lie
from .cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    MatchedPairHopf,
    MutualPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from .semidual import build_hom_lie_hopf, semidualize
from .uea_trees import build_truncated_uea, leaf_count, lift_to_Uh_action, tree_label

COMMANDS = (
    "verify-hopf",
    "build-uea",
    "matched-pair-check",
    "doublecross",
    "bicross",
    "semidualize",
    "hom-lie-hopf",
)


# ---------------------------------------------------------------------------
# input parsing


def _scalar(value, where):
    """An exact rational from an int or a "p/q" string (JSON booleans are
    not ints)."""
    try:
        if isinstance(value, str) or (
            isinstance(value, int) and not isinstance(value, bool)
        ):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError("%s: not an exact rational: %r" % (where, value))


def _matrix(data, dim, where):
    if (
        not isinstance(data, list)
        or len(data) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in data)
    ):
        raise SchemaError("%s: expected a %dx%d matrix" % (where, dim, dim))
    return [[_scalar(x, where) for x in row] for row in data]


def _operator(section, name, dim, where):
    if name not in section:
        raise SchemaError("%s: missing matrix %r" % (where, name))
    mat = _matrix(section[name], dim, "%s/%s" % (where, name))
    inv_name = name + "_inv"
    inverse = None
    if inv_name in section:
        inverse = _matrix(section[inv_name], dim, "%s/%s" % (where, inv_name))
    try:
        op = LinearOperator.from_matrix(mat, inverse=inverse)
        if name != "antipode":
            op.inverted()  # structure maps must be invertible up front
        return op
    except NotInvertible as exc:
        raise InverseMismatch("%s/%s: %s" % (where, name, exc))


def _index(value, dim, where):
    """A basis index: an int in range(dim) (JSON booleans are not ints)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < dim:
        raise SchemaError("%s: index %r out of range 0..%d" % (where, value, dim - 1))
    return value


def _sparse_vector(entries, dim, where):
    """A dense list of dim scalars, or a list of [index, scalar] pairs."""
    if not isinstance(entries, list):
        raise SchemaError("%s: expected a list" % where)
    if all(not isinstance(x, list) for x in entries):
        if len(entries) != dim:
            raise SchemaError("%s: dense vector length != %d" % (where, dim))
        return LinComb({i: _scalar(c, where) for i, c in enumerate(entries)})
    out = {}
    for row, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError("%s: expected [index, scalar] pairs" % where)
        at = "%s/%d" % (where, row)
        k = _index(item[0], dim, at)
        out[k] = out.get(k, Fraction(0)) + _scalar(item[1], at)
    return LinComb(out)


def _index_rows(entries, dims, where):
    """Rows [i, j, k, scalar] with each index range-checked against its
    entry of dims; yields (i, j, k, Fraction)."""
    if not isinstance(entries, list):
        raise SchemaError("%s: expected a list of [i, j, k, scalar] rows" % where)
    for row, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 4:
            raise SchemaError("%s: expected [i, j, k, scalar] rows" % where)
        at = "%s/%d" % (where, row)
        i, j, k = (_index(x, n, at) for x, n in zip(item, dims))
        yield i, j, k, _scalar(item[3], at)


def _table3(entries, dims, where):
    """[[i, j, k, scalar], ...] -> dict (i, j) -> LinComb over k, for every
    (i, j) in range(dims[0]) x range(dims[1])."""
    out = {(i, j): {} for i in range(dims[0]) for j in range(dims[1])}
    for i, j, k, c in _index_rows(entries, dims, where):
        out[(i, j)][k] = out[(i, j)].get(k, Fraction(0)) + c
    return {key: LinComb(val) for key, val in out.items()}


def _comult_table(entries, dims, where):
    """[[i, j, k, scalar], ...] -> dict i -> LinComb over (j, k), for every
    i in range(dims[0])."""
    out = {i: {} for i in range(dims[0])}
    for i, j, k, c in _index_rows(entries, dims, where):
        out[i][(j, k)] = out[i].get((j, k), Fraction(0)) + c
    return {i: LinComb(v) for i, v in out.items()}


def _object(value, where):
    if not isinstance(value, dict):
        raise SchemaError("%s: expected an object" % where)
    return value


def _entries(raw, section):
    """(name, entry, JSON pointer) for each entry of a top-level section;
    the section and every entry must be objects."""
    for name, entry in _object(raw.get(section, {}), "/" + section).items():
        where = "/%s/%s" % (section, name)
        yield name, _object(entry, where), where


def _dim(entry, where):
    dim = entry.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("%s/dim: positive integer required" % where)
    return dim


class InputDocument:
    """Validated structures from one JSON input file."""

    def __init__(self):
        self.hopf = {}
        self.hom_lie = {}
        self.matched_pairs = {}
        self.mutual_pairs = {}
        self.lie_matched_pairs = {}
        self.pipeline = {}


def parse_input(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError("/: cannot read input: %s" % exc)
    except json.JSONDecodeError as exc:
        raise SchemaError("/: invalid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise SchemaError("/: top level must be an object")
    if raw.get("field", "Q") != "Q":
        raise SchemaError("/field: only the rational field Q is supported")

    doc = InputDocument()
    for name, entry, where in _entries(raw, "hopf"):
        dim = _dim(entry, where)
        mult = _table3(entry.get("mult", []), (dim,) * 3, where + "/mult")
        unit = _sparse_vector(entry.get("unit", []), dim, where + "/unit")
        comult = _comult_table(entry.get("comult", []), (dim,) * 3, where + "/comult")
        counit_vec = _sparse_vector(entry.get("counit", []), dim, where + "/counit")
        counit = {i: counit_vec.get(i) for i in range(dim)}
        alpha = _operator(entry, "alpha", dim, where)
        beta = _operator(entry, "beta", dim, where)
        antipode = _operator(entry, "antipode", dim, where)
        doc.hopf[name] = HomHopfData(
            dim, mult, unit, alpha, comult, counit, beta, antipode
        )

    for name, entry, where in _entries(raw, "hom_lie"):
        dim = _dim(entry, where)
        bracket = {}
        rows = entry.get("bracket", [])
        if not isinstance(rows, list):
            raise SchemaError("%s/bracket: expected a list" % where)
        for row, item in enumerate(rows):
            if not isinstance(item, list) or len(item) != 3:
                raise SchemaError("%s/bracket: expected [i, j, vector] rows" % where)
            at = "%s/bracket/%d" % (where, row)
            i, j = _index(item[0], dim, at), _index(item[1], dim, at)
            vec = _sparse_vector(item[2], dim, at + "/2")
            if i > j:
                i, j, vec = j, i, -vec
            # a nonzero [i, i], or a row that disagrees with an earlier one
            if (i == j and vec) or bracket.setdefault((i, j), vec) != vec:
                raise SchemaError("%s: contradicts the antisymmetry of the bracket" % at)
        phi = _operator(entry, "phi", dim, where)
        doc.hom_lie[name] = HomLieData(dim, bracket, phi)

    def _resolve(ref, table, where):
        if not isinstance(ref, str) or ref not in table:
            raise SchemaError("%s: dangling reference %r" % (where, ref))
        return table[ref]

    for name, entry, where in _entries(raw, "matched_pairs"):
        u = _resolve(entry.get("u"), doc.hopf, where + "/u")
        v = _resolve(entry.get("v"), doc.hopf, where + "/v")
        left = _table3(entry.get("left", []), (v.dim, u.dim, u.dim), where + "/left")
        right = _table3(entry.get("right", []), (v.dim, u.dim, v.dim), where + "/right")
        doc.matched_pairs[name] = MatchedPairHopf(u, v, left, right)

    for name, entry, where in _entries(raw, "mutual_pairs"):
        f = _resolve(entry.get("f"), doc.hopf, where + "/f")
        u = _resolve(entry.get("u"), doc.hopf, where + "/u")
        action = _table3(entry.get("action", []), (u.dim, f.dim, f.dim), where + "/action")
        coaction = _comult_table(
            entry.get("coaction", []), (u.dim, u.dim, f.dim), where + "/coaction"
        )
        doc.mutual_pairs[name] = MutualPairHopf(f, u, action, coaction)

    for name, entry, where in _entries(raw, "lie_matched_pairs"):
        g = _resolve(entry.get("g"), doc.hom_lie, where + "/g")
        h = _resolve(entry.get("h"), doc.hom_lie, where + "/h")
        h_on_g = _table3(entry.get("h_on_g", []), (h.dim, g.dim, g.dim), where + "/h_on_g")
        g_on_h = _table3(entry.get("g_on_h", []), (g.dim, h.dim, h.dim), where + "/g_on_h")
        doc.lie_matched_pairs[name] = MatchedPairLie(
            g,
            h,
            LieActionData(h, range(g.dim), h_on_g, g.phi),
            LieActionData(g, range(h.dim), g_on_h, h.phi),
        )

    doc.pipeline = _object(raw.get("pipeline", {}), "/pipeline")
    return doc


# ---------------------------------------------------------------------------
# report construction


def _is_shape(shape):
    return shape == () or (
        isinstance(shape, tuple) and len(shape) == 2 and all(map(_is_shape, shape))
    )


def _is_tree_key(key):
    """The unit "1", or a decorated tree (shape, weights, decorations) with
    one int per leaf in each of weights and decorations; a tuple of tensor
    legs is not a tree key."""
    return key == "1" or (
        isinstance(key, tuple)
        and len(key) == 3
        and _is_shape(key[0])
        and all(
            isinstance(part, tuple)
            and len(part) == leaf_count(key[0])
            and all(isinstance(w, int) for w in part)
            for part in key[1:]
        )
    )


def _label(key):
    if _is_tree_key(key):
        return tree_label(key)
    if isinstance(key, tuple):
        return "(" + ", ".join(_label(k) for k in key) + ")"
    return str(key)


def _lincomb_json(x):
    items = sorted(((_label(k), str(c)) for k, c in x.items()))
    return [[k, c] for k, c in items]


def _report_block(check_id, rep):
    equations = []
    for eq in rep.equations:
        entry = {
            "id": eq.eq_id,
            "checked": eq.checked,
            "skipped": eq.skipped,
            "violations": [
                {
                    "witness": [_label(w) for w in v.witness],
                    "lhs": _lincomb_json(v.lhs),
                    "rhs": _lincomb_json(v.rhs),
                }
                for v in eq.violations
            ],
        }
        equations.append(entry)
    return {
        "id": check_id,
        "passed": rep.passed,
        "equations": equations,
        "tuples_checked": rep.total_checked(),
        "tuples_skipped": rep.total_skipped(),
    }


def _parameter(flag_value, flag, doc, key, default, least):
    """A truncation parameter from its flag, else from pipeline.<key>, else
    the default; it must be an int (not a JSON boolean) >= least."""
    if flag_value is not None:
        value, where = flag_value, flag
    else:
        value, where = doc.pipeline.get(key, default), "/pipeline/" + key
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SchemaError("%s: integer >= %d required, got %r" % (where, least, value))
    return value


def _pipeline_args(doc, args):
    target = args.target if args.target is not None else doc.pipeline.get("target")
    if target is not None and not isinstance(target, str):
        raise SchemaError("/pipeline/target: expected a string, got %r" % (target,))
    degree = _parameter(args.degree, "--degree", doc, "degree", 2, 1)
    weight = _parameter(args.weight_bound, "--weight-bound", doc, "weight_bound", 3, 0)
    enforce = doc.pipeline.get("enforce_order_constraint", True)
    if not isinstance(enforce, bool):
        raise SchemaError(
            "/pipeline/enforce_order_constraint: expected true or false, got %r"
            % (enforce,)
        )
    enforce = enforce and not args.no_order_constraint
    return target, degree, weight, enforce


def run(command, doc, args):
    """Execute one pipeline; returns the report document (a plain dict)."""
    target, degree, weight, enforce = _pipeline_args(doc, args)
    report = {
        "tool": "homhopf",
        "version": __version__,
        "command": command,
        "target": target,
        "parameters": {"degree": degree, "weight_bound": weight,
                       "order_constraint": enforce},
        "checks": [],
    }
    checks = report["checks"]

    def need(table, kind):
        if target not in table:
            raise SchemaError("/pipeline/target: no %s named %r" % (kind, target))
        return table[target]

    if command == "verify-hopf":
        h = need(doc.hopf, "hopf algebra")
        checks.append(_report_block("hom-hopf-suite", check_hom_hopf(h)))
    elif command == "build-uea":
        g = need(doc.hom_lie, "hom_lie algebra")
        checks.append(_report_block("hom-lie", check_hom_lie(g)))
        u = build_truncated_uea(g, degree, weight)
        report["dimensions"] = {"per_degree": u.dims_per_degree()}
        report["normal_forms"] = [_label(k) for k in u.basis_keys()]
        checks.append(_report_block("well-definedness", u.well_definedness_report()))
        checks.append(_report_block("hom-hopf-suite", check_hom_hopf(u)))
    elif command in ("matched-pair-check", "doublecross"):
        if target in doc.matched_pairs:
            mp = doc.matched_pairs[target]
        else:
            pair = need(doc.lie_matched_pairs, "matched pair")
            mp = lift_to_Uh_action(pair, degree, weight)
            report["dimensions"] = {
                "u_per_degree": mp.u.dims_per_degree(),
                "v_per_degree": mp.v.dims_per_degree(),
            }
        rep = check_matched_pair_hopf(mp)
        checks.append(_report_block("matched-pair", rep))
        if command == "doublecross" and rep.passed:
            dcp = DoubleCrossProduct(mp)
            checks.append(_report_block("double-cross-suite", check_hom_hopf(dcp)))
    elif command == "bicross":
        m = need(doc.mutual_pairs, "mutual pair")
        rep = check_mutual_pair(m)
        checks.append(_report_block("mutual-pair", rep))
        if rep.passed:
            bi = Bicrossproduct(m)
            checks.append(_report_block("bicross-suite", check_hom_hopf(bi)))
    elif command == "semidualize":
        if target in doc.matched_pairs:
            mp = doc.matched_pairs[target]
        else:
            pair = need(doc.lie_matched_pairs, "matched pair")
            mp = lift_to_Uh_action(pair, degree, weight)
        checks.append(_report_block("matched-pair", check_matched_pair_hopf(mp)))
        mutual = semidualize(mp, enforce)
        checks.append(_report_block("mutual-pair", check_mutual_pair(mutual)))
    elif command == "hom-lie-hopf":
        pair = need(doc.lie_matched_pairs, "matched pair of Hom-Lie algebras")
        res = build_hom_lie_hopf(pair, degree, weight, enforce)
        report["dimensions"] = {
            "u_per_degree": res.matched_pair.u.dims_per_degree(),
            "v_per_degree": res.matched_pair.v.dims_per_degree(),
        }
        checks.append(_report_block("matched-pair", res.matched_report))
        checks.append(_report_block("mutual-pair", res.mutual_report))
        checks.append(_report_block("bicross-suite", res.suite_report))
    else:
        raise SchemaError("unknown command %r" % command)

    report["passed"] = all(block["passed"] for block in checks)
    report["violations_total"] = sum(
        len(eq["violations"]) for block in checks for eq in block["equations"]
    )
    return report


# ---------------------------------------------------------------------------
# emission


def emit_report(report, fmt):
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode("utf-8")
    lines = [
        "homhopf %s: %s (target %s)"
        % (report["version"], report["command"], report.get("target"))
    ]
    if "dimensions" in report:
        for key, dims in report["dimensions"].items():
            lines.append("dimensions %s: %s" % (key, dims))
    total_eqs = 0
    total_tuples = 0
    for block in report["checks"]:
        lines.append("[%s]" % block["id"])
        for eq in block["equations"]:
            total_eqs += 1
            total_tuples += eq["checked"]
            status = "ok  " if not eq["violations"] else "FAIL"
            extra = ", %d skipped" % eq["skipped"] if eq["skipped"] else ""
            lines.append(
                "  %s %-32s (%d tuples%s)"
                % (status, eq["id"], eq["checked"], extra)
            )
            for v in eq["violations"][:5]:
                lines.append(
                    "       witness (%s): lhs=%s rhs=%s"
                    % (", ".join(v["witness"]), v["lhs"], v["rhs"])
                )
    if "error" in report:
        lines.append("error: %s" % report["error"])
    if "timing_ms" in report:
        lines.append("timing: %s ms" % report["timing_ms"])
    if report["passed"]:
        lines.append(
            "ALL CHECKS PASSED (%d equations, %d tuples)" % (total_eqs, total_tuples)
        )
    else:
        lines.append("FAILED (%d violations)" % report["violations_total"])
    return ("\n".join(lines) + "\n").encode("utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homhopf",
        description="Construct and verify Hom-Hopf algebras over Q, exactly.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="JSON structure file")
    parser.add_argument("--target", help="name of the structure to act on")
    parser.add_argument("--degree", type=int, help="truncation degree N")
    parser.add_argument("--weight-bound", type=int, help="per-leaf weight bound W")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--no-order-constraint",
        action="store_true",
        help="skip the finite-order twist hypothesis check",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing in the report (breaks byte determinism)",
    )
    args = parser.parse_args(argv)

    try:
        doc = parse_input(args.input)
    except (SchemaError, InverseMismatch) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2

    started = time.monotonic()
    try:
        report = run(args.command, doc, args)
    except SchemaError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    except HomHopfError as exc:
        report = {
            "tool": "homhopf",
            "version": __version__,
            "command": args.command,
            "target": args.target or doc.pipeline.get("target"),
            "checks": [],
            "passed": False,
            "violations_total": 0,
            "error": "%s: %s" % (type(exc).__name__, exc),
        }
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
