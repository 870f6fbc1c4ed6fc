"""JSON formats for algebras, representations, operators and cochains.

All indices in files are 1-based.  Scalars are strings "p/q" or "p".
Serialization is canonical: entries sorted by index, zero entries
omitted, and every document written by ``dump_json`` in the standard
library's layout for sorted keys and a two-space indent (``json.dumps``
writes the same bytes and is the tests' oracle), so load -> dump
round-trips byte-identically and identical inputs give byte-identical
reports.

Algebra files list nonzero basis brackets; the loader completes each
listed (i, j, k) entry with the skew pair (j, i, k) and rejects
contradictions, matching how such tables are usually written down
(only one of each skew pair, zeros omitted).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from .cohomology import Cochain
from .linalg import (
    Matrix,
    Scalar,
    StructureError,
    SubspaceBasis,
    ZERO,
    format_scalar,
    parse_scalar,
    vec_is_zero,
    zero_vector,
)
from .lts import LieTripleSystem
from .representations import ActionData, RepresentationData
from .rota_baxter import RBOHomomorphism, RelativeRBO


def dump_json(data) -> str:
    """``data`` as ``json.dumps`` writes it with sorted keys and a
    two-space indent, byte for byte, plus a final newline.

    ``json.dumps`` writes any indented document with its pure-Python
    encoder.  This writes the same layout itself and leaves strings and
    atoms to the C encoders, about three times faster on a large
    cochain.  The tests hold it to ``json.dumps`` as the oracle."""
    out: list[str] = []
    _write_json(data, "\n", out, defaultdict(dict))
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(node, newline: str, out: list[str], seen: dict) -> None:
    """Append the JSON text of ``node`` to ``out``; ``newline`` is a line
    break and the indent of the line that ``node`` starts on.

    A list of lists that comes back at the same indent, such as a shared
    zero block of a cochain, is written once: ``seen`` maps each indent
    to the lists met at it, by identity, and each of those to the bounds
    of its pieces in ``out``, joined into one string when it first
    repeats, so a list that never repeats is not copied.  The document
    holds every list alive, so no identity is reused.  A list of strings
    is one join, cheaper than looking it up, so it is not kept."""
    if isinstance(node, str):
        out.append(_encode_str(node))
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if isinstance(node[0], str):
            # a list of strings, such as a value vector, is one join; a
            # later item that is not a string raises, and the loop below
            # writes the list
            try:
                body = sep.join(map(_encode_str, node))
            except TypeError:
                pass
            else:
                out += ("[", inner, body, newline, "]")
                return
        memo, key = seen[len(newline)], id(node)
        text = memo.get(key)
        if text is not None:
            if type(text) is tuple:
                text = memo[key] = "".join(out[text[0]:text[1]])
            out.append(text)
            return
        start = len(out)
        items = iter(node)
        out.append("[" + inner)
        _write_json(next(items), inner, out, seen)
        for item in items:
            out.append(sep)
            _write_json(item, inner, out, seen)
        out.append(newline + "]")
        memo[key] = (start, len(out))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(node.items()):
            if key is None or isinstance(key, (int, float)):
                key = json.dumps(key)  # the stdlib's text for a number, boolean or None key
            out.append(sep + _encode_str(key) + ": ")
            _write_json(value, inner, out, seen)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(node))


def _resolve(node, base_dir: Path | None) -> tuple:
    """(document, base of its nested paths) of a node that is an inline
    document, whose base is the file's, or a path string relative to
    the file, whose base is the named file's own directory."""
    if isinstance(node, str):
        path = Path(node)
        if base_dir is not None and not path.is_absolute():
            path = base_dir.joinpath(path)
        return _read_json(path), path.parent
    return node, base_dir


def _require(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise StructureError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _require_list(value, context):
    if not isinstance(value, list):
        raise StructureError(f"{context}: expected a list, found {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    """A JSON integer: not a float, and not a boolean, which Python
    counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _dim(value, context):
    if not _is_int(value) or value < 0:
        raise StructureError(f"{context} must be a non-negative integer")
    return value


def _matrix_rows(rows, context):
    for row in _require_list(rows, context):
        _require_list(row, context)
    return rows


# ---------------------------------------------------------------------------
# algebras


def algebra_from_json(data: dict) -> LieTripleSystem:
    dim = _dim(_require(data, "dim", "algebra"), "algebra: dim")
    names = data.get("basis") or [f"e{i+1}" for i in range(dim)]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise StructureError("algebra: basis must be a list of names")
    if len(names) != dim:
        raise StructureError("algebra: basis name count differs from dim")
    entries: dict[tuple[int, int, int], list[Scalar]] = {}
    for item in _require_list(data.get("brackets", []), "algebra brackets"):
        args = _require_list(_require(item, "args", "algebra bracket entry"), "algebra bracket args")
        if len(args) != 3 or not all(_is_int(a) and 1 <= a <= dim for a in args):
            raise StructureError(f"algebra: bad bracket args {args!r}")
        i, j, k = (a - 1 for a in args)
        value = _require(item, "value", "algebra bracket entry")
        if not isinstance(value, dict):
            raise StructureError(f"algebra: bracket value at {args} must map indices to scalars")
        vec = list(zero_vector(dim))
        for key, val in value.items():
            try:
                l = int(key) - 1
            except ValueError as exc:
                raise StructureError(f"algebra: bracket value index {key!r} is not an integer") from exc
            if not 0 <= l < dim:
                raise StructureError(f"algebra: bracket value index {key} out of range")
            # only the numeral algebra_to_json writes: no sign, space,
            # underscore, leading zero or non-ASCII digit
            if key != str(l + 1):
                raise StructureError(f"algebra: bracket value index {key!r} is not the numeral {l + 1}")
            vec[l] = parse_scalar(val)
        if i == j:
            if not vec_is_zero(tuple(vec)):
                raise StructureError(
                    f"algebra: bracket at {args} contradicts skew-symmetry (equal first indices)"
                )
            continue
        for key_idx, value in ((( i, j, k), tuple(vec)), ((j, i, k), tuple(-x for x in vec))):
            if entries.setdefault(key_idx, value) != value:
                one = tuple(a + 1 for a in key_idx)
                raise StructureError(f"algebra: contradictory entries for bracket {one}")
    return LieTripleSystem.from_entries(dim, entries, names)


def algebra_to_json(L: LieTripleSystem) -> dict:
    brackets = []
    for i, j, k, terms in L.nonzero:
        if i > j:
            continue  # skew partner is implied
        value = {str(l + 1): format_scalar(x) for l, x in terms}
        brackets.append({"args": [i + 1, j + 1, k + 1], "value": value})
    return {"dim": L.dim, "basis": list(L.basis_names), "brackets": brackets}


def load_algebra(path) -> LieTripleSystem:
    return algebra_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# representations and actions


def representation_from_json(data: dict, base_dir: Path | None = None) -> RepresentationData:
    algebra = algebra_from_json(_resolve(_require(data, "algebra", "representation"), base_dir)[0])
    space_dim = _dim(_require(data, "space_dim", "representation"), "representation: space_dim")
    given, entries = {}, {}
    for item in _require_list(data.get("theta", []), "representation theta"):
        args = _require_list(_require(item, "args", "theta entry"), "representation theta args")
        if len(args) != 2 or not all(_is_int(a) and 1 <= a <= algebra.dim for a in args):
            raise StructureError(f"representation: bad theta args {args!r}")
        rows = _require(item, "matrix", "theta entry")
        mat = Matrix.from_rows(_matrix_rows(rows, "representation theta matrix"))
        if mat.rows != space_dim or mat.cols != space_dim:
            raise StructureError(f"representation: theta matrix at {args} has wrong shape")
        i, j = args[0] - 1, args[1] - 1
        if given.setdefault((i, j), mat) != mat:
            raise StructureError(f"representation: contradictory entries for theta {tuple(args)}")
        entries.update(((i, j, r, c), a) for r, row in enumerate(mat.entries) for c, a in enumerate(row))
    return RepresentationData.from_entries(algebra, space_dim, entries)


def representation_to_json(rep: RepresentationData) -> dict:
    n, theta = rep.space_dim, []
    for i, j, entries in rep.nonzero:
        rows = [[format_scalar(ZERO)] * n for _ in range(n)]
        for r, c, a in entries:
            rows[r][c] = format_scalar(a)
        theta.append({"args": [i + 1, j + 1], "matrix": rows})
    return {"algebra": algebra_to_json(rep.algebra), "space_dim": n, "theta": theta}


def load_representation(path) -> RepresentationData:
    path = Path(path)
    return representation_from_json(_read_json(path), path.parent)


def action_from_json(data: dict, base_dir: Path | None = None) -> ActionData:
    rep = representation_from_json(*_resolve(_require(data, "representation", "action"), base_dir))
    target = algebra_from_json(_resolve(_require(data, "target", "action"), base_dir)[0])
    return ActionData(rep, target)


def action_to_json(action: ActionData) -> dict:
    return {
        "representation": representation_to_json(action.rep),
        "target": algebra_to_json(action.target),
    }


def load_action(path) -> ActionData:
    path = Path(path)
    return action_from_json(_read_json(path), path.parent)


# ---------------------------------------------------------------------------
# operators


def matrix_from_json(rows, rows_expected: int, cols_expected: int, context: str) -> Matrix:
    mat = Matrix.from_rows(_matrix_rows(rows, context))
    if rows_expected == 0 and mat.rows == 0:
        # a matrix with no rows is written [], which carries no width
        mat = Matrix(0, cols_expected, ())
    if mat.rows != rows_expected:
        raise StructureError(f"{context}: expected {rows_expected} rows, found {mat.rows}")
    if mat.cols != cols_expected:
        raise StructureError(f"{context}: expected {cols_expected} columns, found {mat.cols}")
    return mat


def matrix_to_json(mat: Matrix) -> list:
    return [[format_scalar(x) for x in row] for row in mat.entries]


def rbo_from_json(data: dict, base_dir: Path | None = None) -> RelativeRBO:
    action = action_from_json(_require(data, "action", "operator"), base_dir)
    weight = parse_scalar(_require(data, "weight", "operator"))
    T = matrix_from_json(
        _require(data, "T", "operator"),
        action.algebra.dim,
        action.target.dim,
        "operator matrix",
    )
    return RelativeRBO(action, weight, T)


def rbo_to_json(rbo: RelativeRBO) -> dict:
    return {
        "action": action_to_json(rbo.action),
        "weight": format_scalar(rbo.weight),
        "T": matrix_to_json(rbo.T),
    }


def load_rbo(path) -> RelativeRBO:
    path = Path(path)
    return rbo_from_json(_read_json(path), path.parent)


def homomorphism_from_json(data: dict, base_dir: Path | None = None) -> RBOHomomorphism:
    source = rbo_from_json(*_resolve(_require(data, "source", "homomorphism"), base_dir))
    target = rbo_from_json(*_resolve(_require(data, "target", "homomorphism"), base_dir))
    d, dp = source.ambient.dim, source.source.dim
    psi_l = matrix_from_json(_require(data, "psi_L", "homomorphism"), d, d, "psi_L")
    psi_lp = matrix_from_json(_require(data, "psi_Lprime", "homomorphism"), dp, dp, "psi_Lprime")
    return RBOHomomorphism(source, target, psi_l, psi_lp)


def load_homomorphism(path) -> RBOHomomorphism:
    path = Path(path)
    return homomorphism_from_json(_read_json(path), path.parent)


# ---------------------------------------------------------------------------
# cochains and subspaces


def cochain_from_json(data: dict) -> Cochain:
    """Load a cochain; dims are taken from the file or inferred.

    Degree >= 1 infers source_dim from the outer nesting and
    target_dim from the innermost vectors.  Degree -1 infers
    target_dim from the wedge coordinate count (the inverse triangular
    number); source_dim then defaults to target_dim, the self-action
    case, unless stated.
    """
    degree = _require(data, "degree", "cochain")
    coeffs = _require_list(_require(data, "coeffs", "cochain"), "cochain coeffs")
    if not (_is_int(degree) and (degree == -1 or (degree >= 1 and degree % 2 == 1))):
        raise StructureError(f"cochain: unsupported degree {degree!r}")
    if degree == -1:
        count = len(coeffs)
        target_dim = data.get("target_dim")
        if target_dim is None:
            target_dim = next(
                (d for d in range(count + 2) if d * (d - 1) // 2 == count), None
            )
            if target_dim is None:
                raise StructureError("cochain: wedge coordinate count is not triangular")
        target_dim = _dim(target_dim, "cochain: target_dim")
        source_dim = _dim(data.get("source_dim", target_dim), "cochain: source_dim")
        return Cochain(-1, source_dim, target_dim, tuple(parse_scalar(x) for x in coeffs))

    source_dim = _dim(data.get("source_dim", len(coeffs)), "cochain: source_dim")
    if "target_dim" in data:
        target_dim = _dim(data["target_dim"], "cochain: target_dim")
    else:
        # read off the first value vector; with source_dim 0 there is
        # none, and the file must state target_dim
        node = coeffs
        for _ in range(degree):
            if not isinstance(node, list) or not node:
                raise StructureError("cochain: coefficient nesting shallower than the degree")
            node = node[0]
        target_dim = len(node) if isinstance(node, list) else 0

    flat: list = []

    def walk(node, depth):
        _require_list(node, "cochain coeffs")
        if depth == degree:
            if len(node) != target_dim:
                raise StructureError("cochain: value vector has wrong length")
            flat.append(tuple(map(parse_scalar, node)))
            return
        if len(node) != source_dim:
            raise StructureError("cochain: coefficient nesting does not match source_dim")
        for child in node:
            walk(child, depth + 1)

    walk(coeffs, 0)
    return Cochain(degree, source_dim, target_dim, tuple(flat))


def cochain_to_json(f: Cochain) -> dict:
    """The cochain's document.  Only its nonzero value vectors are
    formatted: every zero vector is one shared list of ``"0"``, and
    every all-zero argument block one shared list per nesting depth,
    which ``dump_json`` writes once and then repeats."""
    if f.degree == -1:
        coeffs = list(map(format_scalar, f.coeffs))
    else:
        # the value vectors in row-major order, nested one list per
        # argument: group degree - 1 times into runs of source_dim
        zero = [format_scalar(ZERO)] * f.target_dim
        coeffs = [list(map(format_scalar, v)) if any(v) else zero for v in f.coeffs]
        step = f.source_dim or 1  # no vectors at all when source_dim is 0
        for _ in range(f.degree - 1):
            block = [zero] * step
            runs = (coeffs[i:i + step] for i in range(0, len(coeffs), step))
            coeffs = [block if run == block else run for run in runs]
            zero = block
    return {
        "degree": f.degree,
        "source_dim": f.source_dim,
        "target_dim": f.target_dim,
        "coeffs": coeffs,
    }


def load_cochain(path) -> Cochain:
    return cochain_from_json(_read_json(path))


def subspace_from_json(data: dict) -> SubspaceBasis:
    ambient = _dim(_require(data, "ambient_dim", "subspace"), "subspace: ambient_dim")
    vectors = [
        tuple(parse_scalar(x) for x in _require_list(row, "subspace vector"))
        for row in _require_list(_require(data, "vectors", "subspace"), "subspace vectors")
    ]
    return SubspaceBasis.from_spanning(vectors, ambient)


def subspace_to_json(s: SubspaceBasis) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "vectors": [[format_scalar(x) for x in v] for v in s.vectors],
    }


def load_subspace(path) -> SubspaceBasis:
    return subspace_from_json(_read_json(path))


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructureError(f"{path} is nested too deeply to read") from exc
