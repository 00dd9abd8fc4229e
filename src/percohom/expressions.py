"""Tiny arithmetic grammar for closed-form source terms.

Allowed: numeric literals, the coordinate names x, y, z, the constant pi,
binary + - * /, unary minus, and the functions sin, cos, exp.  Parsed through
the Python ast with a strict whitelist and evaluated vectorized on numpy
arrays.
"""

import ast

import numpy as np

from .errors import InvalidArgumentError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = {"pi": np.pi}
_COORDS = ("x", "y", "z")


def parse_expression(text):
    """Validate `text` against the grammar; returns a callable of coordinate arrays."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InvalidArgumentError(f"cannot parse expression {text!r}: {exc}") from exc
    _check(tree.body)

    def evaluate(**coords):
        return _eval(tree.body, coords)

    return evaluate


def source_diagnostics(text, mask):
    """Why `text` cannot be a run's source on the cells of `mask`, as
    diagnostics dicts: it is outside the grammar, names a coordinate the
    dimension lacks, divides by a constant zero, or is not finite at some
    cell center."""
    try:
        with np.errstate(all="ignore"):  # a value that is not finite is reported below
            values = evaluate_on_mask(text, mask)
    except (InvalidArgumentError, ArithmeticError) as exc:
        return [{"field": "source", "message": f"source {text!r}: {exc}"}]
    if not np.all(np.isfinite(values)):
        return [{"field": "source",
                 "message": f"source {text!r} is not finite at some cell center"}]
    return []


def _check(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        _check(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise InvalidArgumentError(f"function not in grammar: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise InvalidArgumentError("grammar functions take exactly one argument")
        _check(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in _COORDS and node.id not in _NAMES:
            raise InvalidArgumentError(f"name not in grammar: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InvalidArgumentError(f"literal not in grammar: {node.value!r}")
    else:
        raise InvalidArgumentError(f"construct not in grammar: {type(node).__name__}")


def _eval(node, coords):
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, coords)
        right = _eval(node.right, coords)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
    if isinstance(node, ast.UnaryOp):
        val = _eval(node.operand, coords)
        return -val if isinstance(node.op, ast.USub) else +val
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_eval(node.args[0], coords))
    if isinstance(node, ast.Name):
        if node.id in _NAMES:
            return _NAMES[node.id]
        if node.id not in coords:
            raise InvalidArgumentError(
                f"coordinate {node.id!r} undefined in {len(coords)} dimensions")
        return coords[node.id]
    return float(node.value)


def evaluate_on_mask(expr_text, mask):
    """Evaluate an expression at all cell centers of a mask; returns the full grid."""
    fn = parse_expression(expr_text)
    axes = [mask.axis_centers(a) for a in range(mask.dim)]
    # one axis per coordinate, broadcast by the arithmetic to the grid
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    coords = dict(zip(_COORDS[:mask.dim], grids))
    out = fn(**coords)
    return np.broadcast_to(np.asarray(out, dtype=float), mask.shape).copy()
