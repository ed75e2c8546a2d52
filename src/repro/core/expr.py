"""Safe expression language for derived columns.

Tiptop's screens are "fully customizable" (§2.2): a column is an arithmetic
expression over counter deltas, e.g. IPC is ``instructions / cycles`` and
the DMIS column of Fig. 1 is ``100 * cache_misses / instructions``. This is
a tiny recursive-descent parser and evaluator — no ``eval``, no attribute
access, just numbers, identifiers, ``+ - * /``, unary minus and parens.

Identifiers use underscores; event names containing dashes are addressed by
their underscored form (``cache-misses`` -> ``cache_misses``). Division by
zero evaluates to NaN (rendered as "-" by the formatter), matching how a
ratio over an empty interval should read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import ExprError

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


#: The identifiers every expression may use besides event names.
BUILTIN_VARIABLES = frozenset({"delta_t", "cpu_pct"})


def canonical_name(event_name: str) -> str:
    """Identifier form of an event name (dashes become underscores)."""
    return event_name.replace("-", "_").lower()


def environment(
    deltas: Mapping[str, np.ndarray], interval: float, cpu_pct: np.ndarray
) -> dict[str, np.ndarray | float]:
    """The variables a derived column sees: each event's deltas under its
    :func:`canonical_name`, ``delta_t`` (the interval, NaN when it is not
    positive) and ``cpu_pct``."""
    return {
        **{canonical_name(name): column for name, column in deltas.items()},
        "delta_t": interval if interval > 0 else math.nan,
        "cpu_pct": cpu_pct,
    }


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class _Neg:
    operand: "Node"


Node = _Num | _Var | _BinOp | _Neg


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprError:
        return ExprError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            raise self.error("unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = _BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = _BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return node
        if ch == "-":
            self.pos += 1
            return _Neg(self.factor())
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.lower() in _IDENT_CHARS:
            return self.identifier()
        raise self.error(f"unexpected character {ch!r}")

    def number(self) -> Node:
        start = self.pos
        seen_e = False
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isdigit() or c == ".":
                self.pos += 1
            elif c in "eE" and not seen_e:
                seen_e = True
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        try:
            return _Num(float(self.text[start : self.pos]))
        except ValueError as exc:
            raise self.error("malformed number") from exc

    def identifier(self) -> Node:
        start = self.pos
        while (
            self.pos < len(self.text)
            and self.text[self.pos].lower() in _IDENT_CHARS
        ):
            self.pos += 1
        return _Var(self.text[start : self.pos].lower())


class Expression:
    """A compiled derived-column expression.

    Args:
        text: the source expression (e.g. ``"instructions / cycles"``).

    Raises:
        ExprError: on a syntax error.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._root = _Parser(text).parse()
        self.variables = frozenset(self._collect(self._root))

    @staticmethod
    def _collect(node: Node) -> set[str]:
        if isinstance(node, _Var):
            return {node.name}
        if isinstance(node, _BinOp):
            return Expression._collect(node.left) | Expression._collect(node.right)
        if isinstance(node, _Neg):
            return Expression._collect(node.operand)
        return set()

    def evaluate(self, env: dict[str, float]) -> float:
        """Evaluate against ``env``.

        Raises:
            ExprError: for an identifier missing from ``env``.
        """
        return self._eval(self._root, env)

    def _eval(self, node: Node, env: dict[str, float]) -> float:
        if isinstance(node, _Num):
            return node.value
        if isinstance(node, _Var):
            try:
                return env[node.name]
            except KeyError as exc:
                raise ExprError(
                    f"unknown identifier {node.name!r} in {self.text!r} "
                    f"(have: {sorted(env)})"
                ) from exc
        if isinstance(node, _Neg):
            return -self._eval(node.operand, env)
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        # division
        if right == 0:
            return math.nan
        return left / right

    def evaluate_column(
        self, env: dict[str, "np.ndarray | float"], length: int
    ) -> np.ndarray:
        """Evaluate over whole columns at once.

        ``env`` maps identifiers to float64 arrays of ``length`` entries
        (or scalars, which broadcast). The expression compiles once at
        construction; this walks the same AST but with numpy elementwise
        arithmetic, so a screen's derived columns cost one pass per column
        instead of one interpreter walk per task. Every element is
        bitwise-identical to :meth:`evaluate` on the corresponding scalar
        env: the operations are the same IEEE-754 double ops, and division
        by zero maps to NaN exactly as the scalar path does.

        Raises:
            ExprError: for an identifier missing from ``env``.
        """
        result = self._eval_vec(self._root, env)
        if np.ndim(result) == 0:
            return np.full(length, float(result))
        return np.asarray(result, dtype=float)

    def _eval_vec(self, node: Node, env: dict[str, "np.ndarray | float"]):
        if isinstance(node, _Num):
            return node.value
        if isinstance(node, _Var):
            try:
                return env[node.name]
            except KeyError as exc:
                raise ExprError(
                    f"unknown identifier {node.name!r} in {self.text!r} "
                    f"(have: {sorted(env)})"
                ) from exc
        if isinstance(node, _Neg):
            return -self._eval_vec(node.operand, env)
        left = self._eval_vec(node.left, env)
        right = self._eval_vec(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        # division: 0 denominators read as NaN, like the scalar path
        if np.ndim(left) == 0 and np.ndim(right) == 0:
            return math.nan if right == 0 else left / right
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quotient = np.true_divide(left, right)
        return np.where(np.asarray(right) == 0.0, math.nan, quotient)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Expression({self.text!r})"
