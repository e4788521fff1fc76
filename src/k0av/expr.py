"""Surface syntax for Grothendieck-group arithmetic.

Grammar (whitespace insignificant):

    expr     := term { ("+" | "-") term }
    term     := [ integer "*" ] atom
    atom     := class | "dual" "(" expr ")"
    class    := "[" nat ";" degspec "]"
    degspec  := rational | kernel
    rational := nat [ "/" nat ]
    kernel   := "{" [ pair { "," pair } ] "}"
    pair     := ("zp" | "mup" | "alphap" | "coprime") ":" nat
    integer  := [ "-" ] nat
    nat      := digit { digit }        digit is ASCII 0-9, nothing else

Literals are arbitrary precision.  One lexer (`kernels.tokenize`) reads
every literal, kernel literals included, in one regex pass; token offsets
are found only for an error message.  A kernel literal becomes a
`kernels.KernelSpec`.  `print_expression` emits a canonical rendering;
parse(print(parse(s))) = parse(s) for every valid s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import Record, set_field
from .contexts import IsogenyContext
from .errors import ParseError, excerpt
from .k0 import K0Element, k0_class
from .kernels import KernelSpec, parse_kernel_literal, tokenize


class ClassAtom(Record):
    __slots__ = _fields = ("n", "spec")
    n: int
    spec: Union[Fraction, KernelSpec]

    def __init__(self, n: int, spec: Union[Fraction, KernelSpec]) -> None:
        set_field(self, "n", n)
        set_field(self, "spec", spec)


class Dual(Record):
    __slots__ = _fields = ("inner",)
    inner: "Sum"

    def __init__(self, inner: "Sum") -> None:
        set_field(self, "inner", inner)


class Sum(Record):
    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[int, Union[ClassAtom, Dual]], ...]

    def __init__(self, terms: tuple[tuple[int, Union[ClassAtom, Dual]], ...]) -> None:
        set_field(self, "terms", terms)


Node = Union[Sum, Dual, ClassAtom]

# Deepest dual(...) nesting accepted.  The parser and the evaluator recurse
# once per level, so a fixed bound keeps both far below the interpreter's
# recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, expected: str | None = None, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the current one."""
        return ParseError(message, self.toks.pos(self.i if at is None else at), expected)

    def found(self, expected: str) -> ParseError:
        t = self.toks[self.i]
        return self.error(f"found {excerpt(t)}" if t else "input ended", expected)

    def expect(self, tok: str, expected: str) -> None:
        if self.toks[self.i] != tok:
            raise self.found(expected)
        self.i += 1

    def nat(self, expected: str) -> int:
        """The integer literal at the current token, which it passes."""
        i = self.i
        if not self.toks[i].isdigit():
            raise self.found(expected)
        self.i = i + 1
        return self.toks.value(i)

    def expr(self) -> Sum:
        terms = [self.term(1)]
        while (t := self.toks[self.i]) == "+" or t == "-":
            self.i += 1
            terms.append(self.term(1 if t == "+" else -1))
        return Sum(tuple(terms))

    def term(self, sign: int) -> tuple[int, Union[ClassAtom, Dual]]:
        coef = 1
        t = self.toks[self.i]
        negative = t == "-"
        if negative or t.isdigit():
            self.i += negative
            at = self.i
            coef = self.nat("integer coefficient")
            if coef == 0:
                raise self.error("zero coefficient", "nonzero integer", at)
            coef = -coef if negative else coef
            self.expect("*", "'*' after coefficient")
        return (sign * coef, self.atom())

    def atom(self) -> Union[ClassAtom, Dual]:
        t = self.toks[self.i]
        if t == "[":
            return self.class_atom()
        if t == "dual":
            at = self.i
            self.i += 1
            self.expect("(", "'(' after dual")
            if self.depth == MAX_NESTING:
                raise self.error(f"dual(...) nested deeper than {MAX_NESTING}", "shallower nesting", at)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")", "')'")
            return Dual(inner)
        if t.isidentifier():
            raise self.error(f"unknown name {excerpt(t)}", "'dual'")
        raise self.found("'[' or 'dual'")

    def class_atom(self) -> ClassAtom:
        self.expect("[", "'['")
        at = self.i
        n = self.nat("positive multiplicity")
        if n < 1:
            raise self.error("multiplicity must be positive", "positive integer", at)
        self.expect(";", "';' between multiplicity and degree")
        spec = self.degspec()
        self.expect("]", "']'")
        return ClassAtom(n, spec)

    def rational(self) -> Fraction:
        at = self.i
        num, den = self.nat("positive rational"), 1
        if self.toks[self.i] == "/":
            self.i += 1
            den = self.nat("denominator")
        if num == 0 or den == 0:
            raise self.error("degree must be a positive rational", "positive rational", at)
        return Fraction(num, den)

    def degspec(self) -> Union[Fraction, KernelSpec]:
        t = self.toks[self.i]
        if t.isdigit():
            return self.rational()
        if t == "{":
            return self.kernel()
        raise self.found("rational or kernel literal")

    def kernel(self) -> KernelSpec:
        spec, self.i = parse_kernel_literal(self.toks, self.i)
        return spec

    def whole(self, rule, expected: str = "end of input"):
        """`rule`'s value, when it reads all of the text."""
        value = rule(self)
        t = self.toks[self.i]
        if t:
            raise self.error(f"trailing input {excerpt(t)}", expected)
        return value


def parse_expression(text: str) -> Sum:
    return _Parser(text).whole(_Parser.expr, "'+', '-', or end of input")


def parse_rational(text: str) -> Fraction:
    """A positive degree by the `rational` rule alone, e.g. "15" or "3/4"."""
    return _Parser(text).whole(_Parser.rational)


def parse_kernel(text: str) -> KernelSpec:
    """A kernel literal by the `kernel` rule alone, e.g. "{mup:1, coprime:12}";
    absent fields take `KernelSpec`'s defaults."""
    return _Parser(text).whole(_Parser.kernel)


def _print_spec(spec: Union[Fraction, KernelSpec]) -> str:
    if isinstance(spec, KernelSpec):
        return spec.literal()
    return str(spec.numerator) if spec.denominator == 1 else f"{spec.numerator}/{spec.denominator}"


def _print_atom(node: Union[ClassAtom, Dual]) -> str:
    if isinstance(node, Dual):
        return f"dual({print_expression(node.inner)})"
    return f"[{node.n}; {_print_spec(node.spec)}]"


def print_expression(node: Node) -> str:
    """Canonical rendering; inverse of parse_expression up to AST equality."""
    if isinstance(node, (ClassAtom, Dual)):
        node = Sum(((1, node),))
    parts: list[str] = []
    for i, (coef, atom) in enumerate(node.terms):
        body = _print_atom(atom) if abs(coef) == 1 else f"{abs(coef)}*{_print_atom(atom)}"
        if i == 0:
            parts.append(body if coef > 0 else f"-1*{_print_atom(atom)}" if coef == -1 else f"-{abs(coef)}*{_print_atom(atom)}")
        else:
            parts.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(parts)


def eval_expression(ctx: IsogenyContext, node: Node) -> K0Element:
    """Evaluate to canonical form; dual distributes over sums."""
    if isinstance(node, Sum):
        if not node.terms:
            return K0Element(0, ctx.identity())
        (coef, atom), *rest = node.terms
        acc = eval_expression(ctx, atom).scale(coef)
        for coef, atom in rest:
            acc = acc + eval_expression(ctx, atom).scale(coef)
        return acc
    if isinstance(node, Dual):
        return eval_expression(ctx, node.inner).dual()
    return k0_class(ctx, node.n, node.spec)
