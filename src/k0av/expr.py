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
    basis    := nat { [","] nat }      a subgroup basis (`parse_basis`)

Literals are arbitrary precision.  One lexer (`kernels.tokenize`) reads
every literal in one regex pass.  Each rule is a function over (tokens,
index) that returns its value and the index after it (`kernel` is
`kernels.parse_kernel_literal`); `kernels.Tokens` builds every refusal and
alone finds a token's offset, only for an error message.  A kernel literal
becomes a `kernels.KernelSpec`.  `print_expression` emits a canonical
rendering; parse(print(parse(s))) = parse(s) for every valid s.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .arith import printable_int
from .contexts import IsogenyContext
from .errors import excerpt
from .k0 import K0Element, k0_class
from .kernels import KernelSpec, Tokens, parse_kernel_literal, tokenize


class ClassAtom(Record):
    __slots__ = _fields = ("n", "spec")
    n: int
    spec: Fraction | KernelSpec

    def __init__(self, n: int, spec: Fraction | KernelSpec) -> None:
        set_field(self, "n", n)
        set_field(self, "spec", spec)


class Dual(Record):
    __slots__ = _fields = ("inner",)
    inner: "Sum"

    def __init__(self, inner: "Sum") -> None:
        set_field(self, "inner", inner)


class Sum(Record):
    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[int, ClassAtom | Dual], ...]

    def __init__(self, terms: tuple[tuple[int, ClassAtom | Dual], ...]) -> None:
        set_field(self, "terms", terms)


Node = Sum | Dual | ClassAtom

# Deepest dual(...) nesting accepted.  The rules and the evaluator recurse
# once per level, so a fixed bound keeps both far below the interpreter's
# recursion limit.
MAX_NESTING = 200


def _expr(toks: Tokens, i: int, depth: int = 0) -> tuple[Sum, int]:
    """`expr` at toks[i], inside `depth` enclosing dual(...)s."""
    term, i = _term(toks, i, depth)
    terms = [term]
    while (t := toks[i]) == "+" or t == "-":
        (coef, atom), i = _term(toks, i + 1, depth)
        terms.append((coef if t == "+" else -coef, atom))
    return Sum(tuple(terms)), i


def _term(toks: Tokens, i: int, depth: int) -> tuple[tuple[int, ClassAtom | Dual], int]:
    coef = 1
    t = toks[i]
    negative = t == "-"
    if negative or t.isdigit():
        i += negative
        if not toks[i].isdigit():
            raise toks.found(i, "integer coefficient")
        coef = toks.value(i)
        if coef == 0:
            raise toks.error(i, "zero coefficient", "nonzero integer")
        if toks[i + 1] != "*":
            raise toks.found(i + 1, "'*' after coefficient")
        coef = -coef if negative else coef
        i += 2
    atom, i = _atom(toks, i, depth)
    return (coef, atom), i


def _atom(toks: Tokens, i: int, depth: int) -> tuple[ClassAtom | Dual, int]:
    t = toks[i]
    if t == "[":
        return _class_atom(toks, i)
    if t == "dual":
        if toks[i + 1] != "(":
            raise toks.found(i + 1, "'(' after dual")
        if depth == MAX_NESTING:
            raise toks.error(i, f"dual(...) nested deeper than {MAX_NESTING}", "shallower nesting")
        inner, i = _expr(toks, i + 2, depth + 1)
        if toks[i] != ")":
            raise toks.found(i, "')'")
        return Dual(inner), i + 1
    if t.isidentifier():
        raise toks.error(i, f"unknown name {excerpt(t)}", "'dual'")
    raise toks.found(i, "'[' or 'dual'")


def _class_atom(toks: Tokens, i: int) -> tuple[ClassAtom, int]:
    """`[n; a]`, `[n; a/b]` or `[n; {...}]` at toks[i], which is '['.  Each
    test of a token fails on the closing "", and the token after one is read
    only once its test passed, so no index runs past the end."""
    i += 1
    if not toks[i].isdigit():
        raise toks.found(i, "positive multiplicity")
    n = toks.value(i)
    if n < 1:
        raise toks.error(i, "multiplicity must be positive", "positive integer")
    if toks[i + 1] != ";":
        raise toks.found(i + 1, "';' between multiplicity and degree")
    i += 2
    if toks[i] == "{":
        spec, i = parse_kernel_literal(toks, i)
    else:
        spec, i = _rational(toks, i, "rational or kernel literal")
    if toks[i] != "]":
        raise toks.found(i, "']'")
    return ClassAtom(n, spec), i + 1


def _rational(toks: Tokens, i: int, expected: str = "positive rational") -> tuple[Fraction, int]:
    """`rational` at toks[i], refused as not `expected` unless a digit
    starts it."""
    if not toks[i].isdigit():
        raise toks.found(i, expected)
    at = i
    num = toks.value(i)
    if toks[i + 1] == "/":
        i += 2
        if not toks[i].isdigit():
            raise toks.found(i, "denominator")
        den = toks.value(i)
    else:
        den = 1
    if num == 0 or den == 0:
        raise toks.error(at, "degree must be a positive rational", "positive rational")
    # Fraction(num) takes no gcd; both give the same value.
    return (Fraction(num) if den == 1 else Fraction(num, den)), i + 1


def _basis(toks: Tokens, i: int) -> tuple[tuple[int, ...], int]:
    """`basis` from toks[i] to the end: its entries, none for an empty text.
    `Tokens.value` reads each entry, so it refuses an empty one at its comma."""
    entries = []
    while toks[i]:
        entries.append(toks.value(i))
        i += 1
        if toks[i] == "," and toks[i + 1]:
            i += 1
    return tuple(entries), i


def _whole(rule, text: str, expected: str = "end of input"):
    """`rule`'s value when it reads all of `text`."""
    toks = tokenize(text)
    value, i = rule(toks, 0)
    if toks[i]:
        raise toks.error(i, f"trailing input {excerpt(toks[i])}", expected)
    return value


def parse_expression(text: str) -> Sum:
    return _whole(_expr, text, "'+', '-', or end of input")


def parse_rational(text: str) -> Fraction:
    """A positive degree by the `rational` rule alone, e.g. "15" or "3/4"."""
    return _whole(_rational, text)


def parse_kernel(text: str) -> KernelSpec:
    """A kernel literal by the `kernel` rule alone, e.g. "{mup:1, coprime:12}";
    absent fields take `KernelSpec`'s defaults."""
    return _whole(parse_kernel_literal, text)


def parse_basis(text: str) -> tuple[int, ...]:
    """The entries of a subgroup basis by the `basis` rule, e.g. "1,0,0,6"
    or "1 0 0 6"; the caller checks how many there are."""
    return _whole(_basis, text)


def print_expression(node: Node) -> str:
    """Canonical rendering; inverse of parse_expression up to AST equality.
    An integer past the int-conversion limit is refused with a K0Error
    (`arith.printable_int`)."""
    if isinstance(node, ClassAtom):
        spec = node.spec
        if isinstance(spec, KernelSpec):
            spec = spec.literal()
        else:
            printable_int(spec.numerator, "degree")
            printable_int(spec.denominator, "degree")
        return f"[{printable_int(node.n, 'multiplicity')}; {spec}]"
    if isinstance(node, Dual):
        return f"dual({print_expression(node.inner)})"
    parts: list[str] = []
    for coef, atom in node.terms:
        body = print_expression(atom)
        scaled = body if abs(coef) == 1 else f"{abs(printable_int(coef, 'coefficient'))}*{body}"
        if not parts:
            parts.append(scaled if coef > 0 else f"{coef}*{body}")
        else:
            parts.append(("+ " if coef > 0 else "- ") + scaled)
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
